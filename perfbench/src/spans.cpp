#include "perfbench/src/spans.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

namespace {

using tssa::obs::TraceEvent;

struct Interval {
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  std::string group;
};

std::string keyOf(const TraceEvent& e) { return e.cat + "/" + e.name; }

/// The group of a span that no bench span encloses on its own thread: the
/// bench span open when it started, on any thread.
std::string groupAt(const std::vector<Interval>& roots, std::uint64_t t) {
  auto it = std::upper_bound(
      roots.begin(), roots.end(), t,
      [](std::uint64_t v, const Interval& r) { return v < r.start; });
  if (it == roots.begin()) return "background";
  --it;
  return t < it->end ? it->group : "background";
}

/// `key` is `prefix`, a span under the category `prefix` ends with '/', or
/// a '.'-suffixed sub-span of it ("exec/ParallelMap" takes
/// "exec/ParallelMap.chunk" but "serve/batch" not "serve/batcher.seal").
bool matches(const std::string& key, const std::string& prefix) {
  if (key.compare(0, prefix.size(), prefix) != 0) return false;
  return key.size() == prefix.size() || prefix.back() == '/' ||
         key[prefix.size()] == '.';
}

template <typename Field>
auto sumOver(const SpanTable& table, const std::string& group,
             const std::string& prefix, Field field) {
  decltype(field(SpanStat{})) total{};
  for (const auto& [g, spans] : table) {
    if (!group.empty() && g != group) continue;
    for (const auto& [key, stat] : spans)
      if (matches(key, prefix)) total += field(stat);
  }
  return total;
}

}  // namespace

SpanTable analyzeSpans(const std::vector<TraceEvent>& input) {
  std::vector<const TraceEvent*> events;
  events.reserve(input.size());
  for (const TraceEvent& e : input) events.push_back(&e);
  // Parents before children: by thread, then start, then longer first.
  std::sort(events.begin(), events.end(),
            [](const TraceEvent* a, const TraceEvent* b) {
              if (a->tid != b->tid) return a->tid < b->tid;
              if (a->startNs != b->startNs) return a->startNs < b->startNs;
              return a->durNs > b->durNs;
            });

  std::vector<Interval> roots;
  for (const TraceEvent* e : events)
    if (e->cat == "bench")
      roots.push_back({e->startNs, e->startNs + e->durNs, e->name});
  std::sort(roots.begin(), roots.end(),
            [](const Interval& a, const Interval& b) {
              return a.start < b.start;
            });

  struct Open {
    const TraceEvent* event;
    std::string group;
    bool worker = false;  ///< on a thread without an enclosing bench span
    std::uint64_t childNs = 0;
  };
  SpanTable table;
  std::vector<Open> stack;
  auto close = [&](const Open& o) {
    SpanStat& s =
        table[o.group][(o.worker ? "worker:" : "") + keyOf(*o.event)];
    s.count += 1;
    s.totalMs += static_cast<double>(o.event->durNs) * 1e-6;
    const std::uint64_t self =
        o.event->durNs > o.childNs ? o.event->durNs - o.childNs : 0;
    s.selfMs += static_cast<double>(self) * 1e-6;
  };
  std::uint32_t tid = 0;
  for (const TraceEvent* e : events) {
    if (e->tid != tid) {
      while (!stack.empty()) {
        close(stack.back());
        stack.pop_back();
      }
      tid = e->tid;
    }
    const std::uint64_t end = e->startNs + e->durNs;
    while (!stack.empty()) {
      const TraceEvent* top = stack.back().event;
      if (e->startNs >= top->startNs && end <= top->startNs + top->durNs)
        break;
      close(stack.back());
      stack.pop_back();
    }
    Open open{e, "", false};
    if (e->cat == "bench") {
      open.group = e->name;
    } else if (!stack.empty()) {
      open.group = stack.back().group;
      open.worker = stack.back().worker;
    } else {
      open.group = groupAt(roots, e->startNs);
      open.worker = true;
    }
    if (!stack.empty()) stack.back().childNs += e->durNs;
    stack.push_back(std::move(open));
  }
  while (!stack.empty()) {
    close(stack.back());
    stack.pop_back();
  }
  return table;
}

double sumSelfMs(const SpanTable& table, const std::string& group,
                 const std::string& prefix) {
  return sumOver(table, group, prefix,
                 [](const SpanStat& s) { return s.selfMs; });
}

double sumTotalMs(const SpanTable& table, const std::string& group,
                  const std::string& prefix) {
  return sumOver(table, group, prefix,
                 [](const SpanStat& s) { return s.totalMs; });
}

double selfMsAnyThread(const SpanTable& table, const std::string& prefix) {
  return sumSelfMs(table, "", prefix) +
         sumSelfMs(table, "", "worker:" + prefix);
}

double totalMsAnyThread(const SpanTable& table, const std::string& prefix) {
  return sumTotalMs(table, "", prefix) +
         sumTotalMs(table, "", "worker:" + prefix);
}

void reportSetupSpans(const SpanTable& setupTable, Report& report) {
  static const char* kPasses[] = {
      "lower-inplace", "functionalize",   "views-to-access",
      "parallelize",   "hoist-constants", "fusion",
      "mark-inplace",  "dce",             "verify"};
  for (const char* pass : kPasses)
    report.set(std::string("core.pass_ms.") + pass,
               totalMsAnyThread(setupTable, std::string("pipeline/") + pass));
  report.set("analysis.memory_plan_ms",
             totalMsAnyThread(setupTable, "pipeline/memory-plan"));
  report.set("texpr.jit_compile_ms",
             totalMsAnyThread(setupTable, "jit/compile"));
}

void printSpanTable(const SpanTable& table) {
  std::printf("%-12s %-26s %9s %12s %12s\n", "group", "span", "count",
              "total_ms", "self_ms");
  for (const auto& [group, spans] : table)
    for (const auto& [key, s] : spans)
      std::printf("%-12s %-26s %9lld %12.3f %12.3f\n", group.c_str(),
                  key.c_str(), static_cast<long long>(s.count), s.totalMs,
                  s.selfMs);
}

}  // namespace perfbench
