// Self-time attribution over the spans obs::Tracer recorded.
//
// The benchmark records its own "bench" spans around each call into a layer;
// the program records its existing spans (pipeline/*, exec/*, pool/*, jit/*,
// serve/*). A span's parent is the innermost span on the same thread whose
// interval contains it, and its self time is its duration minus the time its
// children cover. Every span is assigned to a group: the name of the "bench"
// span that encloses it on its own thread, or else of the "bench" span (on
// any thread) that was open when it started — the offline workloads run one
// program at a time, so worker-thread spans belong to that program.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "perfbench/src/common.h"
#include "src/obs/trace.h"

namespace perfbench {

struct SpanStat {
  std::int64_t count = 0;
  double totalMs = 0;
  double selfMs = 0;
};

/// group -> "cat/name" -> stat. Spans on a thread without an enclosing bench
/// span are keyed "worker:cat/name"; those outside every bench span's
/// interval are grouped under "background".
using SpanTable = std::map<std::string, std::map<std::string, SpanStat>>;

SpanTable analyzeSpans(const std::vector<tssa::obs::TraceEvent>& events);

/// Sums over every key of `group` (or of all groups when `group` is empty)
/// that is `prefix`, lies in category `prefix` (when it ends with '/'), or is
/// a '.'-suffixed sub-span of it.
double sumSelfMs(const SpanTable& table, const std::string& group,
                 const std::string& prefix);
double sumTotalMs(const SpanTable& table, const std::string& group,
                  const std::string& prefix);

/// Sums over all groups, on bench threads and worker threads alike.
double selfMsAnyThread(const SpanTable& table, const std::string& prefix);
double totalMsAnyThread(const SpanTable& table, const std::string& prefix);

/// Sets the metrics read from set-up spans: core.pass_ms.<pass> (the
/// pipeline/<pass> spans), analysis.memory_plan_ms and texpr.jit_compile_ms.
void reportSetupSpans(const SpanTable& setupTable, Report& report);

/// Prints one row per (group, span) with count, total and self time.
void printSpanTable(const SpanTable& table);

}  // namespace perfbench
