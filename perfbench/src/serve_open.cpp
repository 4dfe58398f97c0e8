// serve_open: seeded open-loop Poisson arrivals at a fixed offered rate into
// one serve::Engine (TensorSSA, symbolic shapes, pipeline threads 1,
// executeConcurrency 2, default micro-batch window). Requests are lstm,
// nasrnn, attention and yolov3 at batch 1-4 and seqLen 16 or 32; each
// (workload, batch, seqLen) class has kVariants seeded input tuples.
//
// Set-up (repeated kSetupRepeats times, median reported): build each class,
// draw its input variants, run each variant solo through the Eager pipeline
// for the reference, start the engine and send every class once (warm-up:
// compiles the programs and the texpr JIT kernels) and check it.
//
// Each request is timed from outside the engine, from its due time to the
// moment its future is seen ready: the generator thread, on a CPU of its
// own, polls the pending futures between arrivals. Its outputs are compared
// bit for bit with the reference. The schedule runs as kWindows windows;
// latencies are reported at reference host speed, sampled at each window
// boundary; goodput counts raw latencies within the limit.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <future>
#include <memory>
#include <stdexcept>
#include <thread>

#include "perfbench/src/common.h"
#include "perfbench/src/spans.h"
#include "src/obs/trace.h"
#include "src/runtime/pipeline.h"
#include "src/serve/engine.h"
#include "src/tensor/random.h"
#include "src/texpr/jit.h"

namespace perfbench {

namespace {

using tssa::obs::Tracer;
using tssa::runtime::Pipeline;
using tssa::runtime::PipelineKind;
using tssa::runtime::PipelineOptions;
using tssa::runtime::RtValue;
using tssa::serve::Engine;
using tssa::serve::EngineOptions;
using tssa::serve::RejectedError;
using tssa::serve::Request;
using tssa::serve::Response;
using tssa::texpr::jit::KernelCache;

/// Offered load and latency limit, fixed from measurement on a 4-vCPU
/// x86-64 machine, where the engine saturates near 300 req/s (see
/// perfbench/METRICS.md).
constexpr double kOfferedRps = 100;
constexpr double kLatencyLimitMs = 50;
constexpr int kVariants = 4;
/// A timed phase is kWindows open-loop windows of equal length and request
/// count, each drained before the next starts. The host speed is sampled
/// between windows, so each window is scaled by the host speed around it.
/// latency_ms_tail is the median over the windows of each window's p95 (at
/// 30 s: 300 requests a window, 15 beyond its p95): a stretch of a few
/// seconds in which the shared host runs slow moves one or two windows, not
/// the median. The pooled p95 and p99 are printed beside it (see
/// perfbench/METRICS.md).
constexpr std::size_t kWindows = 10;
constexpr double kTailCap = 0.95;
/// Reference-loop samples at each window boundary, on the engine CPUs in
/// turn.
constexpr std::size_t kSpeedSamples = 12;
const std::vector<std::string> kServedWorkloads = {"lstm", "nasrnn",
                                                   "attention", "yolov3"};
constexpr int kExecuteConcurrency = 2;
/// How often the generator looks at the pending futures when it has no CPU
/// of its own: the resolution of a delivery time. With a CPU of its own it
/// polls without sleeping, so neither a submission nor a delivery stamp
/// waits for the CPU to wake up.
constexpr auto kPollInterval = std::chrono::microseconds(100);
/// A request not delivered this long after the schedule ends fails the run.
constexpr auto kDrainLimit = std::chrono::seconds(30);

/// Keeps the generator off the CPUs the engine runs on, and gives each
/// engine thread a CPU of its own. A thread starts with the CPU affinity of
/// the thread that creates it, so while the main thread is limited to all
/// its CPUs but the last, every thread the engine and the thread pool start
/// stays off that one. The main thread, which runs the generator, moves onto
/// it for each timed window. Without this, the generator's short sleeps
/// often end behind an executing request on the same CPU, and it submits
/// and stamps deliveries milliseconds late. With at least one engine CPU per
/// executor plus one, the executors (the shared pool's workers) and the
/// batcher get one each (startExecutors): left to the OS scheduler, all
/// three ran on one vCPU while two idled. With fewer than three CPUs nothing
/// is pinned.
class CpuSplit {
 public:
  CpuSplit() {
    engineCpus_ = allowedCpus();
    if (engineCpus_.size() < 3) {
      engineCpus_.clear();
      return;
    }
    generatorCpu_ = engineCpus_.back();
    engineCpus_.pop_back();
  }
  /// Moves the calling thread onto the engine's CPUs.
  void toEngineCpus() const { pin(engineCpus_); }
  /// Moves the calling thread onto the `k`-th engine CPU (modulo their
  /// count).
  void toEngineCpu(std::size_t k) const {
    if (!engineCpus_.empty()) pin({engineCpus_[k % engineCpus_.size()]});
  }
  /// Starts the engine's `n` executors (the shared pool's first `n`
  /// workers), each on an engine CPU of its own, and moves the calling
  /// thread onto the next engine CPU, where the engine built next starts its
  /// batcher thread. Does nothing without an engine CPU for each.
  void startExecutors(std::size_t n) const {
    if (engineCpus_.size() <= n) return;
    startPinnedPoolWorkers(
        std::vector<int>(engineCpus_.begin(),
                         engineCpus_.begin() + static_cast<std::ptrdiff_t>(n)));
    toEngineCpu(n);
  }
  /// Moves the calling thread onto the generator's CPU.
  void toGeneratorCpu() const { pin({generatorCpu_}); }
  /// The generator's CPU, or -1 when nothing is pinned.
  int generatorCpu() const { return generatorCpu_; }

 private:
  void pin(const std::vector<int>& cpus) const {
    if (generatorCpu_ >= 0) pinThread(cpus);
  }
  int generatorCpu_ = -1;
  std::vector<int> engineCpus_;  ///< empty when nothing is pinned
};

struct RequestClass {
  std::string workload;
  tssa::workloads::WorkloadConfig config;
  std::vector<std::vector<RtValue>> inputs;     ///< per variant
  std::vector<std::vector<RtValue>> reference;  ///< Eager outputs
};

struct Arrival {
  double dueS = 0;  ///< from the start of its window
  int cls = 0;
  int variant = 0;
};
using Window = std::vector<Arrival>;

struct Outcome {
  bool delivered = false;  ///< a response (not a rejection or error)
  bool correct = false;
  double latencyMs = 0;    ///< due -> future seen ready, raw
  double scaledMs = 0;     ///< the same at reference host speed
  Response response;
};

std::vector<RequestClass> makeClasses(std::uint64_t seed, double& buildMs) {
  std::vector<RequestClass> classes;
  std::mt19937_64 rng = rngFor(seed, 1);
  for (const std::string& workload : kServedWorkloads)
    for (std::int64_t batch = 1; batch <= 4; ++batch)
      for (std::int64_t seqLen : {16, 32}) {
        RequestClass c;
        c.workload = workload;
        c.config.batch = batch;
        c.config.seqLen = seqLen;
        c.config.seed = seed;  // weights: one compiled program per workload
        const auto t0 = Clock::now();
        tssa::workloads::Workload w =
            tssa::workloads::buildWorkload(workload, c.config);
        buildMs += msBetween(t0, Clock::now());
        Pipeline eager(PipelineKind::Eager, *w.graph, PipelineOptions{});
        for (int v = 0; v < kVariants; ++v) {
          tssa::Rng data(rng());
          std::vector<RtValue> inputs = w.inputs;
          for (RtValue& in : inputs)
            if (in.isTensor() && in.tensor().dtype() == tssa::DType::Float32)
              in = RtValue(data.normal(in.tensor().sizes(), 0.0, 0.5));
          c.reference.push_back(eager.run(inputs));
          c.inputs.push_back(std::move(inputs));
        }
        classes.push_back(std::move(c));
      }
  return classes;
}

EngineOptions engineOptions() {
  EngineOptions o;
  o.kind = PipelineKind::TensorSsa;
  o.pipeline.threads = 1;
  o.executeConcurrency = kExecuteConcurrency;
  return o;
}

Request requestFor(const RequestClass& c, int variant) {
  Request r;
  r.workload = c.workload;
  r.config = c.config;
  r.inputs = c.inputs[static_cast<std::size_t>(variant)];
  return r;
}

struct Setup {
  std::vector<RequestClass> classes;
  std::unique_ptr<Engine> engine;
  double buildMs = 0;
};

Setup setUp(const Options& options, Report& report) {
  tssa::obs::TraceSpan span("bench", "setup");
  Setup s;
  s.classes = makeClasses(options.seed, s.buildMs);
  s.engine = std::make_unique<Engine>(engineOptions());
  for (const RequestClass& c : s.classes) {
    const Response r = s.engine->submit(requestFor(c, 0)).get();
    if (!bitwiseEqual(r.outputs, c.reference[0])) {
      std::printf("MISMATCH: warm-up %s b%lld s%lld\n", c.workload.c_str(),
                  static_cast<long long>(c.config.batch),
                  static_cast<long long>(c.config.seqLen));
      report.count(false);
    }
  }
  return s;
}

/// Arrivals of one schedule of `seconds`, in kWindows windows with the same
/// number of arrivals each. Every request class is drawn equally often (the
/// class sequence is a shuffled round-robin), so the mix of cheap and costly
/// requests is the same for every seed.
std::vector<Window> schedule(std::uint64_t seed, std::uint64_t stream,
                             double seconds, std::size_t classes) {
  std::mt19937_64 rng = rngFor(seed, stream);
  const double windowS = seconds / static_cast<double>(kWindows);
  const auto perWindow = std::max<std::size_t>(
      1, static_cast<std::size_t>(kOfferedRps * windowS + 0.5));
  std::vector<int> mix(perWindow * kWindows);
  for (std::size_t i = 0; i < mix.size(); ++i)
    mix[i] = static_cast<int>(i % classes);
  std::shuffle(mix.begin(), mix.end(), rng);
  std::uniform_int_distribution<int> variant(0, kVariants - 1);
  std::vector<Window> windows(kWindows);
  std::size_t next = 0;
  for (Window& w : windows)
    for (double due : poissonArrivals(rng, perWindow, windowS))
      w.push_back({due, mix[next++], variant(rng)});
  return windows;
}

struct PhaseResult {
  std::vector<Outcome> outcomes;
  std::vector<double> genLateMs;
  /// Summed over windows: first due time -> last delivery.
  double spanS = 0;
  std::uint64_t rejected[tssa::serve::kNumRejectReasons] = {};
};

/// When each request was submitted and when its future was seen ready.
struct Stamps {
  std::vector<Clock::time_point> submitted;
  std::vector<Clock::time_point> delivered;  ///< unset: refused at submit
};

/// Open-loop generator and delivery collector on one thread. It calls
/// `submit(i)` at `start + due[i]` whether or not earlier requests finished
/// (a late call still counts from its due time), and between calls, and
/// after the last one until all are done, it polls every pending future and
/// stamps it when it is ready: continuously with `spin`, else each
/// kPollInterval. `submit` returns false when the request was refused at
/// submit (its future is invalid).
template <typename Submit>
Stamps runSchedule(Clock::time_point start, const std::vector<double>& due,
                   std::vector<std::future<Response>>& futures, bool spin,
                   Submit&& submit) {
  Stamps stamps;
  stamps.submitted.resize(due.size());
  stamps.delivered.resize(due.size());
  std::vector<std::size_t> pending;
  const auto poll = [&] {
    for (std::size_t k = 0; k < pending.size();) {
      const std::size_t i = pending[k];
      if (futures[i].wait_for(std::chrono::seconds(0)) ==
          std::future_status::ready) {
        stamps.delivered[i] = Clock::now();
        pending[k] = pending.back();
        pending.pop_back();
      } else {
        ++k;
      }
    }
  };
  for (std::size_t i = 0; i < due.size(); ++i) {
    const Clock::time_point dueAt = dueTime(start, due[i]);
    for (poll(); Clock::now() < dueAt; poll())
      if (!spin)
        std::this_thread::sleep_until(
            std::min(dueAt, Clock::now() + kPollInterval));
    stamps.submitted[i] = Clock::now();
    if (submit(i)) pending.push_back(i);
  }
  const Clock::time_point drainEnd = Clock::now() + kDrainLimit;
  for (poll(); !pending.empty(); poll()) {
    if (Clock::now() > drainEnd)
      throw std::runtime_error("requests still pending after the drain limit");
    if (!spin) std::this_thread::sleep_for(kPollInterval);
  }
  return stamps;
}

PhaseResult timedPhase(Setup& s, const std::vector<Window>& windows,
                       const CpuSplit& cpus, Report& report) {
  PhaseResult out;
  tssa::serve::Session session = s.engine->openSession("generator");
  // Requests are built before the clock starts; submit moves one in.
  std::vector<std::vector<Request>> requests;
  for (const Window& w : windows) {
    requests.emplace_back();
    for (const Arrival& a : w)
      requests.back().push_back(
          requestFor(s.classes[static_cast<std::size_t>(a.cls)], a.variant));
  }

  // The host speed is sampled on each engine CPU in turn, where the
  // requests run, at each window boundary, while no request executes:
  // sampling while requests execute would compete with them.
  std::vector<SpeedTrack> boundary(windows.size() + 1);
  const auto sampleSpeed = [&](SpeedTrack& speed) {
    for (std::size_t k = 0; k < kSpeedSamples; ++k) {
      cpus.toEngineCpu(k);
      speed.sample();
    }
  };
  sampleSpeed(boundary[0]);
  for (std::size_t w = 0; w < windows.size(); ++w) {
    const Window& arrivals = windows[w];
    std::vector<std::future<Response>> futures(arrivals.size());
    std::vector<double> due;
    for (const Arrival& a : arrivals) due.push_back(a.dueS);
    cpus.toGeneratorCpu();
    const Clock::time_point start =
        Clock::now() + std::chrono::milliseconds(5);
    const Stamps stamps = runSchedule(
        start, due, futures, cpus.generatorCpu() >= 0, [&](std::size_t i) {
          try {
            tssa::obs::TraceSpan span("bench", "submit");  // no-op untraced
            futures[i] = session.submit(std::move(requests[w][i]));
            return true;
          } catch (const RejectedError& e) {
            ++out.rejected[static_cast<int>(e.reason())];
            return false;
          }
        });
    sampleSpeed(boundary[w + 1]);
    cpus.toEngineCpus();

    const double factor =
        std::sqrt(boundary[w].factor() * boundary[w + 1].factor());
    Clock::time_point lastDelivery = start;
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
      const Clock::time_point dueAt = dueTime(start, arrivals[i].dueS);
      out.genLateMs.push_back(msBetween(dueAt, stamps.submitted[i]));
      Outcome o;
      if (futures[i].valid()) {
        try {
          o.response = futures[i].get();  // ready: stamped by runSchedule
          o.delivered = true;
        } catch (const RejectedError& e) {
          ++out.rejected[static_cast<int>(e.reason())];
        } catch (const std::exception& e) {
          std::printf("request %zu of window %zu failed: %s\n", i, w,
                      e.what());
        }
      }
      if (o.delivered) {
        const RequestClass& c =
            s.classes[static_cast<std::size_t>(arrivals[i].cls)];
        o.correct = bitwiseEqual(
            o.response.outputs,
            c.reference[static_cast<std::size_t>(arrivals[i].variant)]);
        if (!o.correct)
          std::printf("MISMATCH: request %zu of window %zu (%s b%lld s%lld)\n",
                      i, w, c.workload.c_str(),
                      static_cast<long long>(c.config.batch),
                      static_cast<long long>(c.config.seqLen));
        o.latencyMs = msBetween(dueAt, stamps.delivered[i]);
        o.scaledMs = o.latencyMs * factor;
        lastDelivery = std::max(lastDelivery, stamps.delivered[i]);
      }
      report.count(o.delivered && o.correct);
      o.response.outputs.clear();
      out.outcomes.push_back(std::move(o));
    }
    out.spanS +=
        msBetween(dueTime(start, arrivals.front().dueS), lastDelivery) / 1e3;
  }
  return out;
}

/// Latencies (raw, or with `scaled` at reference host speed) with every
/// failed or refused request counted as missing any limit.
std::vector<double> latencies(const PhaseResult& r, bool scaled) {
  std::vector<double> v;
  for (const Outcome& o : r.outcomes)
    v.push_back(!o.delivered || !o.correct ? 1e9
                : scaled                   ? o.scaledMs
                                           : o.latencyMs);
  return v;
}

/// Median over the kWindows windows of a phase's latencies `lat` (in
/// arrival order; every window has the same number) of each window's p95.
double windowedTail(const std::vector<double>& lat) {
  std::vector<double> tails;
  const std::size_t n = lat.size() / kWindows;
  for (auto w = lat.begin(); w + static_cast<std::ptrdiff_t>(n) <= lat.end();
       w += static_cast<std::ptrdiff_t>(n))
    tails.push_back(
        tail(std::vector<double>(w, w + static_cast<std::ptrdiff_t>(n)),
             kTailCap)
            .value);
  return median(tails);
}

void servingLayerMetrics(const PhaseResult& r, Report& report) {
  std::vector<double> queue, exec;
  double batch = 0, hits = 0;
  for (const Outcome& o : r.outcomes) {
    if (!o.delivered) continue;
    queue.push_back(o.response.timing.queueUs / 1e3);
    exec.push_back(o.response.timing.execUs / 1e3);
    batch += o.response.batchedWith;
    hits += o.response.cacheHit ? 1 : 0;
  }
  const double n = std::max<double>(1, static_cast<double>(queue.size()));
  report.set("serve.queue_ms_p50", median(queue));
  report.set("serve.queue_ms_p99", tail(queue).value);
  report.set("serve.exec_ms_p50", median(exec));
  report.set("serve.exec_ms_p99", tail(exec).value);
  report.set("serve.batch_size_mean", batch / n);
  report.set("serve.cache_hit_ratio", hits / n);
  for (int reason = 0; reason < tssa::serve::kNumRejectReasons; ++reason)
    report.set(std::string("serve.rejected.") +
                   std::string(tssa::serve::rejectReasonName(
                       static_cast<tssa::serve::RejectReason>(reason))),
               static_cast<double>(r.rejected[reason]));
  report.set("serve.gen_late_ms_max",
             *std::max_element(r.genLateMs.begin(), r.genLateMs.end()));
}

void printPhase(const char* title, const PhaseResult& r) {
  for (bool scaled : {false, true}) {
    const Quartiles q = quartiles(latencies(r, scaled));
    const Tail t95 = tail(latencies(r, scaled), kTailCap);
    const Tail t99 = tail(latencies(r, scaled));
    std::printf("%s: %zu requests, %s latency ms q1 %.3f median %.3f q3 "
                "%.3f p%.1f %.3f p%.1f %.3f (%zu samples), median of %zu "
                "windows' p%.0f %.3f\n",
                title, r.outcomes.size(),
                scaled ? "at reference host speed," : "raw,", q.q1, q.median,
                q.q3, t95.percentile, t95.value, t99.percentile, t99.value,
                t99.n, kWindows, kTailCap * 100,
                windowedTail(latencies(r, scaled)));
  }
  std::size_t coalesced = 0, delivered = 0;
  for (const Outcome& o : r.outcomes) {
    delivered += o.delivered;
    coalesced += o.delivered && o.response.batchedWith > 1;
  }
  std::printf("coalesced: %zu of %zu delivered requests shared a batch\n",
              coalesced, delivered);
  const Quartiles late = quartiles(r.genLateMs);
  std::printf("generator late ms: median %.3f q3 %.3f max %.3f\n",
              late.median, late.q3,
              *std::max_element(r.genLateMs.begin(), r.genLateMs.end()));
}

}  // namespace

Report runServeOpen(const Options& options) {
  Report report;
  Tracer& tracer = Tracer::instance();
  if (options.trace) tracer.enable();
  const CpuSplit cpus;
  cpus.toEngineCpus();  // before the engine or the thread pool starts
  cpus.startExecutors(kExecuteConcurrency);

  std::vector<double> setupS, buildMs;
  Setup setup = repeatSetUp(options, setupS, [&] {
    Setup s = setUp(options, report);
    buildMs.push_back(s.buildMs);
    return s;
  });
  const KernelCache::Stats jitSetupEnd = KernelCache::instance().stats();
  const tssa::serve::MetricsSnapshot atSetup = setup.engine->metrics();
  std::printf("workload serve_open: %zu request classes, offered %.0f req/s, "
              "latency limit %.0f ms, executeConcurrency %d, pipeline "
              "threads 1, nproc %u, generator cpu %d (-1: nothing pinned; else "
              "each executor and the batcher on an engine cpu of its own), "
              "seed %llu\n",
              setup.classes.size(), kOfferedRps, kLatencyLimitMs,
              kExecuteConcurrency, std::thread::hardware_concurrency(),
              cpus.generatorCpu(),
              static_cast<unsigned long long>(options.seed));

  if (options.trace) {
    const SpanTable setupTable = analyzeSpans(tracer.snapshot());
    tracer.disable();
    tracer.clear();
    reportSetupSpans(setupTable, report);
    report.set("workloads.build_ms", median(buildMs));
    report.set("core.compile_ms", atSetup.compileUsTotal / 1e3);

    const double half = options.seconds / 2;
    const PhaseResult untraced = timedPhase(
        setup, schedule(options.seed, 2, half, setup.classes.size()),
        cpus, report);
    printPhase("untraced phase", untraced);
    servingLayerMetrics(untraced, report);
    const auto before = setup.engine->metrics();
    const KernelCache::Stats jitBefore = KernelCache::instance().stats();
    tracer.enable();
    const auto tracedStart = Clock::now();
    const PhaseResult traced = timedPhase(
        setup, schedule(options.seed, 3, half, setup.classes.size()),
        cpus, report);
    const double tracedWallMs = msBetween(tracedStart, Clock::now());
    tracer.disable();
    const auto after = setup.engine->metrics();
    const KernelCache::Stats jitAfter = KernelCache::instance().stats();
    printPhase("traced phase", traced);
    const SpanTable table = analyzeSpans(tracer.snapshot());
    tracer.clear();
    std::printf("\n== spans of the traced phase ==\n");
    printSpanTable(table);

    const double n = static_cast<double>(traced.outcomes.size());
    report.set("runtime.unfused_ms",
               selfMsAnyThread(table, "exec/Interpreter.run") / n);
    report.set("runtime.fused_ms", (selfMsAnyThread(table, "exec/FusionGroup") +
                                    selfMsAnyThread(table, "jit/")) /
                                       n);
    report.set("runtime.parmap_ms",
               selfMsAnyThread(table, "exec/ParallelMap") / n);
    report.set("runtime.pool_busy_ratio",
               totalMsAnyThread(table, "pool/") /
                   (kExecuteConcurrency * tracedWallMs));
    const double batchMs = totalMsAnyThread(table, "serve/batch");
    report.set("obs.self_coverage",
               1.0 - selfMsAnyThread(table, "serve/batch") / batchMs);
    const double fresh = static_cast<double>(after.arenaFreshAllocs -
                                             before.arenaFreshAllocs);
    const double reused = static_cast<double>(after.arenaReusedAllocs -
                                              before.arenaReusedAllocs);
    report.set("tensor.fresh_allocs", fresh / n);
    report.set("core.sim_us", (after.simBusyUs - before.simBusyUs) /
                                  static_cast<double>(after.requests -
                                                      before.requests));
    report.set("tensor.arena_reuse", reused / std::max(1.0, fresh + reused));
    reportJitCounters(jitSetupEnd, jitBefore, jitAfter, n, report);
    report.set("obs.trace_overhead_pct",
               (median(latencies(traced, true)) /
                    median(latencies(untraced, true)) -
                1.0) *
                   100.0);
    reportServedProgramCounts(kServedWorkloads, options.seed, report);
    return report;
  }

  const PhaseResult r = timedPhase(
      setup, schedule(options.seed, 2, options.seconds, setup.classes.size()),
      cpus, report);
  printPhase("timed phase", r);
  timedJitCompiles(jitSetupEnd);
  double good = 0;
  for (const Outcome& o : r.outcomes)
    good += o.delivered && o.correct && o.latencyMs <= kLatencyLimitMs;
  const std::vector<double> lat = latencies(r, true);
  report.set("setup_s", median(setupS));
  report.set("latency_ms_p50", median(lat));
  report.set("latency_ms_tail", windowedTail(lat));
  report.set("throughput_per_s", good / r.spanS);
  report.set("peak_rss_mb", peakRssMb());
  return report;
}

}  // namespace perfbench
