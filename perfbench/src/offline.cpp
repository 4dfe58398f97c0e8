// vision / sequence: the compiled TensorSSA programs of four workloads each,
// at batch 8 (seqLen 64), run by one caller in a closed loop that cycles
// through the programs, threads = threadsFor(workload).
//
// Set-up (repeated kSetupRepeats times, median reported): build each
// workload from the seed, compile it with the TensorSSA pipeline, run the
// Eager pipeline once for the reference outputs, and run the compiled
// program once (warm-up: pays the texpr JIT compiles) and check it. Each
// repeat starts from an empty kernel cache, as a fresh process would.
//
// The caller runs on the first CPU; at threads 2 the pool's worker runs on
// the second, so a run's two threads never share a core.
//
// Every timed run's outputs are compared bit for bit with the reference
// (outside the timed interval). End-to-end times are scaled to the
// reference host speed (common.h); per-layer times are raw.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <thread>

#include "perfbench/src/common.h"
#include "perfbench/src/spans.h"
#include "src/obs/trace.h"
#include "src/runtime/pipeline.h"
#include "src/texpr/jit.h"
#include "src/workloads/workload.h"

namespace perfbench {

namespace {

using tssa::obs::Tracer;
using tssa::runtime::Pipeline;
using tssa::runtime::PipelineKind;
using tssa::runtime::PipelineOptions;
using tssa::runtime::RtValue;
using tssa::texpr::jit::KernelCache;


struct Program {
  std::string name;
  tssa::workloads::Workload workload;
  std::unique_ptr<Pipeline> compiled;
  std::vector<RtValue> reference;
  GraphCounts graph;
  std::vector<double> runMs;     ///< timed runs of the current phase, raw
  std::vector<double> scaledMs;  ///< the same at reference host speed
};

struct Setup {
  std::vector<Program> programs;
  double buildMs = 0;
  double compileMs = 0;
};

/// Worker threads per program run. vision uses 2: its fused groups and
/// ParallelMaps keep the thread pool busy, and 2 leaves headroom on the
/// 4-core host, where 4 threads swung the most. sequence uses 1: its runs
/// are chains of small ops, and at 2 threads the hand-offs to the pool made
/// its run time swing by ±18% across processes without making it faster.
int threadsFor(const std::string& workload) {
  return workload == "vision" ? 2 : 1;
}

std::vector<std::string> programNames(const std::string& workload) {
  if (workload == "vision") return {"yolov3", "ssd", "yolact", "fcos"};
  return {"lstm", "nasrnn", "seq2seq", "attention"};
}

Setup setUp(const Options& options, Report& report) {
  tssa::obs::TraceSpan span("bench", "setup");
  Setup s;
  PipelineOptions compiledOptions;
  compiledOptions.threads = threadsFor(options.workload);
  for (const std::string& name : programNames(options.workload)) {
    Program p;
    p.name = name;
    tssa::workloads::WorkloadConfig config;
    config.batch = 8;
    config.seqLen = 64;
    config.seed = options.seed;
    auto t0 = Clock::now();
    p.workload = tssa::workloads::buildWorkload(name, config);
    auto t1 = Clock::now();
    p.compiled = std::make_unique<Pipeline>(PipelineKind::TensorSsa,
                                            *p.workload.graph,
                                            compiledOptions);
    auto t2 = Clock::now();
    s.buildMs += msBetween(t0, t1);
    s.compileMs += msBetween(t1, t2);
    p.graph = countGraph(p.compiled->compiled());
    Pipeline eager(PipelineKind::Eager, *p.workload.graph, PipelineOptions{});
    p.reference = eager.run(p.workload.inputs);
    const bool ok =
        bitwiseEqual(p.compiled->run(p.workload.inputs), p.reference);
    if (!ok) {
      std::printf("MISMATCH: %s warm-up run differs from Eager\n",
                  name.c_str());
      report.count(false);
    }
    s.programs.push_back(std::move(p));
  }
  return s;
}

/// Closed loop: one caller cycles through the programs until `seconds`
/// elapsed (checked at cycle boundaries, so every program runs equally
/// often). The reference loop runs before each program, and each run is
/// scaled by the host speed around it.
void timedPhase(std::vector<Program>& programs, double seconds,
                Report& report) {
  for (Program& p : programs) {
    p.runMs.clear();
    p.scaledMs.clear();
  }
  SpeedTrack speed;
  std::vector<std::vector<Clock::time_point>> started(programs.size());
  const auto deadline = dueTime(Clock::now(), seconds);
  do {
    for (std::size_t i = 0; i < programs.size(); ++i) {
      Program& p = programs[i];
      speed.sample();
      std::vector<RtValue> out;
      const auto t0 = Clock::now();
      {
        tssa::obs::TraceSpan span("bench", p.name);  // no-op untraced
        out = p.compiled->run(p.workload.inputs);
      }
      p.runMs.push_back(msBetween(t0, Clock::now()));
      started[i].push_back(t0);
      const bool ok = bitwiseEqual(out, p.reference);
      if (!ok)
        std::printf("MISMATCH: %s run %zu differs from Eager\n",
                    p.name.c_str(), p.runMs.size());
      report.count(ok);
    }
  } while (Clock::now() < deadline);
  for (std::size_t i = 0; i < programs.size(); ++i)
    for (std::size_t k = 0; k < programs[i].runMs.size(); ++k)
      programs[i].scaledMs.push_back(programs[i].runMs[k] *
                                     speed.factorAt(started[i][k]));
}

/// Per-program medians of the scaled (or, with `raw`, the raw) run times.
std::vector<double> medians(const std::vector<Program>& programs,
                            bool raw = false) {
  std::vector<double> m;
  for (const Program& p : programs)
    m.push_back(median(raw ? p.runMs : p.scaledMs));
  return m;
}

/// Geometric mean over programs of each program's tail (the highest
/// percentile with ten runs beyond it; every program runs equally often, so
/// it is the same percentile for all).
Tail geomeanTail(const std::vector<Program>& programs) {
  std::vector<double> tails;
  Tail t;
  for (const Program& p : programs) {
    t = tail(p.scaledMs);
    tails.push_back(t.value);
  }
  t.value = geomean(tails);
  return t;
}

void printRunTable(const std::vector<Program>& programs, const char* title) {
  std::printf("\n== %s: Pipeline::run wall-clock per program (ms at "
              "reference host speed; raw median beside) ==\n",
              title);
  std::printf("%-10s %5s %9s %9s %9s %9s %9s %9s %9s  %s\n", "program",
              "runs", "min", "q1", "median", "q3", "max", "raw_med", "sim_us",
              "shape");
  for (const Program& p : programs) {
    const Quartiles q = quartiles(p.scaledMs);
    std::printf("%-10s %5zu %9.2f %9.2f %9.2f %9.2f %9.2f %9.2f %9.1f  %s\n",
                p.name.c_str(), p.scaledMs.size(),
                *std::min_element(p.scaledMs.begin(), p.scaledMs.end()), q.q1,
                q.median, q.q3,
                *std::max_element(p.scaledMs.begin(), p.scaledMs.end()),
                median(p.runMs), p.compiled->profiler().simTimeUs(),
                distributionShape(p.scaledMs).c_str());
  }
}

/// Per-layer metrics from the traced phase (see perfbench/METRICS.md).
void layerMetrics(const std::vector<Program>& programs,
                  const SpanTable& table,
                  const std::vector<double>& untracedRawMedians,
                  double untracedGeo, int threads, Report& report) {
  std::printf("\n== per-layer self time per run (ms), traced phase ==\n");
  std::printf("%-10s %5s %9s %9s %9s %9s %9s %9s %8s %7s %9s %7s\n",
              "program", "runs", "wall", "unfused", "fused", "parmap",
              "pool", "pipeline", "coverage", "launch", "fresh", "reuse");
  double fused = 0, parmap = 0, unfused = 0, poolMs = 0, wall = 0;
  double bytes = 0, untracedWall = 0, launches = 0, fresh = 0, reused = 0;
  double benchSelf = 0, simUs = 0;
  std::int64_t fusionGroups = 0, parallelMaps = 0;
  for (const Program& p : programs) {
    const double n = static_cast<double>(p.runMs.size());
    const std::string& g = p.name;  // per-layer times are raw
    const double pWall = sumTotalMs(table, g, "bench/") / n;
    const double pSelf = sumSelfMs(table, g, "bench/") / n;
    const double pUnfused = sumSelfMs(table, g, "exec/Interpreter.run") / n;
    const double pFused = (sumSelfMs(table, g, "exec/FusionGroup") +
                           sumSelfMs(table, g, "jit/")) /
                          n;
    const double pParmap = sumSelfMs(table, g, "exec/ParallelMap") / n;
    const double pPool = sumSelfMs(table, g, "pool/") / n;
    const auto& prof = p.compiled->profiler();
    const auto mem = prof.memoryCounters();
    std::printf(
        "%-10s %5zu %9.2f %9.2f %9.2f %9.2f %9.2f %9.3f %8.4f %7lld %9lld "
        "%7.3f\n",
        g.c_str(), p.runMs.size(), pWall, pUnfused, pFused, pParmap, pPool,
        pSelf, 1.0 - pSelf / pWall,
        static_cast<long long>(prof.kernelLaunches()),
        static_cast<long long>(mem.freshAllocs),
        static_cast<double>(mem.reusedAllocs) /
            static_cast<double>(
                std::max<std::int64_t>(1, mem.freshAllocs + mem.reusedAllocs)));
    wall += pWall;
    benchSelf += pSelf;
    unfused += pUnfused;
    fused += pFused;
    parmap += pParmap;
    // Pool busy time: worker-thread spans plus the caller's helping.
    poolMs += (sumTotalMs(table, g, "worker:pool/") +
               sumTotalMs(table, g, "pool/")) /
              n;
    bytes += static_cast<double>(prof.bytesMoved());
    launches += static_cast<double>(prof.kernelLaunches());
    fresh += static_cast<double>(mem.freshAllocs);
    reused += static_cast<double>(mem.reusedAllocs);
    simUs += prof.simTimeUs();
    fusionGroups += p.graph.fusionGroups;
    parallelMaps += p.graph.parallelMaps;
  }
  for (double m : untracedRawMedians) untracedWall += m;
  report.set("runtime.unfused_ms", unfused);
  report.set("runtime.fused_ms", fused);
  report.set("runtime.parmap_ms", parmap);
  report.set("runtime.pool_busy_ratio", poolMs / (threads * wall));
  report.set("runtime.achieved_gbps", bytes / 1e9 / (untracedWall / 1e3));
  report.set("obs.self_coverage", 1.0 - benchSelf / wall);
  report.set("core.launches", launches);
  report.set("core.fusion_groups", static_cast<double>(fusionGroups));
  report.set("core.parallel_maps", static_cast<double>(parallelMaps));
  report.set("core.sim_us", simUs);
  report.set("tensor.fresh_allocs", fresh);
  report.set("tensor.arena_reuse", reused / std::max(1.0, fresh + reused));
  report.set("obs.trace_overhead_pct",
             (geomean(medians(programs)) / untracedGeo - 1.0) * 100.0);
}

}  // namespace

Report runOffline(const Options& options) {
  Report report;
  const int threads = threadsFor(options.workload);
  const std::vector<int> cpus = allowedCpus();
  if (cpus.size() >= static_cast<std::size_t>(threads)) {
    if (threads > 1)
      startPinnedPoolWorkers(std::vector<int>(cpus.begin() + 1,
                                              cpus.begin() + threads));
    pinThread({cpus.front()});
  }
  Tracer& tracer = Tracer::instance();
  if (options.trace) tracer.enable();

  std::vector<double> setupS, buildMs, compileMs;
  Setup setup = repeatSetUp(options, setupS, [&] {
    Setup s = setUp(options, report);
    buildMs.push_back(s.buildMs);
    compileMs.push_back(s.compileMs);
    return s;
  });
  std::vector<Program>& programs = setup.programs;
  const KernelCache::Stats jitSetupEnd = KernelCache::instance().stats();
  std::printf("workload %s: programs at batch 8, seqLen 64, threads %d of "
              "nproc %u, each thread on a CPU of its own: %s, seed %llu\n",
              options.workload.c_str(), threads,
              std::thread::hardware_concurrency(),
              cpus.size() >= static_cast<std::size_t>(threads) ? "yes" : "no",
              static_cast<unsigned long long>(options.seed));

  if (options.trace) {
    const SpanTable setupTable = analyzeSpans(tracer.snapshot());
    tracer.disable();
    tracer.clear();
    reportSetupSpans(setupTable, report);
    report.set("workloads.build_ms", median(buildMs));
    report.set("core.compile_ms", median(compileMs));

    timedPhase(programs, options.seconds / 2, report);
    const std::vector<double> untracedRawMedians = medians(programs, true);
    const double untracedGeo = geomean(medians(programs));
    printRunTable(programs, "untraced phase");
    const KernelCache::Stats jitBefore = KernelCache::instance().stats();
    tracer.enable();
    timedPhase(programs, options.seconds / 2, report);
    tracer.disable();
    const KernelCache::Stats jitAfter = KernelCache::instance().stats();
    printRunTable(programs, "traced phase");
    const SpanTable table = analyzeSpans(tracer.snapshot());
    tracer.clear();
    std::printf("\n== spans of the traced phase ==\n");
    printSpanTable(table);
    reportJitCounters(jitSetupEnd, jitBefore, jitAfter,
                      static_cast<double>(programs.front().runMs.size()),
                      report);
    layerMetrics(programs, table, untracedRawMedians, untracedGeo,
                 threadsFor(options.workload), report);
    return report;
  }

  timedPhase(programs, options.seconds, report);
  printRunTable(programs, "timed phase");
  const Tail t = geomeanTail(programs);
  std::printf("latency_ms_tail is the geometric mean of per-program p%.1f "
              "(%zu runs each)\n",
              t.percentile, t.n);
  timedJitCompiles(jitSetupEnd);
  double cycleMs = 0;  // one run of every program, each at its median
  for (double m : medians(programs)) cycleMs += m;
  report.set("setup_s", median(setupS));
  report.set("latency_ms_p50", geomean(medians(programs)));
  report.set("latency_ms_tail", t.value);
  report.set("throughput_per_s",
             static_cast<double>(programs.size()) / (cycleMs / 1e3));
  report.set("peak_rss_mb", peakRssMb());
  return report;
}

}  // namespace perfbench
