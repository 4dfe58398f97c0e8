// Shared pieces of the benchmark program: options, the metric report, the
// order statistics every workload reports, and the bitwise output check.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "src/ir/ir.h"
#include "src/obs/trace.h"
#include "src/runtime/rt_value.h"
#include "src/texpr/jit.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double msBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Set-up is repeated this many times per run and its median reported, so a
/// slow toolchain spawn in one JIT compile does not decide `setup_s`.
inline constexpr int kSetupRepeats = 3;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Process entry: set-up of the first repeat is timed from here.
  Clock::time_point processStart;
};

/// What one run measured. `metrics` is keyed by the names in BENCHMARK.json;
/// run.py checks them and reads the per-layer metrics of layers a workload
/// does not use as 0.
struct Report {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::map<std::string, double> metrics;

  void set(const std::string& name, double value) { metrics[name] = value; }
  /// Counts one checked operation; a failure also clears `correct`.
  void count(bool ok) {
    ++attempted;
    if (!ok) {
      ++failed;
      correct = false;
    }
  }
};

// ---- Order statistics ------------------------------------------------------

double median(std::vector<double> v);

struct Quartiles {
  double q1 = 0;
  double median = 0;
  double q3 = 0;
};
/// Quartiles by linear interpolation between closest ranks.
Quartiles quartiles(std::vector<double> v);

/// The highest percentile that still has at least ten samples beyond it,
/// capped at `cap` (p99 by default) and never below the median (nearest
/// rank). With fewer than eleven samples there is no such percentile and
/// the maximum is reported with `percentile` = 100.
struct Tail {
  double value = 0;
  double percentile = 100;
  std::size_t n = 0;
};
Tail tail(std::vector<double> v, double cap = 0.99);

double geomean(const std::vector<double>& v);

/// "steady", "wide" (quartile spread above 20% of the median) or "bimodal"
/// (a gap between consecutive sorted samples wider than 25% of the median,
/// with at least a fifth of the samples on each side).
std::string distributionShape(std::vector<double> v);

// ---- Host speed ------------------------------------------------------------
//
// The benchmark host is shared: the same code runs 10-30% faster or slower
// from one minute to the next. Timed work is therefore reported at a
// reference host speed: each raw time is multiplied by
// kReferenceLoopMs ÷ (median time of a fixed reference loop sampled next to
// it). The loop uses no code of the program under test, so a change to the
// program moves the raw and the scaled times alike. Raw times are printed
// beside the scaled ones.

/// The reference loop's median time on the machine that fixed the rates.
inline constexpr double kReferenceLoopMs = 2.75;

/// Runs the reference loop once and returns its wall time in ms. It is
/// single-threaded and does the two kinds of work tensor programs do, in
/// about equal time: a streaming multiply-add over two 4 MiB buffers
/// (memory bandwidth beyond the L2) and 112x112 float matmuls (vector
/// arithmetic in cache).
double referenceLoopMs();

/// Reference-loop samples taken during a timed phase, so each timed
/// operation is scaled by the host speed around the moment it ran. A speed
/// factor is kReferenceLoopMs ÷ the median sample: multiply a time measured
/// while the samples were taken by it to get the time at reference speed.
class SpeedTrack {
 public:
  /// Runs the reference loop now and records it.
  void sample();
  /// Speed factor of the samples started within ±1 s of `t`, or of all
  /// samples when fewer than 5 are that close.
  double factorAt(Clock::time_point t) const;
  /// Speed factor of all samples.
  double factor() const;

 private:
  std::vector<std::pair<Clock::time_point, double>> samples_;  ///< by time
};

// ---- CPU placement ---------------------------------------------------------
//
// The runtime ThreadPool starts its workers on demand and leaves their
// placement to the OS scheduler. On the 4-vCPU benchmark host the scheduler
// stacked both serving workers and the batcher thread on one vCPU while the
// others idled, so concurrent requests took turns on one core. The
// benchmark therefore starts the pool's workers itself, each pinned to a CPU
// of its own.

/// CPUs this process may run on, in ascending order.
std::vector<int> allowedCpus();

/// Limits the calling thread to `cpus`.
void pinThread(const std::vector<int>& cpus);

/// Starts the shared runtime ThreadPool's workers, worker k limited to
/// cpus[k] alone (a thread starts with its creator's CPU set). Must run
/// before anything else uses the pool. Leaves the calling thread limited to
/// cpus.back().
void startPinnedPoolWorkers(const std::vector<int>& cpus);

// ---- Set-up ----------------------------------------------------------------

/// Runs `setUp()` kSetupRepeats times and returns the last repeat's state.
/// Every repeat starts from an empty texpr kernel cache (and trace buffer),
/// so each pays the JIT compiles a fresh process would; the first is timed
/// from process start. Appends each repeat's seconds, at reference host
/// speed, to `setupS`.
template <typename SetUp>
auto repeatSetUp(const Options& options, std::vector<double>& setupS,
                 SetUp&& setUp) -> decltype(setUp()) {
  decltype(setUp()) state{};
  for (int r = 0; r < kSetupRepeats; ++r) {
    state = {};  // release the previous repeat's programs and threads first
    tssa::obs::Tracer::instance().clear();
    tssa::texpr::jit::KernelCache::instance().clearForTesting();
    const Clock::time_point start =
        r == 0 ? options.processStart : Clock::now();
    state = setUp();
    const Clock::time_point end = Clock::now();
    SpeedTrack speed;
    for (int i = 0; i < 10; ++i) speed.sample();
    const double rawS = msBetween(start, end) / 1e3;
    const double scaledS = rawS * speed.factor();
    setupS.push_back(scaledS);
    std::printf("set-up %d: %.3f s raw, %.3f s at reference speed\n", r,
                rawS, scaledS);
  }
  return state;
}

// ---- Seeded inputs ---------------------------------------------------------

/// An independent random stream for one purpose (`stream`) of a run's seed.
inline std::mt19937_64 rngFor(std::uint64_t seed, std::uint64_t stream) {
  std::seed_seq seq{seed, stream, std::uint64_t{0x7e5a}};
  return std::mt19937_64(seq);
}

/// Due times (seconds from the schedule start) of `n` arrivals of a Poisson
/// process over [0, seconds), conditioned on its count: sorted uniform times.
/// Fixing the count keeps the offered load identical across seeds.
std::vector<double> poissonArrivals(std::mt19937_64& rng, std::size_t n,
                                    double seconds);

inline Clock::time_point dueTime(Clock::time_point start, double dueS) {
  return start + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(dueS));
}

// ---- Correctness -----------------------------------------------------------

/// True when both output tuples hold the same values bit for bit (tensors:
/// dtype, shape and every element's bytes; scalars: their double bits).
bool bitwiseEqual(const std::vector<tssa::runtime::RtValue>& a,
                  const std::vector<tssa::runtime::RtValue>& b);

// ---- Compiled programs -----------------------------------------------------

struct GraphCounts {
  std::int64_t fusionGroups = 0;
  std::int64_t parallelMaps = 0;
};
/// FusionGroup and ParallelMap nodes anywhere in `graph`, nested blocks too.
GraphCounts countGraph(const tssa::ir::Graph& graph);

/// Sets core.launches (mean per run), core.fusion_groups and
/// core.parallel_maps (summed) for the polymorphic TensorSSA programs a
/// serving engine compiles for `workloads`: each is compiled and run once at
/// batch 1, seqLen 16 on the inputs buildWorkload draws. Called after
/// timing.
void reportServedProgramCounts(const std::vector<std::string>& workloads,
                               std::uint64_t seed, Report& report);

// ---- texpr JIT counters ----------------------------------------------------

using JitStats = tssa::texpr::jit::KernelCache::Stats;

/// Prints a warning when the JIT compiled anything after set-up (warm-up
/// should have compiled every kernel) and returns the count.
std::uint64_t timedJitCompiles(const JitStats& setupEnd);

/// Sets the texpr.* per-layer metrics: compiles in the last set-up (the
/// cache was emptied before it), compiles after set-up, and declines per op
/// and the hit ratio between `before` and `after`.
void reportJitCounters(const JitStats& setupEnd, const JitStats& before,
                       const JitStats& after, double ops, Report& report);

/// getrusage high-water resident set size of this process, in MB.
double peakRssMb();

// ---- Workloads -------------------------------------------------------------

Report runOffline(const Options& options);   ///< vision, sequence
Report runServeOpen(const Options& options);

}  // namespace perfbench
