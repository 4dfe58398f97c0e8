#include "perfbench/src/common.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "src/runtime/pipeline.h"
#include "src/runtime/thread_pool.h"
#include "src/workloads/workload.h"

namespace perfbench {

using tssa::DType;
using tssa::Tensor;
using tssa::runtime::RtValue;

double median(std::vector<double> v) { return quartiles(std::move(v)).median; }

Quartiles quartiles(std::vector<double> v) {
  if (v.empty()) return {};
  std::sort(v.begin(), v.end());
  auto at = [&](double q) {
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
  };
  return {at(0.25), at(0.5), at(0.75)};
}

Tail tail(std::vector<double> v, double cap) {
  Tail t;
  t.n = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n < 11) {
    t.value = v.back();
    return t;
  }
  // Index n - 11 leaves exactly ten samples beyond it; the cap (nearest
  // rank, index ceil(cap n) - 1) applies once there are enough samples, and
  // the median is the floor while there are few.
  auto rank = [n](double q) {
    return static_cast<std::size_t>(std::ceil(q * static_cast<double>(n))) - 1;
  };
  const std::size_t idx = std::max(std::min(n - 11, rank(cap)), rank(0.5));
  t.value = v[idx];
  t.percentile =
      100.0 * static_cast<double>(idx + 1) / static_cast<double>(n);
  return t;
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double logSum = 0;
  for (double x : v) logSum += std::log(x);
  return std::exp(logSum / static_cast<double>(v.size()));
}

std::string distributionShape(std::vector<double> v) {
  if (v.size() < 5) return "few-samples";
  std::sort(v.begin(), v.end());
  const double med = median(v);
  const std::size_t minSide = v.size() / 5;
  for (std::size_t i = minSide; i + minSide < v.size(); ++i)
    if (i > 0 && v[i] - v[i - 1] > 0.25 * med) return "bimodal";
  const Quartiles q = quartiles(v);
  return q.q3 - q.q1 > 0.2 * med ? "wide" : "steady";
}

double referenceLoopMs() {
  // Static state keeps the work observable; callers use one thread. Every
  // value stays bounded: no overflow, no denormals.
  constexpr int kStreamPasses = 3;
  constexpr int kMatmuls = 6;
  constexpr std::size_t n = 112;
  static std::vector<float> x(std::size_t{1} << 20, 1.0f);
  static std::vector<float> y(std::size_t{1} << 20, 0.5f);
  static std::vector<float> a(n * n, 0.5f), b(n * n, 0.25f), c(n * n);
  const auto start = Clock::now();
  for (int pass = 0; pass < kStreamPasses; ++pass)
    for (std::size_t i = 0; i < x.size(); ++i) x[i] = x[i] * 0.5f + y[i];
  for (int rep = 0; rep < kMatmuls; ++rep) {
    std::fill(c.begin(), c.end(), 0.0f);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t k = 0; k < n; ++k) {
        const float aik = a[i * n + k];
        for (std::size_t j = 0; j < n; ++j) c[i * n + j] += aik * b[k * n + j];
      }
    a[rep] = c[rep] * 0.01f;
  }
  return msBetween(start, Clock::now());
}

namespace {

double speedFactor(std::vector<double> samplesMs) {
  return kReferenceLoopMs / median(std::move(samplesMs));
}

}  // namespace

void SpeedTrack::sample() {
  const Clock::time_point t = Clock::now();
  samples_.emplace_back(t, referenceLoopMs());
}

double SpeedTrack::factorAt(Clock::time_point t) const {
  std::vector<double> near;
  for (const auto& [at, ms] : samples_)
    if (at > t - std::chrono::seconds(1) && at < t + std::chrono::seconds(1))
      near.push_back(ms);
  return near.size() >= 5 ? speedFactor(near) : factor();
}

double SpeedTrack::factor() const {
  std::vector<double> all;
  for (const auto& sample : samples_) all.push_back(sample.second);
  return speedFactor(all);
}

std::vector<int> allowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0)
    throw std::runtime_error("sched_getaffinity failed");
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  return cpus;
}

void pinThread(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus) CPU_SET(cpu, &set);
  if (sched_setaffinity(0, sizeof set, &set) != 0)
    throw std::runtime_error("sched_setaffinity failed");
}

void startPinnedPoolWorkers(const std::vector<int>& cpus) {
  tssa::runtime::ThreadPool& pool = tssa::runtime::ThreadPool::shared();
  if (pool.workerCount() != 0)
    throw std::runtime_error("the thread pool already has workers");
  for (std::size_t k = 0; k < cpus.size(); ++k) {
    pinThread({cpus[k]});
    pool.submit([] {}, static_cast<int>(k + 1));  // starts worker k here
  }
}

std::vector<double> poissonArrivals(std::mt19937_64& rng, std::size_t n,
                                    double seconds) {
  std::uniform_real_distribution<double> dist(0.0, seconds);
  std::vector<double> due(n);
  for (double& t : due) t = dist(rng);
  std::sort(due.begin(), due.end());
  return due;
}

namespace {

bool tensorsEqual(const Tensor& x, const Tensor& y) {
  if (x.dtype() != y.dtype() || x.sizes() != y.sizes()) return false;
  const Tensor a = x.contiguous();
  const Tensor b = y.contiguous();
  const auto n = static_cast<std::size_t>(a.numel());
  switch (a.dtype()) {
    case DType::Float32:
      return std::memcmp(a.data<float>(), b.data<float>(),
                         n * sizeof(float)) == 0;
    case DType::Int64:
      return std::memcmp(a.data<std::int64_t>(), b.data<std::int64_t>(),
                         n * sizeof(std::int64_t)) == 0;
    case DType::Bool:
      return std::memcmp(a.data<bool>(), b.data<bool>(), n * sizeof(bool)) ==
             0;
  }
  return false;
}

bool valuesEqual(const RtValue& a, const RtValue& b) {
  if (a.isTensor() != b.isTensor() || a.isList() != b.isList()) return false;
  if (a.isTensor()) return tensorsEqual(a.tensor(), b.tensor());
  if (a.isList()) {
    if (a.list().size() != b.list().size()) return false;
    for (std::size_t i = 0; i < a.list().size(); ++i)
      if (!tensorsEqual(a.list()[i], b.list()[i])) return false;
    return true;
  }
  const double x = a.toDouble();
  const double y = b.toDouble();
  return a.scalar().dtype() == b.scalar().dtype() &&
         std::memcmp(&x, &y, sizeof x) == 0;
}

}  // namespace

bool bitwiseEqual(const std::vector<RtValue>& a,
                  const std::vector<RtValue>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!valuesEqual(a[i], b[i])) return false;
  return true;
}

GraphCounts countGraph(const tssa::ir::Graph& graph) {
  GraphCounts c;
  std::vector<const tssa::ir::Block*> stack{graph.topBlock()};
  while (!stack.empty()) {
    const tssa::ir::Block* b = stack.back();
    stack.pop_back();
    for (const tssa::ir::Node* node : *b) {
      c.fusionGroups += node->kind() == tssa::ir::OpKind::FusionGroup;
      c.parallelMaps += node->kind() == tssa::ir::OpKind::ParallelMap;
      for (const tssa::ir::Block* inner : node->blocks())
        stack.push_back(inner);
    }
  }
  return c;
}

void reportServedProgramCounts(const std::vector<std::string>& workloads,
                               std::uint64_t seed, Report& report) {
  using tssa::runtime::Pipeline;
  double launches = 0, groups = 0, maps = 0;
  for (const std::string& name : workloads) {
    tssa::workloads::WorkloadConfig config;
    config.batch = 1;
    config.seqLen = 16;
    config.seed = seed;
    config.symbolicDims = true;
    const tssa::workloads::Workload w =
        tssa::workloads::buildWorkload(name, config);
    Pipeline p(tssa::runtime::PipelineKind::TensorSsa, *w.graph,
               tssa::runtime::PipelineOptions{});
    p.run(w.inputs);
    launches += static_cast<double>(p.profiler().kernelLaunches());
    const GraphCounts c = countGraph(p.compiled());
    groups += static_cast<double>(c.fusionGroups);
    maps += static_cast<double>(c.parallelMaps);
  }
  report.set("core.launches", launches / static_cast<double>(workloads.size()));
  report.set("core.fusion_groups", groups);
  report.set("core.parallel_maps", maps);
}

std::uint64_t timedJitCompiles(const JitStats& setupEnd) {
  const JitStats now = tssa::texpr::jit::KernelCache::instance().stats();
  const std::uint64_t compiles = now.misses - setupEnd.misses;
  if (compiles != 0)
    std::printf("WARNING: %llu JIT compiles after set-up\n",
                static_cast<unsigned long long>(compiles));
  return compiles;
}

void reportJitCounters(const JitStats& setupEnd, const JitStats& before,
                       const JitStats& after, double ops, Report& report) {
  const double hits = static_cast<double>(after.hits - before.hits);
  const double declines = static_cast<double>(after.declines - before.declines);
  report.set("texpr.jit_compiles", static_cast<double>(setupEnd.misses));
  report.set("texpr.jit_compiles_timed",
             static_cast<double>(timedJitCompiles(setupEnd)));
  report.set("texpr.jit_declines", declines / ops);
  report.set("texpr.jit_hit_ratio", hits / std::max(1.0, hits + declines));
}

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
