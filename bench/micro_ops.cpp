// Micro-benchmarks: tensor-library primitives, interpreter dispatch, the
// analytic device model's per-op pricing (sanity anchors for the figures),
// fused-region execution — texpr JIT native code vs the tree-walking
// interpreter on identical bodies — and the reference kernels at workload
// shapes (records feed the CI perf gate).
#include <benchmark/benchmark.h>

#include <chrono>
#include <functional>

#include "bench/bench_common.h"
#include "src/ir/builder.h"
#include "src/tensor/ops.h"
#include "src/tensor/random.h"
#include "src/texpr/texpr.h"

namespace {

using namespace tssa;

void BM_TensorAdd(benchmark::State& state) {
  Rng rng(1);
  Tensor a = rng.uniform({state.range(0)});
  Tensor b = rng.uniform({state.range(0)});
  for (auto _ : state) {
    Tensor c = ops::add(a, b);
    benchmark::DoNotOptimize(c);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TensorAdd)->Arg(1024)->Arg(65536);

void BM_TensorSigmoid(benchmark::State& state) {
  Rng rng(2);
  Tensor a = rng.uniform({state.range(0)});
  for (auto _ : state) {
    Tensor c = ops::sigmoid(a);
    benchmark::DoNotOptimize(c);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TensorSigmoid)->Arg(1024)->Arg(65536);

void BM_TensorMatmul(benchmark::State& state) {
  Rng rng(3);
  const std::int64_t n = state.range(0);
  Tensor a = rng.uniform({n, n});
  Tensor b = rng.uniform({n, n});
  for (auto _ : state) {
    Tensor c = ops::matmul(a, b);
    benchmark::DoNotOptimize(c);
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_TensorMatmul)->Arg(32)->Arg(128);

void BM_ViewSelectCopy(benchmark::State& state) {
  Rng rng(4);
  Tensor a = rng.uniform({64, 256});
  Tensor src = rng.uniform({256});
  for (auto _ : state) {
    a.select(0, 7).copy_(src);
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_ViewSelectCopy);

// Transposed (non-contiguous) operands exercise the typed strided loop of
// binaryOp/where/copy_ — before that fallback existed every element went
// through the double-boxing scalarAt/setScalarAt path. Compare against
// BM_TensorAdd at the same element count for the contiguous fast path.
void BM_TensorAddTransposed(benchmark::State& state) {
  Rng rng(6);
  const std::int64_t n = state.range(0);
  Tensor a = rng.uniform({n, n}).transpose(0, 1);
  Tensor b = rng.uniform({n, n});
  for (auto _ : state) {
    Tensor c = ops::add(a, b);
    benchmark::DoNotOptimize(c);
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_TensorAddTransposed)->Arg(32)->Arg(256);

void BM_WhereTransposed(benchmark::State& state) {
  Rng rng(7);
  const std::int64_t n = state.range(0);
  Tensor cond =
      ops::gt(rng.uniform({n, n}), Tensor::full({}, Scalar(0.5)));
  Tensor a = rng.uniform({n, n}).transpose(0, 1);
  Tensor b = rng.uniform({n, n});
  for (auto _ : state) {
    Tensor c = ops::where(cond, a, b);
    benchmark::DoNotOptimize(c);
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_WhereTransposed)->Arg(256);

void BM_CopyTransposed(benchmark::State& state) {
  Rng rng(8);
  const std::int64_t n = state.range(0);
  Tensor dst = Tensor::zeros({n, n});
  Tensor src = rng.uniform({n, n}).transpose(0, 1);
  for (auto _ : state) {
    dst.copy_(src);
    benchmark::DoNotOptimize(dst);
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_CopyTransposed)->Arg(256);

void BM_StridedSliceFill(benchmark::State& state) {
  Tensor a = Tensor::zeros({1 << 16});
  for (auto _ : state) {
    a.slice(0, 1, 1 << 16, 2).fill_(Scalar(1.0));
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_StridedSliceFill);

void BM_Softmax(benchmark::State& state) {
  Rng rng(5);
  Tensor a = rng.uniform({64, 256});
  for (auto _ : state) {
    Tensor s = ops::softmax(a, 1);
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_Softmax);

void BM_InterpreterDispatch(benchmark::State& state) {
  // A tiny pure graph: measures per-node interpreter overhead.
  ir::Graph g;
  ir::Value* a = g.addInput(ir::Type::tensor(), "a");
  ir::IRBuilder b(g);
  ir::Value* v = a;
  for (int i = 0; i < 16; ++i) v = b.relu(v);
  g.addOutput(v);
  runtime::Interpreter interp;
  std::vector<runtime::RtValue> in{runtime::RtValue(Tensor::ones({8}))};
  for (auto _ : state) {
    auto out = interp.run(g, in);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * 16);
}
BENCHMARK(BM_InterpreterDispatch);

// ---- Fused-region: texpr JIT vs interpreter --------------------------------

/// `sigmoid(p0 * p1 + p2) * relu(p0 - p2)` — a pure elementwise chain; all
/// inputs contiguous and shape-equal, so the JIT's linear fast loop runs.
ir::Block* buildEwiseBody(ir::Graph& g) {
  ir::Value* in0 = g.addInput(ir::Type::tensor());
  ir::Value* in1 = g.addInput(ir::Type::tensor());
  ir::Value* in2 = g.addInput(ir::Type::tensor());
  ir::IRBuilder b(g);
  ir::Node* group = b.emitNode(ir::OpKind::FusionGroup, {in0, in1, in2}, 0);
  ir::Block* body = group->addBlock();
  ir::Value* p0 = body->addParam(in0->type());
  ir::Value* p1 = body->addParam(in1->type());
  ir::Value* p2 = body->addParam(in2->type());
  ir::IRBuilder inner(g);
  inner.setInsertionPointToEnd(body);
  ir::Value* s = inner.sigmoid(inner.add(inner.mul(p0, p1), p2));
  body->addReturn(inner.mul(s, inner.relu(inner.sub(p0, p2))));
  group->addOutput(ir::Type::tensor());
  g.addOutput(group->output(0));
  return body;
}

/// `relu(transpose(p0) + p1) * p1` with an Access view — exercises the
/// generic coordinate-walking loop of the generated code.
ir::Block* buildViewBody(ir::Graph& g) {
  ir::Value* in0 = g.addInput(ir::Type::tensor());
  ir::Value* in1 = g.addInput(ir::Type::tensor());
  ir::IRBuilder b(g);
  ir::Node* group = b.emitNode(ir::OpKind::FusionGroup, {in0, in1}, 0);
  ir::Block* body = group->addBlock();
  ir::Value* p0 = body->addParam(in0->type());
  ir::Value* p1 = body->addParam(in1->type());
  ir::IRBuilder inner(g);
  inner.setInsertionPointToEnd(body);
  ir::Node* tr = inner.emitNode(ir::OpKind::Access, {p0}, 1);
  tr->attrs().set("view",
                  Scalar(static_cast<std::int64_t>(ir::OpKind::Transpose)));
  tr->attrs().set("dim0", Scalar(0));
  tr->attrs().set("dim1", Scalar(1));
  body->addReturn(
      inner.mul(inner.relu(inner.add(tr->output(), p1)), p1));
  group->addOutput(ir::Type::tensor());
  g.addOutput(group->output(0));
  return body;
}

/// Best-of-`reps` mean ns per kernel run over `iters` runs.
double fusedNsPerIter(const texpr::Kernel& kernel,
                      const std::vector<runtime::RtValue>& inputs, int iters,
                      int reps) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) {
      auto out = kernel.run(inputs, nullptr, 1);
      benchmark::DoNotOptimize(out);
    }
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best,
                    std::chrono::duration<double, std::nano>(t1 - t0).count() /
                        iters);
  }
  return best;
}

void runFusedRegionBench(const bench::BenchFlags& flags,
                         bench::BenchReport& report) {
  struct Case {
    const char* name;
    ir::Block* (*build)(ir::Graph&);
    std::size_t numInputs;
  };
  const Case cases[] = {{"ewise", buildEwiseBody, 3},
                        {"views", buildViewBody, 2}};
  std::printf("\n=== Fused-region ns/iter: texpr JIT vs interpreter ===\n");
  for (const Case& c : cases) {
    ir::Graph g;
    ir::Block* body = c.build(g);
    Rng rng(42);
    std::vector<runtime::RtValue> inputs;
    for (std::size_t i = 0; i < c.numInputs; ++i)
      inputs.emplace_back(rng.uniform({256, 256}, -1, 1));

    texpr::Kernel jit(*body, /*allowJit=*/true);
    texpr::Kernel interp(*body, /*allowJit=*/false);
    // Warm up: first JIT run pays the external compile; outputs must agree
    // bitwise or the comparison is meaningless.
    const auto a = jit.run(inputs, nullptr, 1);
    const auto b = interp.run(inputs, nullptr, 1);
    if (!bench::outputsBitwiseEqual(a, b)) {
      std::fprintf(stderr, "fused_region/%s: JIT and interpreter disagree\n",
                   c.name);
      std::exit(1);
    }

    const double jitNs = fusedNsPerIter(jit, inputs, 40, flags.reps);
    const double interpNs = fusedNsPerIter(interp, inputs, 3, flags.reps);
    const double speedup = interpNs / jitNs;
    std::printf("  %-8s jit=%10.0f ns  interp=%12.0f ns  speedup=%6.1fx\n",
                c.name, jitNs, interpNs, speedup);

    bench::BenchRecord jitRecord;
    jitRecord.name = std::string("fused_region/") + c.name + "/jit";
    jitRecord.workload = "micro";
    jitRecord.pipeline = "texpr_jit";
    jitRecord.nsPerIter = jitNs;
    jitRecord.timeGated = true;
    jitRecord.extra.emplace_back("speedup_vs_interp", speedup);
    report.add(std::move(jitRecord));

    bench::BenchRecord interpRecord;
    interpRecord.name = std::string("fused_region/") + c.name + "/interp";
    interpRecord.workload = "micro";
    interpRecord.pipeline = "texpr_interp";
    interpRecord.nsPerIter = interpNs;
    interpRecord.timeGated = false;  // tracked for the ratio, not gated
    report.add(std::move(interpRecord));
  }
}

// ---- Reference kernels at workload shapes ------------------------------------

/// Best-of-`reps` mean ns per call of `op` over `iters` calls.
double opNsPerIter(const std::function<Tensor()>& op, int iters, int reps) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) {
      Tensor out = op();
      benchmark::DoNotOptimize(out);
    }
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best,
                    std::chrono::duration<double, std::nano>(t1 - t0).count() /
                        iters);
  }
  return best;
}

/// The reference tensor ops the sequence and vision programs spend their
/// unfused time in, at the programs' shapes: seq2seq's softmax broadcast and
/// vocabulary projection, ssd's class softmax and score sort.
void runTensorOpBench(const bench::BenchFlags& flags,
                      bench::BenchReport& report) {
  Rng rng(9);
  const Tensor logits = rng.normal({8, 12288});
  const Tensor rowMax = ops::maxReduce(logits, 1, /*keepDim=*/true);
  const Tensor conf = rng.normal({8, 6144, 21});
  const Tensor hidden = rng.normal({8, 32});
  const Tensor vocab = rng.normal({32, 12288});
  const Tensor scores = rng.normal({8, 6144});
  struct Case {
    const char* name;
    std::function<Tensor()> op;
    int iters;
  };
  const Case cases[] = {
      {"sub_8x12288_bcast_8x1", [&] { return ops::sub(logits, rowMax); }, 50},
      {"softmax_8x6144x21_dim2", [&] { return ops::softmax(conf, 2); }, 3},
      {"matmul_8x32_32x12288", [&] { return ops::matmul(hidden, vocab); }, 10},
      {"argsort_8x6144", [&] { return ops::argsort(scores, true); }, 3},
  };
  std::printf("\n=== Reference kernels at workload shapes (ns/call) ===\n");
  for (const Case& c : cases) {
    const double ns = opNsPerIter(c.op, c.iters, flags.reps);
    std::printf("  %-24s %12.0f ns\n", c.name, ns);
    bench::BenchRecord record;
    record.name = std::string("tensor_op/") + c.name;
    record.workload = "micro";
    record.pipeline = "reference";
    record.nsPerIter = ns;
    record.timeGated = true;
    report.add(std::move(record));
  }
}

void printDeviceModelAnchors() {
  std::printf("\n=== Device-model anchors (per-kernel cost in us) ===\n");
  for (const auto& device : {runtime::DeviceSpec::consumer(),
                             runtime::DeviceSpec::dataCenter()}) {
    std::printf("%-18s launch=%.1fus", device.name.c_str(),
                device.launchOverheadUs);
    std::printf("  1MB-memcpy=%.2fus", device.kernelTimeUs(1 << 20, 0));
    std::printf("  1GFLOP=%.1fus\n", device.kernelTimeUs(0, 1'000'000'000));
  }
}

}  // namespace

int main(int argc, char** argv) {
  const tssa::bench::BenchFlags flags = tssa::bench::BenchFlags::parse(argc, argv);
  tssa::bench::BenchReport report("micro_ops", flags);
  printDeviceModelAnchors();
  runFusedRegionBench(flags, report);
  runTensorOpBench(flags, report);
  report.finish();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
