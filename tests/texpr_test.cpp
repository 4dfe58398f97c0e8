// Tests for the tensor-expression backend: fused bodies evaluated per
// element must agree exactly with node-by-node interpretation.
#include <gtest/gtest.h>

#include <cstring>
#include <set>

#include "src/core/fusion.h"
#include "src/core/lower_inplace.h"
#include "src/core/tensor_ssa.h"
#include "src/ir/builder.h"
#include "src/ir/verifier.h"
#include "src/obs/trace.h"
#include "src/runtime/interpreter.h"
#include "src/runtime/pipeline.h"
#include "src/tensor/ops.h"
#include "src/tensor/random.h"
#include "src/texpr/texpr.h"
#include "src/workloads/workload.h"
#include "tests/property_gen.h"

namespace tssa {
namespace {

using ir::Block;
using ir::Graph;
using ir::IRBuilder;
using ir::Node;
using ir::OpKind;
using ir::Type;
using ir::Value;
using runtime::Interpreter;
using runtime::RtValue;

/// Builds a FusionGroup node wrapping `makeBody`, returns the graph.
template <typename Fn>
std::unique_ptr<Graph> groupGraph(std::size_t numInputs, Fn&& makeBody) {
  auto g = std::make_unique<Graph>();
  std::vector<Value*> ins;
  for (std::size_t i = 0; i < numInputs; ++i)
    ins.push_back(g->addInput(Type::tensor()));
  IRBuilder b(*g);
  Node* group = b.emitNode(OpKind::FusionGroup, ins, 0);
  Block* body = group->addBlock();
  for (Value* in : ins) body->addParam(in->type());
  IRBuilder inner(*g);
  inner.setInsertionPointToEnd(body);
  makeBody(inner, body);
  for (std::size_t i = 0; i < body->numReturns(); ++i)
    group->addOutput(Type::tensor());
  for (std::size_t i = 0; i < group->numOutputs(); ++i)
    g->addOutput(group->output(i));
  ir::verify(*g);
  return g;
}

/// Runs a graph twice — texpr on and off — and expects identical results.
void expectTexprMatchesInterpreter(const Graph& g,
                                   std::vector<RtValue> inputs) {
  Interpreter withTexpr(nullptr, /*useTexpr=*/true);
  Interpreter withoutTexpr(nullptr, /*useTexpr=*/false);
  auto a = withTexpr.run(g, inputs);
  auto b = withoutTexpr.run(g, inputs);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(allClose(a[i].tensor(), b[i].tensor(), 0.0))
        << "output " << i << " texpr vs interpreter:\n"
        << a[i].tensor().toString() << "\nvs\n"
        << b[i].tensor().toString();
  }
}

TEST(TexprTest, ElementwiseChain) {
  auto g = groupGraph(2, [](IRBuilder& b, Block* body) {
    Value* x = b.add(body->param(0), body->param(1));
    body->addReturn(b.relu(b.mul(x, body->param(0))));
  });
  Rng rng(1);
  expectTexprMatchesInterpreter(
      *g, {RtValue(rng.uniform({3, 4}, -2, 2)), RtValue(rng.uniform({3, 4}))});
}

TEST(TexprTest, BroadcastAndDTypePromotion) {
  auto g = groupGraph(2, [](IRBuilder& b, Block* body) {
    Value* x = b.add(body->param(0), body->param(1));  // [2,3,4] + [4]
    Value* m = b.gt(x, body->param(1));                // Bool
    body->addReturn(b.where(m, x, b.neg(x)));
  });
  Rng rng(2);
  expectTexprMatchesInterpreter(
      *g, {RtValue(rng.uniform({2, 3, 4}, -1, 1)),
           RtValue(rng.uniform({4}, -1, 1))});
}

TEST(TexprTest, AccessRules) {
  auto makeAccess = [](IRBuilder& b, Value* base, OpKind rule,
                       std::vector<Value*> dyn,
                       auto&& setAttrs) {
    std::vector<Value*> inputs{base};
    inputs.insert(inputs.end(), dyn.begin(), dyn.end());
    Node* n = b.emitNode(OpKind::Access, std::move(inputs), 1);
    n->attrs().set("view", Scalar(static_cast<std::int64_t>(rule)));
    setAttrs(n->attrs());
    return n->output();
  };
  auto g = groupGraph(2, [&](IRBuilder& b, Block* body) {
    Value* base = body->param(0);
    Value* idx = body->param(1);  // scalar
    Value* sel = makeAccess(b, base, OpKind::Select, {idx},
                            [](ir::AttrMap& a) { a.set("dim", Scalar(0)); });
    Value* tr = makeAccess(b, base, OpKind::Transpose, {},
                           [](ir::AttrMap& a) {
                             a.set("dim0", Scalar(0));
                             a.set("dim1", Scalar(1));
                           });
    Value* rs = makeAccess(b, base, OpKind::Reshape, {},
                           [](ir::AttrMap& a) {
                             a.set("sizes",
                                   std::vector<std::int64_t>{4, 3});
                           });
    body->addReturn(b.relu(sel));
    body->addReturn(b.relu(tr));
    body->addReturn(b.relu(rs));
  });
  // Patch the second graph input to scalar type.
  g->inputs()[1]->setType(Type::integer());
  Rng rng(3);
  expectTexprMatchesInterpreter(
      *g, {RtValue(rng.uniform({3, 4}, -2, 2)), RtValue(Scalar(1))});
}

TEST(TexprTest, AssignSelectAndSliceRegions) {
  auto g = groupGraph(3, [&](IRBuilder& b, Block* body) {
    Value* base = body->param(0);
    Value* src = body->param(1);
    Value* idx = body->param(2);
    Node* a1 = b.emitNode(OpKind::Assign, {base, src, idx}, 1);
    a1->attrs().set("view", Scalar(static_cast<std::int64_t>(OpKind::Select)));
    a1->attrs().set("dim", Scalar(0));
    // Then a strided slice write of constants folded by mul.
    Value* doubled = b.mul(a1->output(), a1->output());
    body->addReturn(doubled);
  });
  g->inputs()[2]->setType(Type::integer());
  Rng rng(4);
  expectTexprMatchesInterpreter(
      *g, {RtValue(rng.uniform({4, 3})), RtValue(rng.uniform({3})),
           RtValue(Scalar(2))});
}

TEST(TexprTest, SupportsGate) {
  // Reduction inside -> unsupported; pure elementwise -> supported.
  auto gRed = groupGraph(1, [](IRBuilder& b, Block* body) {
    body->addReturn(b.softmax(body->param(0), 0));
  });
  auto gEw = groupGraph(1, [](IRBuilder& b, Block* body) {
    body->addReturn(b.sigmoid(body->param(0)));
  });
  const Node* red = (*gRed->topBlock()->begin());
  const Node* ew = (*gEw->topBlock()->begin());
  EXPECT_FALSE(texpr::Kernel::supports(*red->block(0)));
  EXPECT_TRUE(texpr::Kernel::supports(*ew->block(0)));
  // Unsupported bodies still execute correctly via the interpreter path.
  Rng rng(5);
  expectTexprMatchesInterpreter(*gRed, {RtValue(rng.uniform({4}))});
}

TEST(TexprTest, RunStatsReportFlopsAndDonation) {
  auto g = groupGraph(2, [](IRBuilder& b, Block* body) {
    Node* assign = b.emitNode(OpKind::Assign,
                              {body->param(0), body->param(1)}, 1);
    assign->attrs().set("view",
                        Scalar(static_cast<std::int64_t>(OpKind::Identity)));
    assign->attrs().set("inplace", Scalar(true));
    body->addReturn(b.relu(assign->output()));
  });
  const Node* group = (*g->topBlock()->begin());
  texpr::Kernel kernel(*group->block(0));
  Rng rng(6);
  std::vector<RtValue> in{RtValue(rng.uniform({8, 8})),
                          RtValue(rng.uniform({8}))};
  texpr::Kernel::RunStats stats;
  auto out = kernel.run(in, &stats);
  EXPECT_EQ(out.size(), 1u);
  EXPECT_EQ(stats.flops, 64 + 64);  // assign + relu, one per element
  // Donation saves 2*(64-8)*4 bytes of round-trip traffic.
  EXPECT_EQ(stats.savedBytes, 2 * (64 - 8) * 4);
}

// ---- In-place region execution ----------------------------------------------------

/// Emits an immut::assign of `src` into `base` through `rule` (dynamic view
/// operands in `dyn`), marked as a donated (in-place) write.
Value* donatedAssign(IRBuilder& b, Value* base, Value* src, OpKind rule,
                     std::vector<Value*> dyn, std::int64_t dim = 0) {
  std::vector<Value*> inputs{base, src};
  inputs.insert(inputs.end(), dyn.begin(), dyn.end());
  Node* n = b.emitNode(OpKind::Assign, std::move(inputs), 1);
  n->attrs().set("view", Scalar(static_cast<std::int64_t>(rule)));
  if (rule != OpKind::Identity) n->attrs().set("dim", Scalar(dim));
  if (rule == OpKind::Slice) n->attrs().set("step", Scalar(1));
  n->attrs().set("inplace", Scalar(true));
  return n->output();
}

Value* selectAccess(IRBuilder& b, Value* base, Value* idx) {
  Node* n = b.emitNode(OpKind::Access, {base, idx}, 1);
  n->attrs().set("view", Scalar(static_cast<std::int64_t>(OpKind::Select)));
  n->attrs().set("dim", Scalar(0));
  return n->output();
}

std::vector<RtValue> cloned(const std::vector<RtValue>& values) {
  std::vector<RtValue> out;
  for (const RtValue& v : values)
    out.push_back(v.isTensor() ? RtValue(v.tensor().clone()) : v);
  return out;
}

bool sameBytes(const Tensor& a, const Tensor& b) {
  if (a.sizes() != b.sizes() || a.dtype() != b.dtype()) return false;
  const Tensor x = a.clone(), y = b.clone();
  const std::size_t n =
      static_cast<std::size_t>(x.numel()) * dtypeSize(x.dtype());
  return n == 0 || std::memcmp(x.storage()->raw(), y.storage()->raw(), n) == 0;
}

/// Runs `g` per node (texpr off) and through texpr with the JIT off and on,
/// each on fresh copies of `inputs` (in-place writes consume them), and
/// expects bitwise-identical outputs.
void expectInplaceMatchesPerNode(const Graph& g,
                                 const std::vector<RtValue>& inputs) {
  Interpreter perNode(nullptr, /*useTexpr=*/false);
  const auto want = perNode.run(g, cloned(inputs));
  for (bool jit : {false, true}) {
    Interpreter fused(nullptr, /*useTexpr=*/true, /*threads=*/1, jit);
    const auto got = fused.run(g, cloned(inputs));
    ASSERT_EQ(want.size(), got.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_TRUE(sameBytes(want[i].tensor(), got[i].tensor()))
          << "output " << i << " jit=" << jit << "\n"
          << got[i].tensor().toString() << "\nvs per node\n"
          << want[i].tensor().toString();
    }
  }
}

TEST(TexprInplaceTest, WritesOnlyTheRegionIntoTheDonatedStorage) {
  // return assign[select 0, inplace](P, relu(src), idx)
  auto g = groupGraph(3, [](IRBuilder& b, Block* body) {
    body->addReturn(donatedAssign(b, body->param(0), b.relu(body->param(1)),
                                  OpKind::Select, {body->param(2)}));
  });
  g->inputs()[2]->setType(Type::integer());
  const Node* group = (*g->topBlock()->begin());
  Rng rng(7);
  const Tensor src = rng.uniform({5}, -1, 1);
  for (bool jit : {false, true}) {
    texpr::Kernel kernel(*group->block(0), jit);
    Tensor root = Tensor::full({4, 5}, Scalar(7.0));
    std::vector<RtValue> in{RtValue(root), RtValue(src), RtValue(Scalar(-2))};
    texpr::Kernel::RunStats stats;
    const auto out = kernel.run(in, &stats);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_TRUE(out[0].tensor().sharesStorageWith(root)) << "jit=" << jit;
    EXPECT_EQ(out[0].tensor().data<float>(), root.data<float>());
    for (std::int64_t r = 0; r < 4; ++r) {
      for (std::int64_t c = 0; c < 5; ++c) {
        const double want =
            r == 2 ? std::max(src.scalarAt(Shape{c}), 0.0) : 7.0;
        EXPECT_EQ(root.scalarAt(Shape{r, c}), want)
            << "jit=" << jit << " at " << r << "," << c;
      }
    }
    EXPECT_EQ(stats.inplace, 1);
    EXPECT_EQ(stats.elems, 5);  // the row's source, not the 20-element base
  }
  expectInplaceMatchesPerNode(
      *g, {RtValue(Tensor::full({4, 5}, Scalar(7.0))), RtValue(src),
           RtValue(Scalar(1))});
}

TEST(TexprInplaceTest, SourcesReadTheVersionsBeforeAnyWrite) {
  // x = access(P, r); P1 = assign(P, x * 2, row r); a second write into row
  // r2 reads row r of P1 (P1's value, not P's) and an ordinary return
  // reads row r2 of P (the value before the writes).
  auto g = groupGraph(3, [](IRBuilder& b, Block* body) {
    Value* p = body->param(0);
    Value* r = body->param(1);
    Value* r2 = body->param(2);
    Value* before = b.relu(selectAccess(b, p, r2));
    Value* x = selectAccess(b, p, r);
    Value* p1 = donatedAssign(b, p, b.mul(x, x), OpKind::Select, {r});
    Value* y = b.add(selectAccess(b, p1, r), selectAccess(b, p1, r2));
    body->addReturn(donatedAssign(b, p1, y, OpKind::Select, {r2}));
    body->addReturn(before);
  });
  g->inputs()[1]->setType(Type::integer());
  g->inputs()[2]->setType(Type::integer());
  Rng rng(8);
  expectInplaceMatchesPerNode(*g, {RtValue(rng.uniform({5, 6}, -2, 2)),
                                   RtValue(Scalar(1)), RtValue(Scalar(3))});
  // The same row twice: the second write reads the first.
  expectInplaceMatchesPerNode(*g, {RtValue(rng.uniform({5, 6}, -2, 2)),
                                   RtValue(Scalar(4)), RtValue(Scalar(4))});
}

TEST(TexprInplaceTest, PeeledSourceIsCopiedFromTheMaterializedReturn) {
  // The LSTM step shape: h = tanh(x) is returned, and the carried buffer's
  // row r receives assign[identity](access(P, r), h).
  auto g = groupGraph(3, [](IRBuilder& b, Block* body) {
    Value* p = body->param(0);
    Value* r = body->param(2);
    Value* h = b.tanh(body->param(1));
    Value* row = donatedAssign(b, selectAccess(b, p, r), h,
                               OpKind::Identity, {});
    body->addReturn(h);
    body->addReturn(donatedAssign(b, p, row, OpKind::Select, {r}));
  });
  g->inputs()[2]->setType(Type::integer());
  const Node* group = (*g->topBlock()->begin());
  Rng rng(9);
  const std::vector<RtValue> inputs{RtValue(rng.uniform({16, 8})),
                                    RtValue(rng.uniform({8}, -2, 2)),
                                    RtValue(Scalar(5))};
  for (bool jit : {false, true}) {
    texpr::Kernel kernel(*group->block(0), jit);
    texpr::Kernel::RunStats stats;
    auto in = cloned(inputs);
    kernel.run(in, &stats);
    EXPECT_EQ(stats.elems, 8) << "jit=" << jit;  // h only
    EXPECT_EQ(stats.inplace, 1);
  }
  expectInplaceMatchesPerNode(*g, inputs);
}

TEST(TexprInplaceTest, AliasedOrStridedRootsAreMaterialized) {
  // Two in-place returns whose donated operands share one storage, and a
  // transposed operand: every such return falls back to a fresh tensor.
  auto g = groupGraph(4, [](IRBuilder& b, Block* body) {
    Value* r = body->param(3);
    body->addReturn(donatedAssign(b, body->param(0), body->param(2),
                                  OpKind::Select, {r}));
    body->addReturn(donatedAssign(b, body->param(1), b.neg(body->param(2)),
                                  OpKind::Select, {r}));
  });
  g->inputs()[3]->setType(Type::integer());
  const Node* group = (*g->topBlock()->begin());
  Rng rng(10);
  const Tensor row = rng.uniform({3});
  for (bool jit : {false, true}) {
    texpr::Kernel kernel(*group->block(0), jit);
    Tensor shared = Tensor::zeros({3, 3});
    texpr::Kernel::RunStats stats;
    auto out = kernel.run(std::vector<RtValue>{RtValue(shared), RtValue(shared),
                                               RtValue(row), RtValue(Scalar(0))},
                          &stats);
    EXPECT_EQ(stats.inplace, 1) << "jit=" << jit;
    EXPECT_TRUE(out[0].tensor().sharesStorageWith(shared));
    EXPECT_FALSE(out[1].tensor().sharesStorageWith(shared));
    EXPECT_EQ(out[1].tensor().scalarAt(Shape{0, 1}), -row.scalarAt(Shape{1}));
    EXPECT_EQ(out[1].tensor().scalarAt(Shape{1, 1}), 0.0);

    Tensor t = Tensor::zeros({3, 3}).transpose(0, 1);
    stats = {};
    out = kernel.run(std::vector<RtValue>{RtValue(t), RtValue(Tensor::zeros({3, 3})),
                                          RtValue(row), RtValue(Scalar(2))},
                     &stats);
    EXPECT_EQ(stats.inplace, 1);
    EXPECT_FALSE(out[0].tensor().sharesStorageWith(t));
    EXPECT_EQ(t.scalarAt(Shape{2, 0}), 0.0);  // untouched
  }
}

TEST(TexprInplaceTest, LstmStepEvaluatesTheSameElementsAtAnySeqLen) {
  // The in-place step writes one [B, H] row of the [B, T, H] buffer, so the
  // elements one FusionGroup launch evaluates do not grow with T.
  auto elemsPerLaunch = [](std::int64_t seqLen) {
    workloads::WorkloadConfig config;
    config.batch = 2;
    config.seqLen = seqLen;
    workloads::Workload w = workloads::buildWorkload("lstm", config);
    runtime::Pipeline p(runtime::PipelineKind::TensorSsa, *w.graph);
    obs::Tracer& tracer = obs::Tracer::instance();
    tracer.clear();
    tracer.enable();
    p.run(w.inputs);
    tracer.disable();
    std::set<std::string> elems, inplace;
    for (const obs::TraceEvent& e : tracer.snapshot()) {
      if (e.name != "FusionGroup") continue;
      for (const auto& [key, value] : e.args) {
        if (key == "elems") elems.insert(value);
        if (key == "inplace") inplace.insert(value);
      }
    }
    tracer.clear();
    EXPECT_EQ(inplace, (std::set<std::string>{"1"})) << "seqLen " << seqLen;
    EXPECT_EQ(elems.size(), 1u) << "seqLen " << seqLen;
    return elems;
  };
  EXPECT_EQ(elemsPerLaunch(16), elemsPerLaunch(128));
}

TEST(TexprTest, FusedBoolArithmeticMatchesEagerBitwise) {
  auto add = groupGraph(2, [](IRBuilder& b, Block* body) {
    body->addReturn(b.add(body->param(0), body->param(1)));
    body->addReturn(b.mul(body->param(0), body->param(1)));
  });
  const bool av[] = {false, false, true, true};
  const bool bv[] = {false, true, false, true};
  const std::vector<RtValue> inputs{
      RtValue(Tensor::fromData(std::span<const bool>(av), {4})),
      RtValue(Tensor::fromData(std::span<const bool>(bv), {4}))};
  expectInplaceMatchesPerNode(*add, inputs);
  Interpreter fused(nullptr, /*useTexpr=*/true);
  const auto out = fused.run(*add, inputs);
  EXPECT_TRUE(sameBytes(out[0].tensor(),
                        ops::logicalOr(inputs[0].tensor(), inputs[1].tensor())));
  // Bool - Bool raises the same typed error fused and per node.
  auto sub = groupGraph(2, [](IRBuilder& b, Block* body) {
    body->addReturn(b.sub(body->param(0), body->param(1)));
  });
  EXPECT_THROW(fused.run(*sub, inputs), Error);
  Interpreter perNode(nullptr, /*useTexpr=*/false);
  EXPECT_THROW(perNode.run(*sub, inputs), Error);
}

// Randomized: full pipelines already cross-check texpr numerics; this adds a
// focused texpr-on/off sweep over random programs compiled with TensorSSA.
class TexprRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(TexprRandomTest, TexprMatchesInterpretedFusion) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 31337 + 5);
  Graph g;
  testing_support::ProgramGenerator gen(g, rng);
  auto inputs = gen.generate(8);
  core::lowerInplaceOps(g);
  core::convertToTensorSSA(g);
  core::readonlyViewsToAccess(g, core::FusionPolicy::tensorssa());
  core::hoistConstants(g);
  core::fuseKernels(g, core::FusionPolicy::tensorssa());
  ir::verify(g);
  expectTexprMatchesInterpreter(g, inputs);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TexprRandomTest, ::testing::Range(0, 10));

}  // namespace
}  // namespace tssa
