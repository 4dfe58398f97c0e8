// Unit tests for the out-of-place operator library.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "src/tensor/ops.h"
#include "src/tensor/random.h"

namespace tssa {
namespace {

TEST(OpsTest, AddBroadcast) {
  Tensor a = Tensor::fromData({1, 2, 3, 4, 5, 6}, {2, 3});
  Tensor b = Tensor::fromData({10, 20, 30}, {3});
  Tensor c = ops::add(a, b);
  EXPECT_EQ(c.sizes(), (Shape{2, 3}));
  EXPECT_EQ(c.scalarAt(Shape{1, 2}), 36.0);
  Tensor d = ops::add(a, Scalar(1.0));
  EXPECT_EQ(d.scalarAtLinear(0), 2.0);
}

TEST(OpsTest, ArithOnViews) {
  Tensor a = Tensor::fromData({1, 2, 3, 4}, {2, 2});
  Tensor t = a.transpose(0, 1);  // non-contiguous operand
  Tensor c = ops::mul(t, t);
  EXPECT_EQ(c.scalarAt(Shape{0, 1}), 9.0);
  EXPECT_EQ(c.scalarAt(Shape{1, 0}), 4.0);
}

TEST(OpsTest, IntPromotion) {
  Tensor a = Tensor::arange(3);  // Int64
  Tensor b = Tensor::fromData({0.5f, 0.5f, 0.5f}, {3});
  Tensor c = ops::add(a, b);
  EXPECT_EQ(c.dtype(), DType::Float32);
  EXPECT_FLOAT_EQ(static_cast<float>(c.scalarAtLinear(2)), 2.5f);
  Tensor d = ops::div(a, Scalar(2));
  EXPECT_EQ(d.dtype(), DType::Float32);
}

TEST(OpsTest, UnaryMath) {
  Tensor a = Tensor::fromData({-1, 0, 1}, {3});
  EXPECT_EQ(ops::relu(a).scalarAtLinear(0), 0.0);
  EXPECT_EQ(ops::neg(a).scalarAtLinear(2), -1.0);
  EXPECT_NEAR(ops::sigmoid(a).scalarAtLinear(1), 0.5, 1e-6);
  EXPECT_NEAR(ops::tanh(a).scalarAtLinear(2), std::tanh(1.0), 1e-6);
  EXPECT_NEAR(ops::exp(a).scalarAtLinear(2), std::exp(1.0), 1e-6);
  EXPECT_EQ(ops::abs(a).scalarAtLinear(0), 1.0);
  EXPECT_EQ(ops::clamp(a, Scalar(-0.5), Scalar(0.5)).scalarAtLinear(0), -0.5);
}

TEST(OpsTest, Comparisons) {
  Tensor a = Tensor::fromData({1, 2, 3}, {3});
  Tensor b = Tensor::fromData({3, 2, 1}, {3});
  Tensor lt = ops::lt(a, b);
  EXPECT_EQ(lt.dtype(), DType::Bool);
  EXPECT_EQ(lt.scalarAtLinear(0), 1);
  EXPECT_EQ(lt.scalarAtLinear(1), 0);
  EXPECT_EQ(ops::ge(a, b).scalarAtLinear(1), 1);
  EXPECT_EQ(ops::logicalNot(lt).scalarAtLinear(0), 0);
}

TEST(OpsTest, WhereAndMaskedFill) {
  Tensor cond = Tensor::fromData({1, 0, 1}, {3}).to(DType::Bool);
  Tensor a = Tensor::fromData({10, 20, 30}, {3});
  Tensor b = Tensor::fromData({-1, -2, -3}, {3});
  Tensor w = ops::where(cond, a, b);
  EXPECT_EQ(w.scalarAtLinear(0), 10.0);
  EXPECT_EQ(w.scalarAtLinear(1), -2.0);
  Tensor mf = ops::maskedFill(a, cond, Scalar(0.0));
  EXPECT_EQ(mf.scalarAtLinear(0), 0.0);
  EXPECT_EQ(mf.scalarAtLinear(1), 20.0);
}

TEST(OpsTest, Reductions) {
  Tensor a = Tensor::fromData({1, 2, 3, 4, 5, 6}, {2, 3});
  EXPECT_EQ(ops::sum(a).item().toDouble(), 21.0);
  Tensor s0 = ops::sum(a, 0);
  EXPECT_EQ(s0.sizes(), (Shape{3}));
  EXPECT_EQ(s0.scalarAtLinear(0), 5.0);
  Tensor s1k = ops::sum(a, 1, /*keepDim=*/true);
  EXPECT_EQ(s1k.sizes(), (Shape{2, 1}));
  EXPECT_EQ(s1k.scalarAtLinear(1), 15.0);
  EXPECT_EQ(ops::maxReduce(a, 1).scalarAtLinear(0), 3.0);
  EXPECT_EQ(ops::minReduce(a, 0).scalarAtLinear(2), 3.0);
  EXPECT_EQ(ops::mean(a, 1).scalarAtLinear(0), 2.0);
  Tensor am = ops::argmax(a, 1);
  EXPECT_EQ(am.dtype(), DType::Int64);
  EXPECT_EQ(am.scalarAtLinear(0), 2);
}

TEST(OpsTest, SoftmaxRowsSumToOne) {
  Rng rng(7);
  Tensor a = rng.uniform({4, 9}, -5, 5);
  Tensor s = ops::softmax(a, 1);
  Tensor rows = ops::sum(s, 1);
  for (std::int64_t i = 0; i < 4; ++i)
    EXPECT_NEAR(rows.scalarAtLinear(i), 1.0, 1e-5);
  // Stability: huge logits must not produce NaN.
  Tensor big = Tensor::full({2, 2}, Scalar(1e30f));
  Tensor sb = ops::softmax(big, 1);
  EXPECT_NEAR(sb.scalarAtLinear(0), 0.5, 1e-5);
}

TEST(OpsTest, MatmulSmall) {
  Tensor a = Tensor::fromData({1, 2, 3, 4}, {2, 2});
  Tensor b = Tensor::fromData({5, 6, 7, 8}, {2, 2});
  Tensor c = ops::matmul(a, b);
  EXPECT_EQ(c.scalarAt(Shape{0, 0}), 19.0);
  EXPECT_EQ(c.scalarAt(Shape{0, 1}), 22.0);
  EXPECT_EQ(c.scalarAt(Shape{1, 0}), 43.0);
  EXPECT_EQ(c.scalarAt(Shape{1, 1}), 50.0);
  EXPECT_THROW(ops::matmul(a, Tensor::zeros({3, 2})), Error);
}

TEST(OpsTest, BmmMatchesPerBatchMatmul) {
  Rng rng(3);
  Tensor a = rng.uniform({2, 3, 4});
  Tensor b = rng.uniform({2, 4, 5});
  Tensor c = ops::bmm(a, b);
  EXPECT_EQ(c.sizes(), (Shape{2, 3, 5}));
  Tensor c0 = ops::matmul(a.select(0, 0), b.select(0, 0));
  EXPECT_TRUE(allClose(c.select(0, 0), c0));
}

TEST(OpsTest, CatAndStack) {
  Tensor a = Tensor::fromData({1, 2}, {1, 2});
  Tensor b = Tensor::fromData({3, 4, 5, 6}, {2, 2});
  std::vector<Tensor> parts{a, b};
  Tensor c = ops::cat(parts, 0);
  EXPECT_EQ(c.sizes(), (Shape{3, 2}));
  EXPECT_EQ(c.scalarAt(Shape{2, 1}), 6.0);

  std::vector<Tensor> rows{Tensor::fromData({1, 2}, {2}),
                           Tensor::fromData({3, 4}, {2})};
  Tensor s = ops::stack(rows, 0);
  EXPECT_EQ(s.sizes(), (Shape{2, 2}));
  Tensor s1 = ops::stack(rows, 1);
  EXPECT_EQ(s1.sizes(), (Shape{2, 2}));
  EXPECT_EQ(s1.scalarAt(Shape{0, 1}), 3.0);
}

TEST(OpsTest, IndexSelectAndGather) {
  Tensor a = Tensor::fromData({10, 11, 20, 21, 30, 31}, {3, 2});
  Tensor idx = Tensor::fromData(std::vector<std::int64_t>{2, 0}, {2});
  Tensor sel = ops::indexSelect(a, 0, idx);
  EXPECT_EQ(sel.sizes(), (Shape{2, 2}));
  EXPECT_EQ(sel.scalarAt(Shape{0, 0}), 30.0);
  EXPECT_EQ(sel.scalarAt(Shape{1, 1}), 11.0);

  Tensor gidx = Tensor::fromData(std::vector<std::int64_t>{1, 0, 0, 1, 2, 2},
                                 {3, 2});
  Tensor g = ops::gather(a, 0, gidx);
  EXPECT_EQ(g.scalarAt(Shape{0, 0}), 20.0);
  EXPECT_EQ(g.scalarAt(Shape{2, 1}), 31.0);
}

TEST(OpsTest, GatherRejectsIndexOutOfRange) {
  // Every index value must lie in [0, size(dim)); negative values are not
  // wrapped.
  Tensor a = Tensor::fromData({1, 2, 3, 4, 5, 6}, {2, 3});
  for (std::int64_t bad : {std::int64_t{7}, std::int64_t{3},
                           std::int64_t{-5}, std::int64_t{-1}}) {
    SCOPED_TRACE(bad);
    Tensor idx = Tensor::fromData(std::vector<std::int64_t>{0, bad, 2, 1},
                                  {2, 2});
    EXPECT_THROW(ops::gather(a, 1, idx), Error);
  }
  Tensor ok = Tensor::fromData(std::vector<std::int64_t>{0, 2, 2, 1}, {2, 2});
  Tensor g = ops::gather(a, 1, ok);
  EXPECT_EQ(g.scalarAt(Shape{0, 1}), 3.0);
  EXPECT_EQ(g.scalarAt(Shape{1, 1}), 5.0);
}

TEST(OpsTest, GatherRejectsIndexLargerThanInputOffTheGatheredDim) {
  // index.size(d) may exceed a.size(d) only along the gathered dim.
  Tensor a = Tensor::fromData({1, 2, 3, 4, 5, 6}, {2, 3});
  Tensor tall = Tensor::zeros({3, 2}, DType::Int64);
  EXPECT_THROW(ops::gather(a, 1, tall), Error);
  Tensor wide = Tensor::zeros({2, 5}, DType::Int64);
  EXPECT_EQ(ops::gather(a, 1, wide).sizes(), (Shape{2, 5}));
}

TEST(OpsTest, TopkArgsortCumsum) {
  Tensor a = Tensor::fromData({3, 1, 4, 1, 5}, {5});
  auto [values, indices] = ops::topk(a, 3);
  EXPECT_EQ(values.scalarAtLinear(0), 5.0);
  EXPECT_EQ(indices.scalarAtLinear(0), 4);
  EXPECT_EQ(values.scalarAtLinear(2), 3.0);

  Tensor order = ops::argsort(a, /*descending=*/true);
  EXPECT_EQ(order.scalarAtLinear(0), 4);
  EXPECT_EQ(order.scalarAtLinear(1), 2);

  Tensor cs = ops::cumsum(a, 0);
  EXPECT_EQ(cs.scalarAtLinear(4), 14.0);
}

/// The stored bytes of a contiguous Bool tensor.
std::vector<int> boolBytes(const Tensor& t) {
  const std::uint8_t* p = t.data<std::uint8_t>();
  return std::vector<int>(p, p + t.numel());
}

TEST(OpsTest, BoolArithmeticStoresZeroOrOne) {
  const bool av[] = {false, false, true, true};
  const bool bv[] = {false, true, false, true};
  Tensor a = Tensor::fromData(std::span<const bool>(av), {4});
  Tensor b = Tensor::fromData(std::span<const bool>(bv), {4});
  const std::vector<int> anyTrue{0, 1, 1, 1}, bothTrue{0, 0, 0, 1};
  for (const auto& [out, want] :
       {std::pair{ops::add(a, b), anyTrue}, std::pair{ops::mul(a, b), bothTrue},
        std::pair{ops::minimum(a, b), bothTrue},
        std::pair{ops::maximum(a, b), anyTrue}}) {
    EXPECT_EQ(out.dtype(), DType::Bool);
    EXPECT_EQ(boolBytes(out), want);
  }
  // A broadcast True + True also stores 1, not 2.
  Tensor t = Tensor::full({3}, Scalar(true), DType::Bool);
  EXPECT_EQ(boolBytes(ops::add(t, t.select(0, 0))),
            (std::vector<int>{1, 1, 1}));
}

TEST(OpsTest, BoolSubAndNegRaise) {
  const bool av[] = {false, true};
  Tensor a = Tensor::fromData(std::span<const bool>(av), {2});
  EXPECT_THROW(ops::sub(a, a), Error);
  EXPECT_THROW(ops::neg(a), Error);
  // With a non-Bool operand the result promotes and is well defined.
  Tensor d = ops::sub(a, Tensor::arange(2));
  EXPECT_EQ(d.dtype(), DType::Int64);
  EXPECT_EQ(d.scalarAtLinear(1), 0.0);
}

TEST(OpsTest, SortOrderPutsNaNLargestAndKeepsTiesInIndexOrder) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  // Row 1 is row 0 reversed, so ties and NaNs meet in the other order.
  Tensor a = Tensor::fromData(
      std::vector<float>{1, nan, -0.0f, -inf, 0.0f, inf, nan, -1,
                         -1, nan, inf, 0.0f, -inf, -0.0f, nan, 1},
      {2, 8});
  auto indices = [](const Tensor& t) {
    std::vector<std::int64_t> out;
    for (std::int64_t i = 0; i < t.numel(); ++i)
      out.push_back(static_cast<std::int64_t>(t.scalarAtLinear(i)));
    return out;
  };
  EXPECT_EQ(indices(ops::argsort(a, /*descending=*/false)),
            (std::vector<std::int64_t>{3, 7, 2, 4, 0, 5, 1, 6,  //
                                       4, 0, 3, 5, 7, 2, 1, 6}));
  EXPECT_EQ(indices(ops::argsort(a, /*descending=*/true)),
            (std::vector<std::int64_t>{1, 6, 5, 0, 2, 4, 7, 3,  //
                                       1, 6, 2, 7, 3, 5, 0, 4}));
  // The same order on a transposed (strided) view.
  Tensor at = a.transpose(0, 1).clone().transpose(0, 1);
  EXPECT_EQ(indices(ops::argsort(at, true)), indices(ops::argsort(a, true)));

  auto [values, idx] = ops::topk(a, 8);
  EXPECT_EQ(indices(idx), indices(ops::argsort(a, true)));
  EXPECT_TRUE(std::isnan(values.scalarAt(Shape{0, 0})));
  EXPECT_TRUE(std::isnan(values.scalarAt(Shape{0, 1})));
  EXPECT_EQ(values.scalarAt(Shape{0, 2}), inf);
  // -0.0 (index 2) and 0.0 (index 4) tie; each keeps its sign bit.
  EXPECT_TRUE(std::signbit(values.scalarAt(Shape{0, 4})));
  EXPECT_FALSE(std::signbit(values.scalarAt(Shape{0, 5})));
  EXPECT_EQ(values.scalarAt(Shape{0, 7}), -inf);
}

}  // namespace
}  // namespace tssa
