#include "src/tensor/ops.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>
#include <type_traits>
#include <vector>

#include "src/tensor/strided_loop.h"

namespace tssa::ops {
namespace {

using detail::dispatchDType;
using detail::StridedLoop;
using detail::withRowStride;

/// Broadcasting elementwise binary op: `fn` runs in double on each element
/// pair and its result is cast once to `outDType`. All-Float32 calls run a
/// typed row loop; mixed dtypes load and store through function pointers
/// picked once per call. `out` is fresh and contiguous, so its row stride is
/// always 1.
template <typename Fn>
Tensor binaryOp(const Tensor& a, const Tensor& b, DType outDType, Fn&& fn) {
  const Shape outShape = broadcastShapes(a.sizes(), b.sizes());
  Tensor out = Tensor::empty(outShape, outDType);
  const Strides so = contiguousStrides(outShape);
  const Strides sa = detail::alignedStrides(outShape, a.sizes(), a.strides());
  const Strides sb = detail::alignedStrides(outShape, b.sizes(), b.strides());
  StridedLoop<3> loop(outShape, {&so, &sa, &sb},
                      {0, a.storageOffset(), b.storageOffset()});
  if (a.dtype() == DType::Float32 && b.dtype() == DType::Float32 &&
      outDType == DType::Float32) {
    const float* pa = a.storage()->as<float>();
    const float* pb = b.storage()->as<float>();
    float* po = out.data<float>();
    for (; loop.valid(); loop.nextRow()) {
      float* ro = po + loop.offset(0);
      const float* ra = pa + loop.offset(1);
      const float* rb = pb + loop.offset(2);
      const std::int64_t n = loop.rowLength();
      withRowStride(loop.rowStride(1), [&](auto s1) {
        withRowStride(loop.rowStride(2), [&](auto s2) {
          for (std::int64_t j = 0; j < n; ++j)
            ro[j] = static_cast<float>(fn(ra[j * s1], rb[j * s2]));
        });
      });
    }
    return out;
  }
  const detail::LoadFn la = detail::loadFnFor(a.dtype());
  const detail::LoadFn lb = detail::loadFnFor(b.dtype());
  const detail::StoreFn store = detail::storeFnFor(outDType);
  const Storage& stA = *a.storage();
  const Storage& stB = *b.storage();
  Storage& stOut = *out.storage();
  for (; loop.valid(); loop.nextRow()) {
    const std::int64_t o = loop.offset(0), oa = loop.offset(1),
                       ob = loop.offset(2);
    const std::int64_t s1 = loop.rowStride(1), s2 = loop.rowStride(2);
    for (std::int64_t j = 0; j < loop.rowLength(); ++j)
      store(stOut, o + j, fn(la(stA, oa + j * s1), lb(stB, ob + j * s2)));
  }
  return out;
}

/// Arithmetic with the promoted dtype. Bool ⊕ Bool stays Bool and stores
/// 0/1 (torch: add is logical or, mul is logical and), the value texpr's
/// roundTo(Bool) gives a fused body.
template <typename Fn>
Tensor arith(const Tensor& a, const Tensor& b, Fn&& fn) {
  const DType out = promoteTypes(a.dtype(), b.dtype());
  if (out == DType::Bool) {
    return binaryOp(a, b, out, [&](double x, double y) {
      return fn(x, y) != 0.0 ? 1.0 : 0.0;
    });
  }
  return binaryOp(a, b, out, std::forward<Fn>(fn));
}

template <typename Fn>
Tensor compare(const Tensor& a, const Tensor& b, Fn&& fn) {
  return binaryOp(a, b, DType::Bool,
                  [&](double x, double y) { return fn(x, y) ? 1.0 : 0.0; });
}

/// Elementwise unary op, same numeric model and row walk as binaryOp.
template <typename Fn>
Tensor unaryOp(const Tensor& a, DType outDType, Fn&& fn) {
  Tensor out = Tensor::empty(a.sizes(), outDType);
  const Strides so = contiguousStrides(a.sizes());
  StridedLoop<2> loop(a.sizes(), {&so, &a.strides()}, {0, a.storageOffset()});
  if (a.dtype() == DType::Float32 && outDType == DType::Float32) {
    const float* pa = a.storage()->as<float>();
    float* po = out.data<float>();
    for (; loop.valid(); loop.nextRow()) {
      float* ro = po + loop.offset(0);
      const float* ra = pa + loop.offset(1);
      const std::int64_t n = loop.rowLength();
      withRowStride(loop.rowStride(1), [&](auto s) {
        for (std::int64_t j = 0; j < n; ++j)
          ro[j] = static_cast<float>(fn(ra[j * s]));
      });
    }
    return out;
  }
  const detail::LoadFn load = detail::loadFnFor(a.dtype());
  const detail::StoreFn store = detail::storeFnFor(outDType);
  const Storage& stA = *a.storage();
  Storage& stOut = *out.storage();
  for (; loop.valid(); loop.nextRow()) {
    const std::int64_t o = loop.offset(0), oa = loop.offset(1);
    const std::int64_t s = loop.rowStride(1);
    for (std::int64_t j = 0; j < loop.rowLength(); ++j)
      store(stOut, o + j, fn(load(stA, oa + j * s)));
  }
  return out;
}

Tensor scalarTensor(Scalar s, DType like) {
  return Tensor::scalar(s, isFloatingPoint(like) ? DType::Float32 : s.dtype());
}

/// Casts a reduction accumulator through the output element type O after
/// every step. This matches the historical behaviour of accumulating directly
/// in the output buffer (Float32 sums round per step, Int64 truncates per
/// step) — but the cast is only ever applied to values that are
/// representable: max/min seed from the first element instead of casting
/// ±inf into Int64/Bool, which is undefined behaviour.
template <typename O>
double roundTo(double v) {
  if constexpr (std::is_same_v<O, std::uint8_t>) {
    return v != 0.0 ? 1.0 : 0.0;
  } else {
    return static_cast<double>(static_cast<O>(v));
  }
}

/// Calls `lane(offsets)` once for every line of `shape` along dim `d`, with
/// the storage offset of the line's first element in each of K operands
/// (`strides` are per operand over `shape`; the stride along `d` is the
/// caller's to apply).
template <std::size_t K, typename Lane>
void forEachLane(std::span<const std::int64_t> shape, std::int64_t d,
                 const std::array<const Strides*, K>& strides,
                 const std::array<std::int64_t, K>& base, Lane&& lane) {
  Shape outer(shape.begin(), shape.end());
  outer[static_cast<std::size_t>(d)] = 1;
  for (StridedLoop<K> loop(outer, strides, base); loop.valid();
       loop.nextRow()) {
    std::array<std::int64_t, K> off{};
    for (std::int64_t t = 0; t < loop.rowLength(); ++t) {
      for (std::size_t k = 0; k < K; ++k)
        off[k] = loop.offset(k) + t * loop.rowStride(k);
      lane(off);
    }
  }
}

/// Lanes a dim reduction advances together. Each lane's accumulation is a
/// dependency chain (one rounding per step); interleaving a block of lanes
/// overlaps the chains while every lane still sees its elements in order.
constexpr std::int64_t kReduceLanes = 8;

/// Shared driver for dim reductions: reduces `dim` of `a` with `fn`. The
/// accumulator starts at `init`, or — when `seedFromFirst` is set — at the
/// first element along the reduced dim (for reductions like max/min that
/// have no dtype-safe identity). Each accumulated value is post-processed
/// with `finish`. Elements are read as `double` (Bool bytes as stored).
///
/// The output is walked in rows; a row's lanes (output elements) are reduced
/// kReduceLanes at a time, each block stepping along `dim` in index order, so
/// every output element accumulates exactly as a one-element-at-a-time loop
/// would.
template <typename Fn, typename Finish>
Tensor reduceDim(const Tensor& a, std::int64_t dim, bool keepDim,
                 DType outDType, bool seedFromFirst, double init, Fn&& fn,
                 Finish&& finish) {
  const std::int64_t d = normalizeDim(dim, a.dim());
  const auto du = static_cast<std::size_t>(d);
  const std::int64_t extent = a.size(d);
  TSSA_CHECK(!seedFromFirst || extent > 0,
             "reduction over an empty dimension has no identity");
  Shape outShape = a.sizes();
  outShape[du] = 1;
  Tensor out = Tensor::empty(outShape, outDType);
  const Strides so = contiguousStrides(outShape);
  const std::int64_t sd = a.strides()[du];
  const std::int64_t first = seedFromFirst ? 1 : 0;
  dispatchDType(a.dtype(), [&](auto inTag) {
    dispatchDType(outDType, [&](auto outTag) {
      using T = decltype(inTag);
      using O = decltype(outTag);
      // Reduces lanes [0, m) starting at `ra` (lane stride `sa`) into `ro`.
      auto block = [&](const T* ra, O* ro, auto m, auto sa) {
        std::array<double, kReduceLanes> acc{};
        for (std::int64_t t = 0; t < m; ++t)
          acc[static_cast<std::size_t>(t)] =
              seedFromFirst ? roundTo<O>(static_cast<double>(ra[t * sa]))
                            : init;
        for (std::int64_t j = first; j < extent; ++j) {
          const T* row = ra + j * sd;
          for (std::int64_t t = 0; t < m; ++t) {
            double& v = acc[static_cast<std::size_t>(t)];
            v = roundTo<O>(fn(v, static_cast<double>(row[t * sa])));
          }
        }
        for (std::int64_t t = 0; t < m; ++t)
          ro[t] = static_cast<O>(finish(acc[static_cast<std::size_t>(t)]));
      };
      const T* pa = a.storage()->as<T>();
      O* po = out.data<O>();
      for (StridedLoop<2> loop(outShape, {&so, &a.strides()},
                               {0, a.storageOffset()});
           loop.valid(); loop.nextRow()) {
        const std::int64_t n = loop.rowLength();
        withRowStride(loop.rowStride(1), [&](auto sa) {
          std::int64_t t = 0;
          for (; t + kReduceLanes <= n; t += kReduceLanes)
            block(pa + loop.offset(1) + t * sa, po + loop.offset(0) + t,
                  std::integral_constant<std::int64_t, kReduceLanes>{}, sa);
          if (t < n)
            block(pa + loop.offset(1) + t * sa, po + loop.offset(0) + t,
                  n - t, sa);
        });
      }
    });
  });
  if (!keepDim) {
    return out.squeeze(d);
  }
  return out;
}

/// Output columns one matmul tile holds in registers while it walks `k`.
constexpr std::int64_t kMatmulCols = 32;

/// Accumulates one [1, w] output tile over all of `k`, in kk order, in float.
template <typename W>
void matmulTile(const float* rowA, const float* pb, float* rowO,
                std::int64_t k, std::int64_t n, W w) {
  float acc[kMatmulCols] = {};
  for (std::int64_t j = 0; j < w; ++j) acc[j] = rowO[j];
  for (std::int64_t kk = 0; kk < k; ++kk) {
    const float va = rowA[kk];
    const float* rowB = pb + kk * n;
    for (std::int64_t j = 0; j < w; ++j) acc[j] += va * rowB[j];
  }
  for (std::int64_t j = 0; j < w; ++j) rowO[j] = acc[j];
}

/// Matrix product of contiguous Float32 rows into a zeroed `po`: each output
/// element accumulates `a[i,kk] * b[kk,j]` in float, in kk order. Tiling by
/// output columns only reorders work between output elements.
void matmulInto(const float* pa, const float* pb, float* po, std::int64_t m,
                std::int64_t k, std::int64_t n) {
  for (std::int64_t j0 = 0; j0 < n; j0 += kMatmulCols) {
    for (std::int64_t i = 0; i < m; ++i) {
      if (j0 + kMatmulCols <= n) {
        matmulTile(pa + i * k, pb + j0, po + i * n + j0, k, n,
                   std::integral_constant<std::int64_t, kMatmulCols>{});
      } else {
        matmulTile(pa + i * k, pb + j0, po + i * n + j0, k, n, n - j0);
      }
    }
  }
}

/// A matmul operand as contiguous Float32: itself when it already is one.
Tensor contiguousFloat(const Tensor& t) {
  return t.dtype() == DType::Float32 ? t.contiguous() : t.to(DType::Float32);
}

}  // namespace

// ---- Binary -------------------------------------------------------------------

Tensor add(const Tensor& a, const Tensor& b) {
  return arith(a, b, [](double x, double y) { return x + y; });
}
Tensor sub(const Tensor& a, const Tensor& b) {
  TSSA_CHECK(a.dtype() != DType::Bool || b.dtype() != DType::Bool,
             "sub: subtracting two Bool tensors is not supported; use "
             "logical_xor or logical_not");
  return arith(a, b, [](double x, double y) { return x - y; });
}
Tensor mul(const Tensor& a, const Tensor& b) {
  return arith(a, b, [](double x, double y) { return x * y; });
}
Tensor div(const Tensor& a, const Tensor& b) {
  return binaryOp(a, b, DType::Float32,
                  [](double x, double y) { return x / y; });
}
Tensor pow(const Tensor& a, const Tensor& b) {
  return binaryOp(a, b, DType::Float32,
                  [](double x, double y) { return std::pow(x, y); });
}
Tensor minimum(const Tensor& a, const Tensor& b) {
  return arith(a, b, [](double x, double y) { return std::min(x, y); });
}
Tensor maximum(const Tensor& a, const Tensor& b) {
  return arith(a, b, [](double x, double y) { return std::max(x, y); });
}

Tensor add(const Tensor& a, Scalar b) {
  return add(a, scalarTensor(b, a.dtype()));
}
Tensor sub(const Tensor& a, Scalar b) {
  return sub(a, scalarTensor(b, a.dtype()));
}
Tensor mul(const Tensor& a, Scalar b) {
  return mul(a, scalarTensor(b, a.dtype()));
}
Tensor div(const Tensor& a, Scalar b) {
  return div(a, scalarTensor(b, a.dtype()));
}

// ---- Comparisons -----------------------------------------------------------------

Tensor eq(const Tensor& a, const Tensor& b) {
  return compare(a, b, [](double x, double y) { return x == y; });
}
Tensor ne(const Tensor& a, const Tensor& b) {
  return compare(a, b, [](double x, double y) { return x != y; });
}
Tensor lt(const Tensor& a, const Tensor& b) {
  return compare(a, b, [](double x, double y) { return x < y; });
}
Tensor le(const Tensor& a, const Tensor& b) {
  return compare(a, b, [](double x, double y) { return x <= y; });
}
Tensor gt(const Tensor& a, const Tensor& b) {
  return compare(a, b, [](double x, double y) { return x > y; });
}
Tensor ge(const Tensor& a, const Tensor& b) {
  return compare(a, b, [](double x, double y) { return x >= y; });
}
Tensor logicalAnd(const Tensor& a, const Tensor& b) {
  return compare(a, b,
                 [](double x, double y) { return x != 0.0 && y != 0.0; });
}
Tensor logicalOr(const Tensor& a, const Tensor& b) {
  return compare(a, b,
                 [](double x, double y) { return x != 0.0 || y != 0.0; });
}
Tensor logicalNot(const Tensor& a) {
  return unaryOp(a, DType::Bool,
                 [](double x) { return x == 0.0 ? 1.0 : 0.0; });
}

// ---- Unary ------------------------------------------------------------------------

Tensor neg(const Tensor& a) {
  TSSA_CHECK(a.dtype() != DType::Bool,
             "neg: negating a Bool tensor is not supported; use logical_not");
  return unaryOp(a, a.dtype(), [](double x) { return -x; });
}
Tensor exp(const Tensor& a) {
  return unaryOp(a, DType::Float32, [](double x) { return std::exp(x); });
}
Tensor log(const Tensor& a) {
  return unaryOp(a, DType::Float32, [](double x) { return std::log(x); });
}
Tensor sqrt(const Tensor& a) {
  return unaryOp(a, DType::Float32, [](double x) { return std::sqrt(x); });
}
Tensor abs(const Tensor& a) {
  return unaryOp(a, a.dtype(), [](double x) { return std::abs(x); });
}
Tensor sigmoid(const Tensor& a) {
  return unaryOp(a, DType::Float32,
                 [](double x) { return 1.0 / (1.0 + std::exp(-x)); });
}
Tensor tanh(const Tensor& a) {
  return unaryOp(a, DType::Float32, [](double x) { return std::tanh(x); });
}
Tensor relu(const Tensor& a) {
  return unaryOp(a, a.dtype(), [](double x) { return x > 0 ? x : 0.0; });
}
Tensor clamp(const Tensor& a, Scalar lo, Scalar hi) {
  const double l = lo.toDouble();
  const double h = hi.toDouble();
  return unaryOp(a, a.dtype(),
                 [=](double x) { return std::clamp(x, l, h); });
}

// ---- Selection -----------------------------------------------------------------------

Tensor where(const Tensor& cond, const Tensor& a, const Tensor& b) {
  TSSA_CHECK(cond.dtype() == DType::Bool, "where condition must be Bool");
  Shape shape = broadcastShapes(cond.sizes(), a.sizes());
  shape = broadcastShapes(shape, b.sizes());
  Tensor out = Tensor::empty(shape, promoteTypes(a.dtype(), b.dtype()));
  // One row walk over (out, cond, a, b); dtypes dispatched once per call.
  const Strides so = contiguousStrides(shape);
  const Strides sc =
      detail::alignedStrides(shape, cond.sizes(), cond.strides());
  const Strides sa = detail::alignedStrides(shape, a.sizes(), a.strides());
  const Strides sb = detail::alignedStrides(shape, b.sizes(), b.strides());
  StridedLoop<4> loop(shape, {&so, &sc, &sa, &sb},
                      {0, cond.storageOffset(), a.storageOffset(),
                       b.storageOffset()});
  const std::uint8_t* pc = cond.storage()->as<std::uint8_t>();
  if (a.dtype() == DType::Float32 && b.dtype() == DType::Float32) {
    const float* pa = a.storage()->as<float>();
    const float* pb = b.storage()->as<float>();
    float* po = out.data<float>();
    for (; loop.valid(); loop.nextRow()) {
      float* ro = po + loop.offset(0);
      const std::uint8_t* rc = pc + loop.offset(1);
      const float* ra = pa + loop.offset(2);
      const float* rb = pb + loop.offset(3);
      const std::int64_t n = loop.rowLength();
      const std::int64_t sc1 = loop.rowStride(1);
      withRowStride(loop.rowStride(2), [&](auto s2) {
        withRowStride(loop.rowStride(3), [&](auto s3) {
          for (std::int64_t j = 0; j < n; ++j)
            ro[j] = rc[j * sc1] != 0 ? ra[j * s2] : rb[j * s3];
        });
      });
    }
    return out;
  }
  const detail::LoadFn la = detail::loadFnFor(a.dtype());
  const detail::LoadFn lb = detail::loadFnFor(b.dtype());
  const detail::StoreFn store = detail::storeFnFor(out.dtype());
  const Storage& stA = *a.storage();
  const Storage& stB = *b.storage();
  Storage& stOut = *out.storage();
  for (; loop.valid(); loop.nextRow()) {
    const std::int64_t o = loop.offset(0), oc = loop.offset(1),
                       oa = loop.offset(2), ob = loop.offset(3);
    const std::int64_t s1 = loop.rowStride(1), s2 = loop.rowStride(2),
                       s3 = loop.rowStride(3);
    for (std::int64_t j = 0; j < loop.rowLength(); ++j)
      store(stOut, o + j,
            pc[oc + j * s1] != 0 ? la(stA, oa + j * s2)
                                 : lb(stB, ob + j * s3));
  }
  return out;
}

Tensor maskedFill(const Tensor& a, const Tensor& mask, Scalar value) {
  return where(mask, Tensor::full(Shape{}, value,
                                  isFloatingPoint(a.dtype()) ? DType::Float32
                                                             : a.dtype()),
               a);
}

// ---- Reductions ------------------------------------------------------------------------

Tensor sum(const Tensor& a) {
  double acc = 0;
  dispatchDType(a.dtype(), [&](auto tag) {
    using T = decltype(tag);
    const T* pa = a.storage()->as<T>();
    for (StridedLoop<1> loop(a.sizes(), {&a.strides()}, {a.storageOffset()});
         loop.valid(); loop.nextRow()) {
      const T* row = pa + loop.offset(0);
      const std::int64_t s = loop.rowStride(0);
      for (std::int64_t j = 0; j < loop.rowLength(); ++j)
        acc += static_cast<double>(row[j * s]);
    }
  });
  const DType dt = a.dtype() == DType::Bool ? DType::Int64 : a.dtype();
  return Tensor::scalar(Scalar(acc), dt);
}

Tensor sum(const Tensor& a, std::int64_t dim, bool keepDim) {
  const DType dt = a.dtype() == DType::Bool ? DType::Int64 : a.dtype();
  return reduceDim(
      a, dim, keepDim, dt, /*seedFromFirst=*/false, 0.0,
      [](double acc, double v) { return acc + v; },
      [](double v) { return v; });
}

Tensor mean(const Tensor& a, std::int64_t dim, bool keepDim) {
  const std::int64_t d = normalizeDim(dim, a.dim());
  const double count = static_cast<double>(a.size(d));
  return reduceDim(
      a, dim, keepDim, DType::Float32, /*seedFromFirst=*/false, 0.0,
      [](double acc, double v) { return acc + v; },
      [=](double v) { return v / count; });
}

// max/min seed the accumulator from the first element along the reduced dim
// rather than a ±inf sentinel: casting ±inf into an Int64/Bool output is
// undefined behaviour, and an all--inf Float32 row must reduce to -inf, not
// to the sentinel. NaN propagates like PyTorch: any NaN in the row wins.

Tensor maxReduce(const Tensor& a, std::int64_t dim, bool keepDim) {
  return reduceDim(
      a, dim, keepDim, a.dtype(), /*seedFromFirst=*/true, 0.0,
      [](double acc, double v) {
        return (std::isnan(v) || v > acc) ? v : acc;
      },
      [](double v) { return v; });
}

Tensor minReduce(const Tensor& a, std::int64_t dim, bool keepDim) {
  return reduceDim(
      a, dim, keepDim, a.dtype(), /*seedFromFirst=*/true, 0.0,
      [](double acc, double v) {
        return (std::isnan(v) || v < acc) ? v : acc;
      },
      [](double v) { return v; });
}

Tensor argmax(const Tensor& a, std::int64_t dim, bool keepDim) {
  const std::int64_t d = normalizeDim(dim, a.dim());
  const auto du = static_cast<std::size_t>(d);
  const std::int64_t extent = a.size(d);
  TSSA_CHECK(extent > 0, "argmax over an empty dimension");
  Shape outShape = a.sizes();
  outShape[du] = 1;
  Tensor out = Tensor::empty(outShape, DType::Int64);
  const Strides so = contiguousStrides(outShape);
  const std::int64_t sd = a.strides()[du];
  std::int64_t* po = out.data<std::int64_t>();
  dispatchDType(a.dtype(), [&](auto tag) {
    using T = decltype(tag);
    const T* pa = a.storage()->as<T>();
    forEachLane<2>(a.sizes(), d, {&so, &a.strides()}, {0, a.storageOffset()},
                   [&](const std::array<std::int64_t, 2>& off) {
                     const T* line = pa + off[1];
                     double best = static_cast<double>(line[0]);
                     std::int64_t bestIndex = 0;
                     for (std::int64_t j = 1; j < extent; ++j) {
                       const double v = static_cast<double>(line[j * sd]);
                       // PyTorch semantics: NaN compares greater than
                       // everything, the first NaN wins; among ordinary
                       // values ties keep the earlier index.
                       if ((std::isnan(v) && !std::isnan(best)) || v > best) {
                         best = v;
                         bestIndex = j;
                       }
                     }
                     po[off[0]] = bestIndex;
                   });
  });
  return keepDim ? out : out.squeeze(d);
}

Tensor softmax(const Tensor& a, std::int64_t dim) {
  const std::int64_t d = normalizeDim(dim, a.dim());
  Tensor m = maxReduce(a, d, /*keepDim=*/true);
  Tensor e = exp(sub(a, m));
  Tensor s = sum(e, d, /*keepDim=*/true);
  return div(e, s);
}

// ---- Linear algebra -----------------------------------------------------------------------

Tensor matmul(const Tensor& a, const Tensor& b) {
  if (a.dim() == 3 && b.dim() == 3) return bmm(a, b);
  TSSA_CHECK(a.dim() == 2 && b.dim() == 2,
             "matmul expects 2-D operands, got " << a.dim() << " and "
                                                 << b.dim());
  TSSA_CHECK(a.size(1) == b.size(0), "matmul inner dimensions disagree: "
                                         << a.size(1) << " vs " << b.size(0));
  const std::int64_t m = a.size(0), k = a.size(1), n = b.size(1);
  const Tensor ac = contiguousFloat(a);
  const Tensor bc = contiguousFloat(b);
  Tensor out = Tensor::zeros({m, n}, DType::Float32);
  matmulInto(ac.data<float>(), bc.data<float>(), out.data<float>(), m, k, n);
  return out;
}

Tensor bmm(const Tensor& a, const Tensor& b) {
  TSSA_CHECK(a.dim() == 3 && b.dim() == 3, "bmm expects 3-D operands");
  TSSA_CHECK(a.size(0) == b.size(0), "bmm batch dims disagree");
  TSSA_CHECK(a.size(2) == b.size(1), "matmul inner dimensions disagree: "
                                         << a.size(2) << " vs " << b.size(1));
  const std::int64_t batch = a.size(0), m = a.size(1), k = a.size(2),
                     n = b.size(2);
  const Tensor ac = contiguousFloat(a);
  const Tensor bc = contiguousFloat(b);
  Tensor out = Tensor::zeros({batch, m, n}, DType::Float32);
  const float* pa = ac.data<float>();
  const float* pb = bc.data<float>();
  float* po = out.data<float>();
  for (std::int64_t i = 0; i < batch; ++i)
    matmulInto(pa + i * m * k, pb + i * k * n, po + i * m * n, m, k, n);
  return out;
}

// ---- Shape combinators -----------------------------------------------------------------------

Tensor cat(std::span<const Tensor> tensors, std::int64_t dim) {
  TSSA_CHECK(!tensors.empty(), "cat of zero tensors");
  const std::int64_t d = normalizeDim(dim, tensors.front().dim());
  Shape outShape = tensors.front().sizes();
  std::int64_t total = 0;
  DType dt = tensors.front().dtype();
  for (const Tensor& t : tensors) {
    TSSA_CHECK(t.dim() == tensors.front().dim(), "cat rank mismatch");
    for (std::int64_t i = 0; i < t.dim(); ++i) {
      if (i != d) {
        TSSA_CHECK(t.size(i) == outShape[static_cast<std::size_t>(i)],
                   "cat shape mismatch on dim " << i);
      }
    }
    total += t.size(d);
    dt = promoteTypes(dt, t.dtype());
  }
  outShape[static_cast<std::size_t>(d)] = total;
  Tensor out = Tensor::empty(outShape, dt);
  std::int64_t at = 0;
  for (const Tensor& t : tensors) {
    out.narrow(d, at, t.size(d)).copy_(t);
    at += t.size(d);
  }
  return out;
}

Tensor stack(std::span<const Tensor> tensors, std::int64_t dim) {
  TSSA_CHECK(!tensors.empty(), "stack of zero tensors");
  std::vector<Tensor> expanded;
  expanded.reserve(tensors.size());
  const std::int64_t rank = tensors.front().dim();
  const std::int64_t d = dim < 0 ? dim + rank + 1 : dim;
  for (const Tensor& t : tensors) expanded.push_back(t.unsqueeze(d));
  return cat(expanded, d);
}

// ---- Indexing -----------------------------------------------------------------------

Tensor indexSelect(const Tensor& a, std::int64_t dim, const Tensor& index) {
  TSSA_CHECK(index.dtype() == DType::Int64 && index.dim() == 1,
             "indexSelect needs a 1-D Int64 index");
  const std::int64_t d = normalizeDim(dim, a.dim());
  const Tensor idx = index.contiguous();
  const std::int64_t* pi = idx.data<std::int64_t>();
  std::vector<Tensor> rows;
  const std::int64_t n = idx.numel();
  rows.reserve(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i)
    rows.push_back(a.select(d, pi[i]).unsqueeze(d));
  return cat(rows, d);
}

Tensor gather(const Tensor& a, std::int64_t dim, const Tensor& index) {
  TSSA_CHECK(index.dtype() == DType::Int64, "gather needs Int64 indices");
  TSSA_CHECK(index.dim() == a.dim(), "gather index rank must match input");
  const std::int64_t d = normalizeDim(dim, a.dim());
  const auto du = static_cast<std::size_t>(d);
  for (std::int64_t i = 0; i < a.dim(); ++i) {
    TSSA_CHECK(i == d || index.size(i) <= a.size(i),
               "gather index extent " << index.size(i) << " exceeds input "
                                      << "extent " << a.size(i) << " on dim "
                                      << i);
  }
  Tensor out = Tensor::empty(index.sizes(), a.dtype());
  const Strides so = contiguousStrides(index.sizes());
  // The gathered coordinate comes from the index, not from the walk.
  Strides sa = a.strides();
  sa[du] = 0;
  const std::int64_t strideD = a.strides()[du];
  const std::int64_t extent = a.size(d);
  const std::int64_t* pi = index.storage()->as<std::int64_t>();
  dispatchDType(a.dtype(), [&](auto tag) {
    using T = decltype(tag);
    const T* pa = a.storage()->as<T>();
    T* po = out.data<T>();
    for (StridedLoop<3> loop(index.sizes(), {&so, &index.strides(), &sa},
                             {0, index.storageOffset(), a.storageOffset()});
         loop.valid(); loop.nextRow()) {
      const std::int64_t si = loop.rowStride(1), sr = loop.rowStride(2);
      for (std::int64_t j = 0; j < loop.rowLength(); ++j) {
        const std::int64_t at = pi[loop.offset(1) + j * si];
        TSSA_CHECK(at >= 0 && at < extent,
                   "gather index " << at << " out of range for dim " << d
                                   << " of extent " << extent);
        const T v = pa[loop.offset(2) + j * sr + at * strideD];
        po[loop.offset(0) + j] = static_cast<T>(static_cast<double>(v));
      }
    }
  });
  return out;
}

namespace {

/// Strict weak order for sorting: NaN is the largest value (torch.sort /
/// topk order) and -0.0 equals 0.0; stable sorts keep ties in index order.
bool sortsBefore(double x, double y) {
  return std::isnan(y) ? !std::isnan(x) : x < y;
}

}  // namespace

std::pair<Tensor, Tensor> topk(const Tensor& a, std::int64_t k) {
  TSSA_CHECK(a.dim() >= 1, "topk needs rank >= 1");
  const std::int64_t last = a.dim() - 1;
  const std::int64_t extent = a.size(last);
  TSSA_CHECK(k >= 0 && k <= extent, "topk k out of range");
  Shape outShape = a.sizes();
  outShape[static_cast<std::size_t>(last)] = k;
  Tensor values = Tensor::empty(outShape, a.dtype());
  Tensor indices = Tensor::empty(outShape, DType::Int64);
  const Strides so = contiguousStrides(outShape);
  const std::int64_t sl = a.strides().back();
  std::int64_t* pi = indices.data<std::int64_t>();
  std::vector<std::pair<double, std::int64_t>> row;
  row.reserve(static_cast<std::size_t>(extent));
  dispatchDType(a.dtype(), [&](auto tag) {
    using T = decltype(tag);
    const T* pa = a.storage()->as<T>();
    T* pv = values.data<T>();
    forEachLane<2>(
        a.sizes(), last, {&so, &a.strides()}, {0, a.storageOffset()},
        [&](const std::array<std::int64_t, 2>& off) {
          row.clear();
          for (std::int64_t j = 0; j < extent; ++j)
            row.emplace_back(static_cast<double>(pa[off[1] + j * sl]), j);
          std::stable_sort(row.begin(), row.end(),
                           [](const auto& x, const auto& y) {
                             return sortsBefore(y.first, x.first);
                           });
          for (std::int64_t j = 0; j < k; ++j) {
            const auto& [v, at] = row[static_cast<std::size_t>(j)];
            pv[off[0] + j] = static_cast<T>(v);
            pi[off[0] + j] = at;
          }
        });
  });
  return {values, indices};
}

Tensor argsort(const Tensor& a, bool descending) {
  const std::int64_t last = a.dim() - 1;
  const std::int64_t extent = a.size(last);
  Tensor out = Tensor::empty(a.sizes(), DType::Int64);
  const Strides so = contiguousStrides(a.sizes());
  const std::int64_t sl = a.strides().back();
  std::int64_t* po = out.data<std::int64_t>();
  // Each row's values are loaded once next to their indices; the stable sort
  // compares exactly the values the per-element reads produced.
  std::vector<std::pair<double, std::int64_t>> row;
  row.reserve(static_cast<std::size_t>(extent));
  dispatchDType(a.dtype(), [&](auto tag) {
    using T = decltype(tag);
    const T* pa = a.storage()->as<T>();
    forEachLane<2>(
        a.sizes(), last, {&so, &a.strides()}, {0, a.storageOffset()},
        [&](const std::array<std::int64_t, 2>& off) {
          row.clear();
          for (std::int64_t j = 0; j < extent; ++j)
            row.emplace_back(static_cast<double>(pa[off[1] + j * sl]), j);
          std::stable_sort(row.begin(), row.end(),
                           [&](const auto& x, const auto& y) {
                             return descending ? sortsBefore(y.first, x.first)
                                               : sortsBefore(x.first, y.first);
                           });
          for (std::int64_t j = 0; j < extent; ++j)
            po[off[0] + j] = row[static_cast<std::size_t>(j)].second;
        });
  });
  return out;
}

Tensor cumsum(const Tensor& a, std::int64_t dim) {
  const std::int64_t d = normalizeDim(dim, a.dim());
  const auto du = static_cast<std::size_t>(d);
  Tensor out = Tensor::empty(a.sizes(), a.dtype());
  const Strides so = contiguousStrides(a.sizes());
  const std::int64_t extent = a.size(d);
  const std::int64_t sd = a.strides()[du];
  const std::int64_t od = so[du];
  dispatchDType(a.dtype(), [&](auto tag) {
    using T = decltype(tag);
    const T* pa = a.storage()->as<T>();
    T* po = out.data<T>();
    forEachLane<2>(a.sizes(), d, {&so, &a.strides()}, {0, a.storageOffset()},
                   [&](const std::array<std::int64_t, 2>& off) {
                     double acc = 0;
                     for (std::int64_t j = 0; j < extent; ++j) {
                       acc += static_cast<double>(pa[off[1] + j * sd]);
                       po[off[0] + j * od] = static_cast<T>(acc);
                     }
                   });
  });
  return out;
}

}  // namespace tssa::ops
