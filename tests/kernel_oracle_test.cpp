// Bitwise oracle for the typed row-wise reference kernels (DESIGN.md,
// "Reference kernels").
//
// Namespace `oracle` below holds the per-element implementations the tensor
// library used before its kernels walked rows: every element read through
// scalarAt / scalarAtLinear (or a per-element odometer) and written through
// setScalarAt. Each test runs an op both ways on seeded random inputs —
// transposed, step-sliced and expanded (stride-0) views, rank-0 and extent-0
// shapes, every dtype pair, NaN / ±inf / -0.0 — and compares the results'
// bit patterns with memcmp. allClose would hide exactly the differences this
// suite exists to catch (a reordered Float32 sum, a dropped -0.0).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <numeric>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/tensor/ops.h"
#include "src/tensor/tensor.h"

namespace tssa {
namespace {

// ---- The per-element implementations, as they were -------------------------

namespace oracle {

/// The sort order of topk/argsort, restated: NaN is the largest value and
/// -0.0 equals 0.0 (a strict weak order; the stable sort keeps ties in index
/// order).
bool sortsBefore(double x, double y) {
  if (std::isnan(x)) return false;
  return std::isnan(y) || x < y;
}

inline Strides alignedStrides(std::span<const std::int64_t> outShape,
                              const Shape& sizes, const Strides& strides) {
  Strides out(outShape.size(), 0);
  const std::size_t shift = outShape.size() - sizes.size();
  for (std::size_t d = 0; d < sizes.size(); ++d)
    out[shift + d] = sizes[d] == 1 ? 0 : strides[d];
  return out;
}

template <std::size_t K>
class StridedLoop {
 public:
  StridedLoop(std::span<const std::int64_t> shape,
              const std::array<const Strides*, K>& strides,
              const std::array<std::int64_t, K>& base)
      : shape_(shape.begin(), shape.end()),
        coord_(shape.size(), 0),
        offsets_(base) {
    for (std::size_t k = 0; k < K; ++k) strides_[k] = *strides[k];
  }

  std::int64_t offset(std::size_t k) const { return offsets_[k]; }

  void advance() {
    for (std::int64_t d = static_cast<std::int64_t>(shape_.size()) - 1; d >= 0;
         --d) {
      const auto du = static_cast<std::size_t>(d);
      if (++coord_[du] < shape_[du]) {
        for (std::size_t k = 0; k < K; ++k) offsets_[k] += strides_[k][du];
        return;
      }
      coord_[du] = 0;
      for (std::size_t k = 0; k < K; ++k)
        offsets_[k] -= strides_[k][du] * (shape_[du] - 1);
    }
  }

 private:
  Shape shape_;
  Shape coord_;
  std::array<Strides, K> strides_;
  std::array<std::int64_t, K> offsets_;
};

using LoadFn = double (*)(const Storage&, std::int64_t);
using StoreFn = void (*)(Storage&, std::int64_t, double);

template <typename T>
inline double loadElem(const Storage& s, std::int64_t off) {
  return static_cast<double>(s.as<T>()[off]);
}
inline double loadBoolElem(const Storage& s, std::int64_t off) {
  return s.as<std::uint8_t>()[off] ? 1.0 : 0.0;
}

inline LoadFn loadFnFor(DType dtype) {
  switch (dtype) {
    case DType::Float32:
      return &loadElem<float>;
    case DType::Int64:
      return &loadElem<std::int64_t>;
    case DType::Bool:
      return &loadBoolElem;
  }
  TSSA_THROW("unknown dtype");
}

template <typename T>
inline void storeElem(Storage& s, std::int64_t off, double v) {
  s.as<T>()[off] = static_cast<T>(v);
}

inline StoreFn storeFnFor(DType dtype) {
  switch (dtype) {
    case DType::Float32:
      return &storeElem<float>;
    case DType::Int64:
      return &storeElem<std::int64_t>;
    case DType::Bool:
      return &storeElem<std::uint8_t>;
  }
  TSSA_THROW("unknown dtype");
}

Tensor to(const Tensor& t, DType dtype) {
  Tensor out = Tensor::empty(t.sizes(), dtype);
  const std::int64_t n = t.numel();
  for (std::int64_t i = 0; i < n; ++i)
    out.setScalarAtLinear(i, t.scalarAtLinear(i));
  return out;
}

/// Tensor::copy_ (member access spelled through the public accessors).
void copyInto(Tensor& dst, const Tensor& src) {
  TSSA_CHECK(dst.defined() && src.defined(), "copy_ on undefined tensor");
  TSSA_CHECK(broadcastableTo(src.sizes(), dst.sizes()),
             "copy_ source shape not broadcastable");
  if (dst.numel() == 0) return;
  if (src.dtype() == dst.dtype() && dst.isContiguous() &&
      src.isContiguous() && src.sizes() == dst.sizes()) {
    const std::size_t bytes =
        static_cast<std::size_t>(dst.numel()) * dtypeSize(dst.dtype());
    std::memmove(dst.storage()->raw() +
                     static_cast<std::size_t>(dst.storageOffset()) *
                         dtypeSize(dst.dtype()),
                 src.storage()->raw() +
                     static_cast<std::size_t>(src.storageOffset()) *
                         dtypeSize(dst.dtype()),
                 bytes);
    return;
  }
  Tensor source = src;
  if (dst.sharesStorageWith(src)) {
    Tensor snapshot = Tensor::empty(src.sizes(), src.dtype());
    const std::int64_t n = src.numel();
    for (std::int64_t i = 0; i < n; ++i)
      snapshot.setScalarAtLinear(i, src.scalarAtLinear(i));
    source = snapshot;
  }
  const std::int64_t n = dst.numel();
  if (n == 0) return;
  const Strides srcStrides =
      alignedStrides(dst.sizes(), source.sizes(), source.strides());
  StridedLoop<2> loop(dst.sizes(), {&dst.strides(), &srcStrides},
                      {dst.storageOffset(), source.storageOffset()});
  if (dst.dtype() == DType::Float32 && source.dtype() == DType::Float32) {
    const float* ps = source.storage()->as<float>();
    float* pd = dst.storage()->as<float>();
    for (std::int64_t i = 0; i < n; ++i, loop.advance())
      pd[loop.offset(0)] = ps[loop.offset(1)];
    return;
  }
  const LoadFn load = loadFnFor(source.dtype());
  const StoreFn store = storeFnFor(dst.dtype());
  const Storage& ss = *source.storage();
  Storage& ds = *dst.storage();
  for (std::int64_t i = 0; i < n; ++i, loop.advance())
    store(ds, loop.offset(0), load(ss, loop.offset(1)));
}

void fill(Tensor& t, Scalar value) {
  const double v = value.toDouble();
  for (IndexIterator it(t.sizes()); it.valid(); it.next())
    t.setScalarAt(it.index(), v);
}

template <typename Fn>
Tensor binaryOp(const Tensor& a, const Tensor& b, DType outDType, Fn&& fn) {
  Shape outShape = broadcastShapes(a.sizes(), b.sizes());
  Tensor out = Tensor::empty(outShape, outDType);
  if (a.dtype() == DType::Float32 && b.dtype() == DType::Float32 &&
      outDType == DType::Float32 && a.isContiguous() && b.isContiguous() &&
      a.sizes() == outShape && b.sizes() == outShape) {
    const float* pa = a.data<float>();
    const float* pb = b.data<float>();
    float* po = out.data<float>();
    const std::int64_t n = out.numel();
    for (std::int64_t i = 0; i < n; ++i)
      po[i] = static_cast<float>(fn(pa[i], pb[i]));
    return out;
  }
  const std::int64_t n = out.numel();
  if (n == 0) return out;
  const Strides sa = alignedStrides(outShape, a.sizes(), a.strides());
  const Strides sb = alignedStrides(outShape, b.sizes(), b.strides());
  StridedLoop<2> loop(outShape, {&sa, &sb},
                      {a.storageOffset(), b.storageOffset()});
  if (a.dtype() == DType::Float32 && b.dtype() == DType::Float32 &&
      outDType == DType::Float32) {
    const float* pa = a.storage()->as<float>();
    const float* pb = b.storage()->as<float>();
    float* po = out.data<float>();
    for (std::int64_t i = 0; i < n; ++i, loop.advance())
      po[i] = static_cast<float>(fn(pa[loop.offset(0)], pb[loop.offset(1)]));
    return out;
  }
  const LoadFn la = loadFnFor(a.dtype());
  const LoadFn lb = loadFnFor(b.dtype());
  const StoreFn store = storeFnFor(outDType);
  const Storage& stA = *a.storage();
  const Storage& stB = *b.storage();
  Storage& stOut = *out.storage();
  for (std::int64_t i = 0; i < n; ++i, loop.advance())
    store(stOut, i, fn(la(stA, loop.offset(0)), lb(stB, loop.offset(1))));
  return out;
}

template <typename Fn>
Tensor unaryOp(const Tensor& a, DType outDType, Fn&& fn) {
  Tensor out = Tensor::empty(a.sizes(), outDType);
  if (a.dtype() == DType::Float32 && outDType == DType::Float32 &&
      a.isContiguous()) {
    const float* pa = a.data<float>();
    float* po = out.data<float>();
    const std::int64_t n = out.numel();
    for (std::int64_t i = 0; i < n; ++i)
      po[i] = static_cast<float>(fn(pa[i]));
    return out;
  }
  const std::int64_t n = out.numel();
  if (n == 0) return out;
  const Strides sa = alignedStrides(a.sizes(), a.sizes(), a.strides());
  StridedLoop<1> loop(a.sizes(), {&sa}, {a.storageOffset()});
  const LoadFn load = loadFnFor(a.dtype());
  const StoreFn store = storeFnFor(outDType);
  const Storage& stA = *a.storage();
  Storage& stOut = *out.storage();
  for (std::int64_t i = 0; i < n; ++i, loop.advance())
    store(stOut, i, fn(load(stA, loop.offset(0))));
  return out;
}

Tensor where(const Tensor& cond, const Tensor& a, const Tensor& b) {
  TSSA_CHECK(cond.dtype() == DType::Bool, "where condition must be Bool");
  Shape shape = broadcastShapes(cond.sizes(), a.sizes());
  shape = broadcastShapes(shape, b.sizes());
  Tensor out = Tensor::empty(shape, promoteTypes(a.dtype(), b.dtype()));
  const std::int64_t n = out.numel();
  if (n == 0) return out;
  const Strides sc = alignedStrides(shape, cond.sizes(), cond.strides());
  const Strides sa = alignedStrides(shape, a.sizes(), a.strides());
  const Strides sb = alignedStrides(shape, b.sizes(), b.strides());
  StridedLoop<3> loop(
      shape, {&sc, &sa, &sb},
      {cond.storageOffset(), a.storageOffset(), b.storageOffset()});
  const std::uint8_t* pc = cond.storage()->as<std::uint8_t>();
  if (a.dtype() == DType::Float32 && b.dtype() == DType::Float32) {
    const float* pa = a.storage()->as<float>();
    const float* pb = b.storage()->as<float>();
    float* po = out.data<float>();
    for (std::int64_t i = 0; i < n; ++i, loop.advance())
      po[i] = pc[loop.offset(0)] != 0 ? pa[loop.offset(1)]
                                      : pb[loop.offset(2)];
    return out;
  }
  const LoadFn la = loadFnFor(a.dtype());
  const LoadFn lb = loadFnFor(b.dtype());
  const StoreFn store = storeFnFor(out.dtype());
  const Storage& stA = *a.storage();
  const Storage& stB = *b.storage();
  Storage& stOut = *out.storage();
  for (std::int64_t i = 0; i < n; ++i, loop.advance())
    store(stOut, i,
          pc[loop.offset(0)] != 0 ? la(stA, loop.offset(1))
                                  : lb(stB, loop.offset(2)));
  return out;
}

double roundToDType(DType dtype, double v) {
  switch (dtype) {
    case DType::Float32:
      return static_cast<double>(static_cast<float>(v));
    case DType::Int64:
      return static_cast<double>(static_cast<std::int64_t>(v));
    case DType::Bool:
      return v != 0.0 ? 1.0 : 0.0;
  }
  TSSA_THROW("unknown dtype");
}

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
  Shape idx;
  for (IndexIterator it(outShape); it.valid(); it.next()) {
    idx.assign(it.index().begin(), it.index().end());
    double acc = init;
    std::int64_t j = 0;
    if (seedFromFirst) {
      idx[du] = 0;
      acc = roundToDType(outDType, a.scalarAt(idx));
      j = 1;
    }
    for (; j < extent; ++j) {
      idx[du] = j;
      acc = roundToDType(outDType, fn(acc, a.scalarAt(idx)));
    }
    out.setScalarAt(it.index(), finish(acc));
  }
  if (!keepDim) {
    return out.squeeze(d);
  }
  return out;
}

Tensor sum(const Tensor& a) {
  double acc = 0;
  const std::int64_t n = a.numel();
  for (std::int64_t i = 0; i < n; ++i) acc += a.scalarAtLinear(i);
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
  Shape idx;
  for (IndexIterator it(outShape); it.valid(); it.next()) {
    idx.assign(it.index().begin(), it.index().end());
    idx[du] = 0;
    double best = a.scalarAt(idx);
    std::int64_t bestIndex = 0;
    for (std::int64_t j = 1; j < extent; ++j) {
      idx[du] = j;
      const double v = a.scalarAt(idx);
      if ((std::isnan(v) && !std::isnan(best)) || v > best) {
        best = v;
        bestIndex = j;
      }
    }
    out.setScalarAt(it.index(), static_cast<double>(bestIndex));
  }
  return keepDim ? out : out.squeeze(d);
}

Tensor sub(const Tensor& a, const Tensor& b) {
  return binaryOp(a, b, promoteTypes(a.dtype(), b.dtype()),
                  [](double x, double y) { return x - y; });
}

Tensor div(const Tensor& a, const Tensor& b) {
  return binaryOp(a, b, DType::Float32,
                  [](double x, double y) { return x / y; });
}

Tensor exp(const Tensor& a) {
  return unaryOp(a, DType::Float32, [](double x) { return std::exp(x); });
}

Tensor softmax(const Tensor& a, std::int64_t dim) {
  const std::int64_t d = normalizeDim(dim, a.dim());
  Tensor m = maxReduce(a, d, /*keepDim=*/true);
  Tensor e = exp(sub(a, m));
  Tensor s = sum(e, d, /*keepDim=*/true);
  return div(e, s);
}

Tensor bmm(const Tensor& a, const Tensor& b);

Tensor matmul(const Tensor& a, const Tensor& b) {
  if (a.dim() == 3 && b.dim() == 3) return bmm(a, b);
  TSSA_CHECK(a.dim() == 2 && b.dim() == 2, "matmul expects 2-D operands");
  TSSA_CHECK(a.size(1) == b.size(0), "matmul inner dimensions disagree");
  const std::int64_t m = a.size(0), k = a.size(1), n = b.size(1);
  Tensor ac = to(a, DType::Float32).contiguous();
  Tensor bc = to(b, DType::Float32).contiguous();
  Tensor out = Tensor::zeros({m, n}, DType::Float32);
  const float* pa = ac.data<float>();
  const float* pb = bc.data<float>();
  float* po = out.data<float>();
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const float va = pa[i * k + kk];
      const float* rowB = pb + kk * n;
      float* rowO = po + i * n;
      for (std::int64_t j = 0; j < n; ++j) rowO[j] += va * rowB[j];
    }
  }
  return out;
}

Tensor bmm(const Tensor& a, const Tensor& b) {
  TSSA_CHECK(a.dim() == 3 && b.dim() == 3, "bmm expects 3-D operands");
  TSSA_CHECK(a.size(0) == b.size(0), "bmm batch dims disagree");
  const std::int64_t batch = a.size(0);
  std::vector<Tensor> outs;
  outs.reserve(static_cast<std::size_t>(batch));
  for (std::int64_t i = 0; i < batch; ++i)
    outs.push_back(matmul(a.select(0, i), b.select(0, i)));
  return ops::stack(outs, 0);
}

Tensor gather(const Tensor& a, std::int64_t dim, const Tensor& index) {
  TSSA_CHECK(index.dtype() == DType::Int64, "gather needs Int64 indices");
  TSSA_CHECK(index.dim() == a.dim(), "gather index rank must match input");
  const std::int64_t d = normalizeDim(dim, a.dim());
  Tensor out = Tensor::empty(index.sizes(), a.dtype());
  for (IndexIterator it(index.sizes()); it.valid(); it.next()) {
    Shape srcIndex(it.index().begin(), it.index().end());
    srcIndex[static_cast<std::size_t>(d)] =
        static_cast<std::int64_t>(index.scalarAt(it.index()));
    out.setScalarAt(it.index(), a.scalarAt(srcIndex));
  }
  return out;
}

std::pair<Tensor, Tensor> topk(const Tensor& a, std::int64_t k) {
  TSSA_CHECK(a.dim() >= 1, "topk needs rank >= 1");
  const std::int64_t last = a.dim() - 1;
  const std::int64_t extent = a.size(last);
  TSSA_CHECK(k >= 0 && k <= extent, "topk k out of range");
  Shape outShape = a.sizes();
  outShape[static_cast<std::size_t>(last)] = k;
  Tensor values = Tensor::empty(outShape, a.dtype());
  Tensor indices = Tensor::empty(outShape, DType::Int64);
  Shape rowShape(a.sizes().begin(), a.sizes().end() - 1);
  for (IndexIterator it(rowShape); it.valid(); it.next()) {
    std::vector<std::pair<double, std::int64_t>> row;
    row.reserve(static_cast<std::size_t>(extent));
    Shape idx(it.index().begin(), it.index().end());
    idx.push_back(0);
    for (std::int64_t j = 0; j < extent; ++j) {
      idx.back() = j;
      row.emplace_back(a.scalarAt(idx), j);
    }
    std::stable_sort(row.begin(), row.end(), [](const auto& x, const auto& y) {
      return sortsBefore(y.first, x.first);
    });
    for (std::int64_t j = 0; j < k; ++j) {
      idx.back() = j;
      values.setScalarAt(idx, row[static_cast<std::size_t>(j)].first);
      indices.setScalarAt(
          idx, static_cast<double>(row[static_cast<std::size_t>(j)].second));
    }
  }
  return {values, indices};
}

Tensor argsort(const Tensor& a, bool descending) {
  const std::int64_t last = a.dim() - 1;
  const std::int64_t extent = a.size(last);
  Tensor out = Tensor::empty(a.sizes(), DType::Int64);
  Shape rowShape(a.sizes().begin(), a.sizes().end() - 1);
  for (IndexIterator it(rowShape); it.valid(); it.next()) {
    std::vector<std::int64_t> order(static_cast<std::size_t>(extent));
    std::iota(order.begin(), order.end(), 0);
    Shape idx(it.index().begin(), it.index().end());
    idx.push_back(0);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::int64_t x, std::int64_t y) {
                       Shape ix = idx, iy = idx;
                       ix.back() = x;
                       iy.back() = y;
                       const double vx = a.scalarAt(ix);
                       const double vy = a.scalarAt(iy);
                       return descending ? sortsBefore(vy, vx)
                                         : sortsBefore(vx, vy);
                     });
    for (std::int64_t j = 0; j < extent; ++j) {
      idx.back() = j;
      out.setScalarAt(idx,
                      static_cast<double>(order[static_cast<std::size_t>(j)]));
    }
  }
  return out;
}

Tensor cumsum(const Tensor& a, std::int64_t dim) {
  const std::int64_t d = normalizeDim(dim, a.dim());
  Tensor out = a.clone();
  const std::int64_t extent = a.size(d);
  Shape outer = a.sizes();
  outer[static_cast<std::size_t>(d)] = 1;
  for (IndexIterator it(outer); it.valid(); it.next()) {
    Shape idx(it.index().begin(), it.index().end());
    double acc = 0;
    for (std::int64_t j = 0; j < extent; ++j) {
      idx[static_cast<std::size_t>(d)] = j;
      acc += a.scalarAt(idx);
      out.setScalarAt(idx, acc);
    }
  }
  return out;
}

}  // namespace oracle

// ---- Inputs -------------------------------------------------------------------

constexpr DType kDTypes[] = {DType::Float32, DType::Int64, DType::Bool};

/// What values a generated tensor holds. Special Float32 data mixes NaN,
/// ±inf, ±0.0 and repeated values (ties) into a normal spread; Finite keeps
/// Float32 data in a range every dtype can represent, for conversions out of
/// Float32 (casting NaN or inf to an integer is undefined behaviour, so
/// neither implementation is asked to). Int64 data is small either way, and
/// Bool data is 0/1.
enum class Values { Special, Finite };

/// Storage layout of a generated view of a given logical shape.
enum class Layout { Contiguous, Transposed, StepSliced, Expanded };
constexpr Layout kLayouts[] = {Layout::Contiguous, Layout::Transposed,
                               Layout::StepSliced, Layout::Expanded};

const char* layoutName(Layout layout) {
  switch (layout) {
    case Layout::Contiguous:
      return "contiguous";
    case Layout::Transposed:
      return "transposed";
    case Layout::StepSliced:
      return "step-sliced";
    case Layout::Expanded:
      return "expanded";
  }
  return "?";
}

class Gen {
 public:
  explicit Gen(std::uint64_t seed) : engine_(seed) {}

  float specialFloat() {
    static constexpr float kSpecial[] = {
        std::numeric_limits<float>::quiet_NaN(),
        std::numeric_limits<float>::infinity(),
        -std::numeric_limits<float>::infinity(),
        -0.0f,
        0.0f,
        1.5f,
        -2.25f};
    if (pick(5) == 0) return kSpecial[pick(7)];
    return std::normal_distribution<float>(0.0f, 3.0f)(engine_);
  }

  /// Fresh contiguous tensor of `shape` filled per `values`.
  Tensor fill(const Shape& shape, DType dtype, Values values) {
    Tensor t = Tensor::empty(shape, dtype);
    const std::int64_t n = t.numel();
    for (std::int64_t i = 0; i < n; ++i) {
      switch (dtype) {
        case DType::Float32:
          t.data<float>()[i] =
              values == Values::Special
                  ? specialFloat()
                  : std::uniform_real_distribution<float>(0.0f, 3.0f)(engine_);
          break;
        case DType::Int64:
          t.data<std::int64_t>()[i] =
              values == Values::Special ? pick(41) - 20 : pick(4);
          break;
        case DType::Bool:
          t.data<std::uint8_t>()[i] = static_cast<std::uint8_t>(pick(2));
          break;
      }
    }
    return t;
  }

  /// A view of logical shape `shape` laid out as `layout` over a larger or
  /// differently ordered buffer.
  Tensor view(const Shape& shape, DType dtype, Layout layout,
              Values values = Values::Special) {
    const std::size_t rank = shape.size();
    switch (layout) {
      case Layout::Contiguous:
        return fill(shape, dtype, values);
      case Layout::Transposed: {
        if (rank < 2) return fill(shape, dtype, values);
        Shape base = shape;
        std::swap(base[0], base[rank - 1]);
        return fill(base, dtype, values).transpose(0, -1);
      }
      case Layout::StepSliced: {
        if (rank < 1) return fill(shape, dtype, values);
        Shape base = shape;
        base[rank - 1] = 2 * shape[rank - 1] + 1;
        if (rank > 1) base[0] = shape[0] + 2;
        Tensor t = fill(base, dtype, values)
                       .slice(-1, 1, base[rank - 1], 2);
        return rank > 1 ? t.slice(0, 1, shape[0] + 1) : t;
      }
      case Layout::Expanded: {
        Shape base = shape;
        for (std::size_t d = 0; d < rank; d += 2) base[d] = 1;
        return fill(base, dtype, values).expand(shape);
      }
    }
    return fill(shape, dtype, values);
  }

  std::int64_t pick(std::int64_t n) {
    return std::uniform_int_distribution<std::int64_t>(0, n - 1)(engine_);
  }

 private:
  std::mt19937_64 engine_;
};

// ---- Bitwise comparison ---------------------------------------------------------

/// Raw bytes of a tensor's elements in row-major order, read through the
/// per-element accessor-free path (a contiguous tensor's storage span).
std::vector<std::byte> bytesOf(const Tensor& t) {
  EXPECT_TRUE(t.isContiguous());
  const std::size_t n =
      static_cast<std::size_t>(t.numel()) * dtypeSize(t.dtype());
  std::vector<std::byte> out(n);
  if (n != 0)
    std::memcpy(out.data(),
                t.storage()->raw() + static_cast<std::size_t>(
                                         t.storageOffset()) *
                                         dtypeSize(t.dtype()),
                n);
  return out;
}

::testing::AssertionResult bitwiseEqual(const Tensor& want,
                                        const Tensor& got) {
  if (want.dtype() != got.dtype())
    return ::testing::AssertionFailure()
           << "dtype " << got.dtype() << ", oracle " << want.dtype();
  if (want.sizes() != got.sizes())
    return ::testing::AssertionFailure()
           << "shape " << bracketed(got.sizes()) << ", oracle "
           << bracketed(want.sizes());
  const std::vector<std::byte> a = bytesOf(want);
  const std::vector<std::byte> b = bytesOf(got);
  if (a.size() != b.size() ||
      (!a.empty() && std::memcmp(a.data(), b.data(), a.size()) != 0))
    return ::testing::AssertionFailure()
           << "bits differ: got " << got << ", oracle " << want;
  return ::testing::AssertionSuccess();
}

/// Runs both implementations: either both throw tssa::Error, or both return
/// and their results are bitwise equal.
template <typename R>
::testing::AssertionResult sameOutcome(const std::function<R()>& want,
                                       const std::function<R()>& got) {
  std::optional<R> w, g;
  bool wantThrew = false, gotThrew = false;
  try {
    w = want();
  } catch (const Error&) {
    wantThrew = true;
  }
  try {
    g = got();
  } catch (const Error&) {
    gotThrew = true;
  }
  if (wantThrew || gotThrew) {
    if (wantThrew == gotThrew) return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << (gotThrew ? "threw; the oracle did not"
                        : "returned; the oracle threw");
  }
  if constexpr (std::is_same_v<R, Tensor>) {
    return bitwiseEqual(*w, *g);
  } else {
    ::testing::AssertionResult first = bitwiseEqual(w->first, g->first);
    if (!first) return first;
    return bitwiseEqual(w->second, g->second);
  }
}

#define EXPECT_SAME_TENSOR(want, got)                          \
  EXPECT_TRUE(sameOutcome<Tensor>([&] { return (want); },      \
                                  [&] { return (got); }))

std::string describe(const Shape& shape, DType dtype, Layout layout) {
  std::ostringstream os;
  os << dtype << bracketed(shape) << " " << layoutName(layout);
  return os.str();
}

/// Logical shapes every elementwise and reduction check runs over: rank 0
/// through 3, an extent-0 dim, and rows long and short.
const std::vector<Shape>& shapes() {
  static const std::vector<Shape> kShapes = {
      {}, {7}, {3, 5}, {2, 3, 4}, {4, 1, 6}, {3, 0, 2}, {2, 17}};
  return kShapes;
}

// ---- Conversions and copies ---------------------------------------------------

TEST(KernelOracleTest, ToMatchesPerElementCastForEveryDTypePair) {
  Gen gen(11);
  for (const Shape& shape : shapes()) {
    for (Layout layout : kLayouts) {
      for (DType from : kDTypes) {
        for (DType to : kDTypes) {
          SCOPED_TRACE(describe(shape, from, layout) + " -> " +
                       dtypeName(to));
          const Values values = from == DType::Float32 && to != from
                                    ? Values::Finite
                                    : Values::Special;
          const Tensor src = gen.view(shape, from, layout, values);
          EXPECT_SAME_TENSOR(oracle::to(src, to), src.to(to));
        }
      }
    }
  }
}

/// A destination view over a fresh buffer: the buffer's shape and the view
/// taken of it, so the oracle and the kernel can each write into their own
/// bitwise-identical copy of the same geometry.
struct DstView {
  Layout layout;
  Shape base;
  Tensor (*make)(const Tensor& base);
};

const DstView kDstViews[] = {
    {Layout::Contiguous, {3, 4, 5}, [](const Tensor& t) { return t; }},
    {Layout::Transposed, {5, 4, 3},
     [](const Tensor& t) { return t.transpose(0, -1); }},
    {Layout::StepSliced, {5, 4, 11},
     [](const Tensor& t) { return t.slice(-1, 1, 11, 2).slice(0, 1, 4); }},
};

TEST(KernelOracleTest, CopyIntoViewsMatchesForEveryDTypePair) {
  Gen gen(12);
  // Sources: the destination's shape in every layout, plus broadcasts.
  const std::vector<Shape> srcShapes = {{3, 4, 5}, {4, 1}, {5}, {}, {3, 1, 5}};
  for (const DstView& dst : kDstViews) {
    for (const Shape& srcShape : srcShapes) {
      for (Layout srcLayout : kLayouts) {
        for (DType from : kDTypes) {
          for (DType to : kDTypes) {
            SCOPED_TRACE(describe(srcShape, from, srcLayout) + " into " +
                         describe({3, 4, 5}, to, dst.layout));
            const Values values = from == DType::Float32 && to != from
                                      ? Values::Finite
                                      : Values::Special;
            const Tensor src = gen.view(srcShape, from, srcLayout, values);
            Tensor want = gen.fill(dst.base, to, Values::Special);
            Tensor got = want.clone();
            Tensor wantView = dst.make(want);
            oracle::copyInto(wantView, src);
            dst.make(got).copy_(src);
            EXPECT_TRUE(bitwiseEqual(want, got));
          }
        }
      }
    }
  }
}

TEST(KernelOracleTest, OverlappingCopySnapshotsTheSource) {
  Gen gen(13);
  for (DType dtype : kDTypes) {
    SCOPED_TRACE(dtypeName(dtype));
    Tensor want = gen.fill({6, 6}, dtype, Values::Special);
    Tensor got = want.clone();
    Tensor wantDst = want.slice(0, 0, 6, 2);
    oracle::copyInto(wantDst, want.transpose(0, 1).slice(0, 1, 4));
    got.slice(0, 0, 6, 2).copy_(got.transpose(0, 1).slice(0, 1, 4));
    EXPECT_TRUE(bitwiseEqual(want, got));
  }
}

TEST(KernelOracleTest, FillOfStridedViewsMatches) {
  Gen gen(14);
  for (const DstView& dst : kDstViews) {
    for (DType dtype : kDTypes) {
      SCOPED_TRACE(describe({3, 4, 5}, dtype, dst.layout));
      Tensor want = gen.fill(dst.base, dtype, Values::Special);
      Tensor got = want.clone();
      Tensor wantView = dst.make(want);
      oracle::fill(wantView, Scalar(2.5));
      dst.make(got).fill_(Scalar(2.5));
      EXPECT_TRUE(bitwiseEqual(want, got));
    }
  }
}

// ---- Elementwise -----------------------------------------------------------------

using BinaryFn = Tensor (*)(const Tensor&, const Tensor&);
using UnaryFn = Tensor (*)(const Tensor&);

/// Output dtype rule of an elementwise op.
enum class Out { Promote, Float32, Bool, Same };

DType outDType(Out rule, DType a, DType b) {
  switch (rule) {
    case Out::Promote:
      return promoteTypes(a, b);
    case Out::Float32:
      return DType::Float32;
    case Out::Bool:
      return DType::Bool;
    case Out::Same:
      return a;
  }
  return a;
}

struct BinaryCase {
  const char* name;
  Out out;
  double (*fn)(double, double);
  BinaryFn got;
};

double b2d(bool v) { return v ? 1.0 : 0.0; }

const BinaryCase kBinaryCases[] = {
    {"add", Out::Promote, [](double x, double y) { return x + y; },
     static_cast<BinaryFn>(ops::add)},
    {"sub", Out::Promote, [](double x, double y) { return x - y; },
     static_cast<BinaryFn>(ops::sub)},
    {"mul", Out::Promote, [](double x, double y) { return x * y; },
     static_cast<BinaryFn>(ops::mul)},
    {"div", Out::Float32, [](double x, double y) { return x / y; },
     static_cast<BinaryFn>(ops::div)},
    {"pow", Out::Float32, [](double x, double y) { return std::pow(x, y); },
     ops::pow},
    {"minimum", Out::Promote,
     [](double x, double y) { return std::min(x, y); }, ops::minimum},
    {"maximum", Out::Promote,
     [](double x, double y) { return std::max(x, y); }, ops::maximum},
    {"eq", Out::Bool, [](double x, double y) { return b2d(x == y); }, ops::eq},
    {"ne", Out::Bool, [](double x, double y) { return b2d(x != y); }, ops::ne},
    {"lt", Out::Bool, [](double x, double y) { return b2d(x < y); }, ops::lt},
    {"le", Out::Bool, [](double x, double y) { return b2d(x <= y); }, ops::le},
    {"gt", Out::Bool, [](double x, double y) { return b2d(x > y); }, ops::gt},
    {"ge", Out::Bool, [](double x, double y) { return b2d(x >= y); }, ops::ge},
    {"logicalAnd", Out::Bool,
     [](double x, double y) { return b2d(x != 0.0 && y != 0.0); },
     ops::logicalAnd},
    {"logicalOr", Out::Bool,
     [](double x, double y) { return b2d(x != 0.0 || y != 0.0); },
     ops::logicalOr},
};

/// Operand shape pairs: equal shapes, row and column broadcasts, rank-0 and
/// extent-0 operands.
const std::vector<std::pair<Shape, Shape>>& binaryShapes() {
  static const std::vector<std::pair<Shape, Shape>> kPairs = {
      {{3, 4, 5}, {3, 4, 5}}, {{3, 4, 5}, {4, 1}}, {{2, 17}, {2, 1}},
      {{1, 5}, {4, 1}},       {{3, 4, 5}, {}},     {{}, {}},
      {{3, 0, 2}, {1, 2}},    {{3, 0, 2}, {2}}, {{7}, {7}}};
  return kPairs;
}

TEST(KernelOracleTest, BinaryBroadcastsMatchForEveryDTypePair) {
  Gen gen(21);
  for (const BinaryCase& c : kBinaryCases) {
    for (const auto& [shapeA, shapeB] : binaryShapes()) {
      for (Layout la : kLayouts) {
        for (Layout lb : {Layout::Contiguous, Layout::Transposed,
                          Layout::Expanded}) {
          for (DType da : kDTypes) {
            for (DType db : kDTypes) {
              const DType out = outDType(c.out, da, db);
              SCOPED_TRACE(std::string(c.name) + " " +
                           describe(shapeA, da, la) + " , " +
                           describe(shapeB, db, lb));
              const Tensor a = gen.view(shapeA, da, la);
              const Tensor b = gen.view(shapeB, db, lb);
              if (out == DType::Bool && c.out == Out::Promote) {
                // Bool ⊕ Bool arithmetic stores 0/1; Bool - Bool raises.
                if (std::string(c.name) == "sub") {
                  EXPECT_THROW(c.got(a, b), Error);
                  continue;
                }
                EXPECT_SAME_TENSOR(
                    oracle::binaryOp(a, b, out,
                                     [&](double x, double y) {
                                       return b2d(c.fn(x, y) != 0.0);
                                     }),
                    c.got(a, b));
                continue;
              }
              EXPECT_SAME_TENSOR(oracle::binaryOp(a, b, out, c.fn),
                                 c.got(a, b));
            }
          }
        }
      }
    }
  }
}

TEST(KernelOracleTest, ScalarOperandOverloadsMatch) {
  Gen gen(22);
  for (DType dtype : kDTypes) {
    for (Layout layout : kLayouts) {
      SCOPED_TRACE(describe({3, 4, 5}, dtype, layout));
      const Tensor a = gen.view({3, 4, 5}, dtype, layout);
      const Tensor s = Tensor::scalar(Scalar(2.5), DType::Float32);
      EXPECT_SAME_TENSOR(
          oracle::binaryOp(a, s, DType::Float32,
                           [](double x, double y) { return x * y; }),
          ops::mul(a, Scalar(2.5)));
    }
  }
}

struct UnaryCase {
  const char* name;
  Out out;
  double (*fn)(double);
  UnaryFn got;
  bool boolSafe;  // false where a Bool input raises (neg)
};

const UnaryCase kUnaryCases[] = {
    {"neg", Out::Same, [](double x) { return -x; }, ops::neg, false},
    {"exp", Out::Float32, [](double x) { return std::exp(x); }, ops::exp,
     true},
    {"log", Out::Float32, [](double x) { return std::log(x); }, ops::log,
     true},
    {"sqrt", Out::Float32, [](double x) { return std::sqrt(x); }, ops::sqrt,
     true},
    {"abs", Out::Same, [](double x) { return std::abs(x); }, ops::abs, true},
    {"sigmoid", Out::Float32,
     [](double x) { return 1.0 / (1.0 + std::exp(-x)); }, ops::sigmoid, true},
    {"tanh", Out::Float32, [](double x) { return std::tanh(x); }, ops::tanh,
     true},
    {"relu", Out::Same, [](double x) { return x > 0 ? x : 0.0; }, ops::relu,
     true},
    {"logicalNot", Out::Bool, [](double x) { return b2d(x == 0.0); },
     ops::logicalNot, true},
};

TEST(KernelOracleTest, UnaryOpsMatchForEveryDType) {
  Gen gen(23);
  for (const UnaryCase& c : kUnaryCases) {
    for (const Shape& shape : shapes()) {
      for (Layout layout : kLayouts) {
        for (DType dtype : kDTypes) {
          if (dtype == DType::Bool && !c.boolSafe) continue;
          SCOPED_TRACE(std::string(c.name) + " " +
                       describe(shape, dtype, layout));
          const Tensor a = gen.view(shape, dtype, layout);
          EXPECT_SAME_TENSOR(
              oracle::unaryOp(a, outDType(c.out, dtype, dtype), c.fn),
              c.got(a));
        }
      }
    }
  }
  // clamp carries its bounds in the closure.
  for (DType dtype : kDTypes) {
    for (Layout layout : kLayouts) {
      SCOPED_TRACE("clamp " + describe({3, 4, 5}, dtype, layout));
      const Tensor a = gen.view({3, 4, 5}, dtype, layout);
      EXPECT_SAME_TENSOR(oracle::unaryOp(a, dtype,
                                         [](double x) {
                                           return std::clamp(x, 0.0, 1.0);
                                         }),
                         ops::clamp(a, Scalar(0.0), Scalar(1.0)));
    }
  }
}

TEST(KernelOracleTest, WhereMatchesForEveryDTypePair) {
  Gen gen(24);
  const std::vector<std::array<Shape, 3>> shapeSets = {
      {Shape{3, 4, 5}, Shape{3, 4, 5}, Shape{3, 4, 5}},
      {Shape{4, 1}, Shape{3, 4, 5}, Shape{}},
      {Shape{3, 4, 5}, Shape{5}, Shape{4, 1}},
      {Shape{}, Shape{2, 17}, Shape{2, 1}},
      {Shape{3, 0, 2}, Shape{2}, Shape{}}};
  for (const auto& [sc, sa, sb] : shapeSets) {
    for (Layout layout : kLayouts) {
      for (DType da : kDTypes) {
        for (DType db : kDTypes) {
          SCOPED_TRACE(describe(sc, DType::Bool, layout) + " ? " +
                       describe(sa, da, layout) + " : " +
                       describe(sb, db, Layout::Transposed));
          const Tensor cond = gen.view(sc, DType::Bool, layout);
          const Tensor a = gen.view(sa, da, layout);
          const Tensor b = gen.view(sb, db, Layout::Transposed);
          EXPECT_SAME_TENSOR(oracle::where(cond, a, b),
                             ops::where(cond, a, b));
        }
      }
    }
  }
}

// ---- Reductions ------------------------------------------------------------------

TEST(KernelOracleTest, DimReductionsMatchInEveryLayout) {
  Gen gen(31);
  for (const Shape& shape : shapes()) {
    for (Layout layout : kLayouts) {
      for (DType dtype : kDTypes) {
        const Tensor a = gen.view(shape, dtype, layout);
        const auto rank = static_cast<std::int64_t>(shape.size());
        // Rank 0 has no dim to reduce: both sides must throw.
        for (std::int64_t d = -std::max<std::int64_t>(rank, 1);
             d < std::max<std::int64_t>(rank, 1); ++d) {
          for (bool keep : {false, true}) {
            SCOPED_TRACE(describe(shape, dtype, layout) + " dim " +
                         std::to_string(d) + (keep ? " keepdim" : ""));
            EXPECT_SAME_TENSOR(oracle::sum(a, d, keep), ops::sum(a, d, keep));
            EXPECT_SAME_TENSOR(oracle::mean(a, d, keep),
                               ops::mean(a, d, keep));
            EXPECT_SAME_TENSOR(oracle::maxReduce(a, d, keep),
                               ops::maxReduce(a, d, keep));
            EXPECT_SAME_TENSOR(oracle::minReduce(a, d, keep),
                               ops::minReduce(a, d, keep));
            EXPECT_SAME_TENSOR(oracle::argmax(a, d, keep),
                               ops::argmax(a, d, keep));
          }
        }
      }
    }
  }
}

TEST(KernelOracleTest, LongReductionsKeepIndexOrderRounding) {
  // Long Float32 rows make a reordered or unrounded accumulation visible;
  // the outer-dim reduction takes the row-of-accumulators loop nest.
  Gen gen(32);
  for (Layout layout : kLayouts) {
    const Tensor a = gen.view({40, 3, 300}, DType::Float32, layout,
                              Values::Finite);
    for (std::int64_t d = 0; d < 3; ++d) {
      SCOPED_TRACE(describe({40, 3, 300}, DType::Float32, layout) + " dim " +
                   std::to_string(d));
      EXPECT_SAME_TENSOR(oracle::sum(a, d, true), ops::sum(a, d, true));
      EXPECT_SAME_TENSOR(oracle::mean(a, d, false), ops::mean(a, d, false));
      EXPECT_SAME_TENSOR(oracle::softmax(a, d), ops::softmax(a, d));
    }
  }
}

TEST(KernelOracleTest, FullSumMatches) {
  Gen gen(33);
  for (const Shape& shape : shapes()) {
    for (Layout layout : kLayouts) {
      for (DType dtype : kDTypes) {
        SCOPED_TRACE(describe(shape, dtype, layout));
        const Tensor a = gen.view(shape, dtype, layout);
        EXPECT_SAME_TENSOR(oracle::sum(a), ops::sum(a));
      }
    }
  }
}

TEST(KernelOracleTest, SoftmaxMatches) {
  Gen gen(34);
  for (const Shape& shape : shapes()) {
    for (Layout layout : kLayouts) {
      for (std::int64_t d = 0; d < static_cast<std::int64_t>(shape.size());
           ++d) {
        SCOPED_TRACE(describe(shape, DType::Float32, layout) + " dim " +
                     std::to_string(d));
        const Tensor a = gen.view(shape, DType::Float32, layout);
        EXPECT_SAME_TENSOR(oracle::softmax(a, d), ops::softmax(a, d));
      }
    }
  }
}

TEST(KernelOracleTest, CumsumMatches) {
  Gen gen(35);
  for (const Shape& shape : shapes()) {
    for (Layout layout : kLayouts) {
      for (DType dtype : kDTypes) {
        for (std::int64_t d = 0; d < static_cast<std::int64_t>(shape.size());
             ++d) {
          SCOPED_TRACE(describe(shape, dtype, layout) + " dim " +
                       std::to_string(d));
          const Tensor a = gen.view(shape, dtype, layout);
          EXPECT_SAME_TENSOR(oracle::cumsum(a, d), ops::cumsum(a, d));
        }
      }
    }
  }
}

// ---- Linear algebra ----------------------------------------------------------------

TEST(KernelOracleTest, MatmulMatchesWithoutTheCastCopy) {
  Gen gen(41);
  const std::vector<std::array<std::int64_t, 3>> mkn = {
      {3, 5, 4}, {1, 7, 9}, {8, 32, 40}, {0, 3, 2}, {2, 0, 3}, {2, 3, 0}};
  for (const auto& [m, k, n] : mkn) {
    for (Layout la : kLayouts) {
      for (Layout lb : kLayouts) {
        for (DType da : kDTypes) {
          for (DType db : kDTypes) {
            SCOPED_TRACE(describe({m, k}, da, la) + " x " +
                         describe({k, n}, db, lb));
            const Tensor a = gen.view({m, k}, da, la);
            const Tensor b = gen.view({k, n}, db, lb);
            EXPECT_SAME_TENSOR(oracle::matmul(a, b), ops::matmul(a, b));
          }
        }
      }
    }
  }
}

TEST(KernelOracleTest, BmmMatchesPerBatchMatmulAndStack) {
  Gen gen(42);
  const std::vector<std::array<std::int64_t, 4>> bmkn = {
      {2, 3, 5, 4}, {3, 1, 8, 6}, {1, 4, 4, 4}, {2, 0, 3, 2}, {2, 3, 0, 2}};
  for (const auto& [batch, m, k, n] : bmkn) {
    for (Layout la : kLayouts) {
      for (Layout lb : kLayouts) {
        for (DType db : kDTypes) {
          SCOPED_TRACE(describe({batch, m, k}, DType::Float32, la) + " x " +
                       describe({batch, k, n}, db, lb));
          const Tensor a = gen.view({batch, m, k}, DType::Float32, la);
          const Tensor b = gen.view({batch, k, n}, db, lb);
          EXPECT_SAME_TENSOR(oracle::bmm(a, b), ops::bmm(a, b));
          EXPECT_SAME_TENSOR(oracle::matmul(a, b), ops::matmul(a, b));
        }
      }
    }
  }
}

// ---- Indexing and sorting ------------------------------------------------------------

TEST(KernelOracleTest, GatherMatchesForInRangeIndices) {
  Gen gen(51);
  const Shape shape{4, 5, 6};
  for (Layout layout : kLayouts) {
    for (DType dtype : kDTypes) {
      for (std::int64_t d = 0; d < 3; ++d) {
        for (Layout indexLayout : {Layout::Contiguous, Layout::Transposed}) {
          SCOPED_TRACE(describe(shape, dtype, layout) + " dim " +
                       std::to_string(d) + " index " +
                       layoutName(indexLayout));
          const Tensor a = gen.view(shape, dtype, layout);
          // Index extents: smaller on the other dims, larger on `d`.
          Shape indexShape{3, 4, 5};
          indexShape[static_cast<std::size_t>(d)] = 7;
          Shape base = indexShape;
          if (indexLayout == Layout::Transposed) std::swap(base[0], base[2]);
          Tensor index = Tensor::empty(base, DType::Int64);
          for (std::int64_t i = 0; i < index.numel(); ++i)
            index.data<std::int64_t>()[i] =
                gen.pick(shape[static_cast<std::size_t>(d)]);
          if (indexLayout == Layout::Transposed)
            index = index.transpose(0, -1);
          EXPECT_SAME_TENSOR(oracle::gather(a, d, index),
                             ops::gather(a, d, index));
        }
      }
    }
  }
}

TEST(KernelOracleTest, TopkMatchesWithTiesAndNaN) {
  Gen gen(52);
  for (const Shape& shape : shapes()) {
    if (shape.empty()) continue;
    for (Layout layout : kLayouts) {
      for (DType dtype : kDTypes) {
        const std::int64_t extent = shape.back();
        for (std::int64_t k : {std::int64_t{0}, std::int64_t{1}, extent / 2,
                               extent}) {
          if (k > extent) continue;
          SCOPED_TRACE(describe(shape, dtype, layout) + " k " +
                       std::to_string(k));
          const Tensor a = gen.view(shape, dtype, layout);
          EXPECT_TRUE((sameOutcome<std::pair<Tensor, Tensor>>(
              [&] { return oracle::topk(a, k); },
              [&] { return ops::topk(a, k); })));
        }
      }
    }
  }
}

TEST(KernelOracleTest, ArgsortMatchesWithTiesAndNaN) {
  Gen gen(53);
  for (const Shape& shape : shapes()) {
    for (Layout layout : kLayouts) {
      for (DType dtype : kDTypes) {
        for (bool descending : {false, true}) {
          SCOPED_TRACE(describe(shape, dtype, layout) +
                       (descending ? " descending" : " ascending"));
          const Tensor a = gen.view(shape, dtype, layout);
          EXPECT_SAME_TENSOR(oracle::argsort(a, descending),
                             ops::argsort(a, descending));
        }
      }
    }
  }
}

}  // namespace
}  // namespace tssa
