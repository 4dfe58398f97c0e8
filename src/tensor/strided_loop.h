// Typed row walks for the reference tensor ops. Every op dispatches its
// dtypes once per call and then walks storage offsets: an odometer over the
// outer dims plus a tight loop along the innermost dim (a "row"), with
// adjacent dims that are contiguous for every operand merged first, so a
// contiguous or broadcast-by-row operand is one long row. Rows with inner
// stride 1 or 0 compile to their own tight loops (withRowStride), which is
// what makes broadcast ops like `x - max(x, keepdim)` cheap
// (see bench/micro_ops.cpp).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <type_traits>

#include "src/support/error.h"
#include "src/tensor/dtype.h"
#include "src/tensor/shape.h"
#include "src/tensor/storage.h"

namespace tssa::detail {

/// Dispatches `fn` with a value of the element type stored for `dtype`
/// (Bool is stored as one uint8_t per element).
template <typename Fn>
decltype(auto) dispatchDType(DType dtype, Fn&& fn) {
  switch (dtype) {
    case DType::Float32:
      return fn(float{});
    case DType::Int64:
      return fn(std::int64_t{});
    case DType::Bool:
      return fn(std::uint8_t{});
  }
  TSSA_THROW("unknown dtype");
}

/// Strides of an operand aligned to a (possibly broadcast) result shape: one
/// stride per result dim, 0 where the operand broadcasts (size-1 dims and
/// missing leading dims). Mirrors broadcastOffset()'s trailing-dim alignment,
/// so walking these strides visits exactly the elements broadcastOffset would
/// have produced.
inline Strides alignedStrides(std::span<const std::int64_t> outShape,
                              const Shape& sizes, const Strides& strides) {
  Strides out(outShape.size(), 0);
  const std::size_t shift = outShape.size() - sizes.size();
  for (std::size_t d = 0; d < sizes.size(); ++d)
    out[shift + d] = sizes[d] == 1 ? 0 : strides[d];
  return out;
}

/// Row-major walk over `shape` for K operands, one row at a time. Extent-1
/// dims are dropped and adjacent dims merged where every operand's layout
/// allows it, which keeps the row-major visiting order. A row is the
/// innermost remaining dim: `rowLength()` elements, operand k's elements at
/// `offset(k) + j * rowStride(k)`. `nextRow()` advances an odometer over the
/// outer dims; a carry out of dim d subtracts stride[d] * (extent[d] - 1).
///
///   for (StridedLoop<2> loop(shape, {&sa, &sb}, {offA, offB}); loop.valid();
///        loop.nextRow()) { ...row of loop.rowLength() elements... }
template <std::size_t K>
class StridedLoop {
 public:
  StridedLoop(std::span<const std::int64_t> shape,
              const std::array<const Strides*, K>& strides,
              const std::array<std::int64_t, K>& base)
      : offsets_(base) {
    rows_ = 1;
    for (std::size_t d = 0; d < shape.size(); ++d) {
      if (shape[d] == 0) rows_ = 0;
      if (shape[d] == 1) continue;
      bool merge = !extents_.empty();
      for (std::size_t k = 0; k < K && merge; ++k)
        merge = strides_[k].back() == (*strides[k])[d] * shape[d];
      if (merge) {
        extents_.back() *= shape[d];
        for (std::size_t k = 0; k < K; ++k) strides_[k].back() = (*strides[k])[d];
        continue;
      }
      extents_.push_back(shape[d]);
      for (std::size_t k = 0; k < K; ++k)
        strides_[k].push_back((*strides[k])[d]);
    }
    if (!extents_.empty()) {
      rowLength_ = extents_.back();
      for (std::size_t k = 0; k < K; ++k) rowStride_[k] = strides_[k].back();
      extents_.pop_back();
      for (std::size_t k = 0; k < K; ++k) strides_[k].pop_back();
    }
    if (rows_ != 0) rows_ = numelOf(extents_);
    coord_.assign(extents_.size(), 0);
  }

  bool valid() const { return rows_ > 0; }
  std::int64_t rowLength() const { return rowLength_; }
  std::int64_t rowStride(std::size_t k) const { return rowStride_[k]; }
  /// Storage offset of operand k's first element in the current row.
  std::int64_t offset(std::size_t k) const { return offsets_[k]; }

  void nextRow() {
    --rows_;
    for (std::size_t d = extents_.size(); d-- > 0;) {
      if (++coord_[d] < extents_[d]) {
        for (std::size_t k = 0; k < K; ++k) offsets_[k] += strides_[k][d];
        return;
      }
      coord_[d] = 0;
      for (std::size_t k = 0; k < K; ++k)
        offsets_[k] -= strides_[k][d] * (extents_[d] - 1);
    }
  }

 private:
  Shape extents_;  // outer (non-row) dims after dropping/merging
  Shape coord_;
  std::array<Strides, K> strides_;
  std::array<std::int64_t, K> offsets_;
  std::array<std::int64_t, K> rowStride_{};
  std::int64_t rowLength_ = 1;
  std::int64_t rows_ = 0;
};

/// Calls `fn` with a row stride, as a compile-time constant when it is 1
/// (contiguous) or 0 (broadcast), so those rows compile to tight loops.
template <typename Fn>
inline void withRowStride(std::int64_t stride, Fn&& fn) {
  if (stride == 1) {
    fn(std::integral_constant<std::int64_t, 1>{});
  } else if (stride == 0) {
    fn(std::integral_constant<std::int64_t, 0>{});
  } else {
    fn(stride);
  }
}

/// An element as the elementwise ops and copies compute with it: `double`,
/// Bool read as 0/1.
template <typename T>
inline double elemValue(T v) {
  if constexpr (std::is_same_v<T, std::uint8_t>) {
    return v != 0 ? 1.0 : 0.0;
  } else {
    return static_cast<double>(v);
  }
}

/// Converts one element from S to D the way copy_ always has: Float32 to
/// Float32 directly, every other pair through elemValue's `double`.
template <typename S, typename D>
inline D convertElem(S v) {
  if constexpr (std::is_same_v<S, float> && std::is_same_v<D, float>) {
    return v;
  } else {
    return static_cast<D>(elemValue(v));
  }
}

/// Element load/store through function pointers selected once per call, for
/// the mixed-dtype paths of the elementwise ops. Values travel as double
/// with elemValue's conversions; stores are a plain static_cast.
using LoadFn = double (*)(const Storage&, std::int64_t);
using StoreFn = void (*)(Storage&, std::int64_t, double);

template <typename T>
inline double loadElem(const Storage& s, std::int64_t off) {
  return elemValue(s.as<T>()[off]);
}

template <typename T>
inline void storeElem(Storage& s, std::int64_t off, double v) {
  s.as<T>()[off] = static_cast<T>(v);
}

inline LoadFn loadFnFor(DType dtype) {
  return dispatchDType(dtype, [](auto tag) -> LoadFn {
    return &loadElem<decltype(tag)>;
  });
}

inline StoreFn storeFnFor(DType dtype) {
  return dispatchDType(dtype, [](auto tag) -> StoreFn {
    return &storeElem<decltype(tag)>;
  });
}

}  // namespace tssa::detail
