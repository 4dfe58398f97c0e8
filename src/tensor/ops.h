// Out-of-place tensor operators (the "aten" compute library).
//
// Every operator here is pure: inputs are never modified and results own fresh
// storage. In-place variants live on Tensor itself (`copy_`, `fill_`) or are
// composed by the runtime as pure-compute + copy_ — mirroring how the
// TensorSSA lower-inplace canonicalization treats them.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "src/tensor/tensor.h"

namespace tssa::ops {

// ---- Elementwise binary (broadcasting) --------------------------------------

/// add/sub/mul/minimum/maximum return the promoted dtype. For two Bool
/// operands that is Bool, stored as 0/1; sub of two Bool tensors (like neg
/// of one) raises tssa::Error, as in torch.
Tensor add(const Tensor& a, const Tensor& b);
Tensor sub(const Tensor& a, const Tensor& b);
Tensor mul(const Tensor& a, const Tensor& b);
Tensor div(const Tensor& a, const Tensor& b);
Tensor pow(const Tensor& a, const Tensor& b);
Tensor minimum(const Tensor& a, const Tensor& b);
Tensor maximum(const Tensor& a, const Tensor& b);

/// Scalar right-hand sides broadcast as rank-0 tensors.
Tensor add(const Tensor& a, Scalar b);
Tensor sub(const Tensor& a, Scalar b);
Tensor mul(const Tensor& a, Scalar b);
Tensor div(const Tensor& a, Scalar b);

// ---- Comparisons (result dtype Bool) ------------------------------------------

Tensor eq(const Tensor& a, const Tensor& b);
Tensor ne(const Tensor& a, const Tensor& b);
Tensor lt(const Tensor& a, const Tensor& b);
Tensor le(const Tensor& a, const Tensor& b);
Tensor gt(const Tensor& a, const Tensor& b);
Tensor ge(const Tensor& a, const Tensor& b);
Tensor logicalAnd(const Tensor& a, const Tensor& b);
Tensor logicalOr(const Tensor& a, const Tensor& b);
Tensor logicalNot(const Tensor& a);

// ---- Elementwise unary -----------------------------------------------------------

Tensor neg(const Tensor& a);
Tensor exp(const Tensor& a);
Tensor log(const Tensor& a);
Tensor sqrt(const Tensor& a);
Tensor abs(const Tensor& a);
Tensor sigmoid(const Tensor& a);
Tensor tanh(const Tensor& a);
Tensor relu(const Tensor& a);
Tensor clamp(const Tensor& a, Scalar lo, Scalar hi);

// ---- Selection -------------------------------------------------------------------

/// Elementwise `cond ? a : b` with broadcasting. `cond` must be Bool.
Tensor where(const Tensor& cond, const Tensor& a, const Tensor& b);
/// Copy of `a` with elements where `mask` is true replaced by `value`.
Tensor maskedFill(const Tensor& a, const Tensor& mask, Scalar value);

// ---- Reductions ----------------------------------------------------------------

Tensor sum(const Tensor& a);                       // rank-0 result
Tensor sum(const Tensor& a, std::int64_t dim, bool keepDim = false);
Tensor mean(const Tensor& a, std::int64_t dim, bool keepDim = false);
Tensor maxReduce(const Tensor& a, std::int64_t dim, bool keepDim = false);
Tensor minReduce(const Tensor& a, std::int64_t dim, bool keepDim = false);
/// Index of the maximum along `dim` (Int64 result).
Tensor argmax(const Tensor& a, std::int64_t dim, bool keepDim = false);
/// Numerically-stable softmax along `dim` (Float32 result).
Tensor softmax(const Tensor& a, std::int64_t dim);

// ---- Linear algebra ---------------------------------------------------------------

/// 2-D matrix product [m,k] x [k,n] -> [m,n].
Tensor matmul(const Tensor& a, const Tensor& b);
/// Batched matrix product [b,m,k] x [b,k,n] -> [b,m,n].
Tensor bmm(const Tensor& a, const Tensor& b);

// ---- Shape combinators ---------------------------------------------------------------

/// Concatenates along `dim`; all inputs must match on the other dims.
Tensor cat(std::span<const Tensor> tensors, std::int64_t dim);
/// Stacks along a new leading-at-`dim` dimension.
Tensor stack(std::span<const Tensor> tensors, std::int64_t dim);

// ---- Gather-style indexing (produces copies, not views) ---------------------------------

/// index_select: picks rows of `a` along `dim` by 1-D Int64 `index`.
Tensor indexSelect(const Tensor& a, std::int64_t dim, const Tensor& index);
/// Gathers elements: out[i...] = a[..., index[i...], ...] along `dim`.
Tensor gather(const Tensor& a, std::int64_t dim, const Tensor& index);
/// topk values+indices along last dim, descending. Returns {values, indices}.
std::pair<Tensor, Tensor> topk(const Tensor& a, std::int64_t k);
/// Indices that sort the last dim (descending when `descending`).
Tensor argsort(const Tensor& a, bool descending);
/// Cumulative sum along `dim`.
Tensor cumsum(const Tensor& a, std::int64_t dim);

}  // namespace tssa::ops
