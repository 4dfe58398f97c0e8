// Tensor-expression backend: single-pass evaluation of fused subgraphs.
//
// This is the reproduction's stand-in for PyTorch NNC (the paper's codegen
// backend, §4.2.1). A tssa::FusionGroup body made of elementwise compute and
// immut::access / immut::assign operators is compiled to a per-element
// expression DAG: every output element is produced by one traversal that
// reads input elements through index transforms — no intermediate tensor is
// ever materialized, which is precisely the memory behaviour of a fused
// kernel. The runtime uses it to execute fusion groups; tests cross-check it
// element-for-element against the reference interpreter.
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/ir/ir.h"
#include "src/runtime/rt_value.h"

namespace tssa::texpr {

namespace codegen {
class Generator;
}
namespace jit {
class CompiledKernel;
}

/// A compiled fusion-group body.
class Kernel {
 public:
  /// True when every operator in `body` can be expressed per-element
  /// (elementwise compute, Access/Assign with supported rules, constants).
  /// Reductions, matmuls, cat, and assign-through-expand fall back to the
  /// interpreter.
  static bool supports(const ir::Block& body);

  /// Compiles `body` (does not take ownership; the IR must outlive the
  /// kernel). With `allowJit` (and TSSA_TEXPR_JIT not set to 0), runs try
  /// the native code path first: the body is lowered to C++, compiled via
  /// jit::KernelCache, and dispatched through the C ABI; any decline falls
  /// back to the tree-walking interpreter below, bitwise-identically.
  explicit Kernel(const ir::Block& body, bool allowJit = true);
  ~Kernel();

  /// Cost-model numbers observed during a run.
  struct RunStats {
    std::int64_t flops = 0;       ///< one per produced element per op
    std::int64_t savedBytes = 0;  ///< traffic saved by donated assigns
    std::int64_t elems = 0;       ///< elements evaluated (materialized
                                  ///< returns + region sources)
    std::int64_t inplace = 0;     ///< returns written in place
  };

  /// Executes: one RtValue per body parameter, returns one tensor per body
  /// return. Tensor inputs may be views; scalar inputs feed dynamic view
  /// operands (select indices, slice bounds).
  ///
  /// A return that codegen::planRegions marks in place is written into its
  /// donated parameter's tensor and returns that tensor (the body parameter
  /// must be dead after the group, which markInplaceAssigns proves); it
  /// falls back to a fresh tensor when that tensor is not contiguous or its
  /// storage is also another in-place root. Every element is evaluated
  /// against the unmodified inputs before the first region write.
  ///
  /// With `threads > 1` the per-element loop of each output is split into
  /// static chunks on the shared runtime thread pool (every element is
  /// computed independently from read-only state, so the result — and the
  /// reported RunStats, which derive from shapes alone — is bitwise
  /// identical to the serial run at any thread count).
  std::vector<runtime::RtValue> run(std::span<const runtime::RtValue> inputs,
                                    RunStats* stats = nullptr,
                                    int threads = 1) const;

  struct Binding;  // per-run resolved shapes/dtypes/input tensors

 private:

  /// Infers the shape/dtype of every body value for this run's inputs.
  void inferAll(Binding& b) const;

  /// Evaluates the scalar element of `v` at output coordinate `coord`
  /// (a coordinate in v's own shape).
  double evalAt(const ir::Value* v, std::span<const std::int64_t> coord,
                const Binding& b) const;

  /// A value to evaluate into a fresh tensor, and the generated kernel's
  /// output index that computes it.
  struct Target {
    const ir::Value* value;
    std::int32_t runner;
  };

  /// Native-code dispatch. Returns true and fills `results` (one tensor per
  /// target) when a compiled kernel ran; false when this launch declines to
  /// the interpreter (the reason is counted in jit::KernelCache).
  bool tryRunJit(std::span<const runtime::RtValue> inputs, const Binding& b,
                 std::span<const Target> targets, std::vector<Tensor>& results,
                 int threads) const;

  /// Interpreter path: evaluates every element of `v` into `out`.
  void evalInto(const ir::Value* v, Tensor& out, const Binding& b,
                int threads) const;

  const ir::Block& body_;
  std::unique_ptr<codegen::Generator> gen_;  ///< null when JIT is off
  /// Per-signature lookup memo (shared_ptr null = known failure). Guards
  /// concurrent run() calls on one Kernel; the global KernelCache guards
  /// cross-kernel sharing.
  mutable std::mutex jitMutex_;
  mutable std::unordered_map<std::string,
                             std::shared_ptr<jit::CompiledKernel>>
      jitMemo_;
};

}  // namespace tssa::texpr
