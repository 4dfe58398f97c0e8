#include "src/runtime/interpreter.h"

#include <algorithm>
#include <optional>

#include "src/ir/printer.h"
#include "src/obs/trace.h"
#include "src/runtime/thread_pool.h"
#include "src/tensor/ops.h"

namespace tssa::runtime {

using ir::Node;
using ir::OpKind;

namespace {

/// Rough FLOP estimate for one elementwise-style kernel output.
std::int64_t ewiseFlops(const Tensor& out) { return out.numel(); }

}  // namespace

void Interpreter::setThreads(int threads) {
  threads_ = threads == 0 ? ThreadPool::hardwareThreads()
                          : std::max(threads, 1);
}

// ---- Merge scope: collapse kernels recorded inside into one launch ---------------

struct Interpreter::MergeScope {
  explicit MergeScope(ExecContext& ctx) : ctx_(ctx) { ++ctx_.mergeDepth; }
  ~MergeScope() { --ctx_.mergeDepth; }
  MergeScope(const MergeScope&) = delete;
  MergeScope& operator=(const MergeScope&) = delete;
  ExecContext& ctx_;
};

// Inside a FusionGroup body: no kernels are recorded, only the per-element
// op count (the group itself is priced as one kernel by its caller).
struct Interpreter::SuppressScope {
  explicit SuppressScope(ExecContext& ctx) : ctx_(ctx) {
    ++ctx_.suppressDepth;
    saved_ = ctx_.suppressFlops;
    savedBytes_ = ctx_.suppressSavedBytes;
    ctx_.suppressFlops = 0;
    ctx_.suppressSavedBytes = 0;
  }
  ~SuppressScope() {
    ctx_.suppressFlops = saved_;
    ctx_.suppressSavedBytes = savedBytes_;
    --ctx_.suppressDepth;
  }
  SuppressScope(const SuppressScope&) = delete;
  SuppressScope& operator=(const SuppressScope&) = delete;
  ExecContext& ctx_;
  std::int64_t saved_ = 0;
  std::int64_t savedBytes_ = 0;
};

void Interpreter::chargeKernel(const Node& node, std::int64_t bytes,
                               std::int64_t flops, ExecContext& ctx) {
  if (profiler_ == nullptr) return;
  if (ctx.suppressDepth > 0) {
    ctx.suppressFlops += flops;
    return;
  }
  if (ctx.mergeDepth > 0) {
    if (ctx.mergePos >= ctx.mergeSlots.size()) {
      ctx.mergeSlots.push_back(
          MergedKernel{std::string(opName(node.kind())), 0, 0});
    }
    ctx.mergeSlots[ctx.mergePos].bytes += bytes;
    ctx.mergeSlots[ctx.mergePos].flops += flops;
    ++ctx.mergePos;
    return;
  }
  profiler_->kernel(opName(node.kind()), bytes, flops,
                    profiler_->host().perOpUs);
}

void Interpreter::chargeOpDispatch(ExecContext& ctx) {
  if (profiler_ == nullptr || ctx.mergeDepth > 0) return;
  profiler_->opDispatch();
}

// ---- Entry ----------------------------------------------------------------------------

std::vector<RtValue> Interpreter::run(const ir::Graph& graph,
                                      std::span<const RtValue> inputs) {
  TSSA_CHECK(inputs.size() == graph.inputs().size(),
             "expected " << graph.inputs().size() << " inputs, got "
                         << inputs.size());
  obs::TraceSpan runSpan("exec", "Interpreter.run");
  runSpan.arg("threads", threads_);
  Env env;
  for (std::size_t i = 0; i < inputs.size(); ++i)
    env[graph.inputs()[i]] = inputs[i];
  ExecContext ctx;
  // With a plan attached, publish the root arena for the whole run:
  // Tensor::empty then draws intermediates from the pool. Graph inputs and
  // outputs are held by the caller (refcount > 1), so they are never pooled
  // and nothing a caller sees ever aliases arena memory.
  std::optional<Arena::Scope> arenaScope;
  Arena::Stats before;
  if (plan_ != nullptr) {
    if (arena_ == nullptr) arena_ = std::make_unique<Arena>();
    ctx.arena = arena_.get();
    before = arena_->stats();
    arenaScope.emplace(arena_.get());
  }
  runBlockBody(*graph.topBlock(), env, ctx);
  std::vector<RtValue> outs = blockReturns(*graph.topBlock(), env);
  // Sweep what is still bound (escaped-to-return values, stale branch
  // bindings) into the pool so the next run of this program starts warm;
  // `outs`, the caller's inputs, and constants keep their storage alive and
  // are refused by the refcount guard.
  recycleEnv(env, ctx);
  if (plan_ != nullptr && profiler_ != nullptr) {
    const Arena::Stats delta = arena_->stats() - before;
    profiler_->memory(delta.freshAllocs, delta.reusedAllocs, delta.freshBytes,
                      delta.reusedBytes, delta.recycled, delta.recycleMisses);
  }
  return outs;
}

void Interpreter::runBlockBody(const ir::Block& block, Env& env,
                               ExecContext& ctx) {
  // Graph-break model: entering a block whose compiled segment contains
  // generated kernels costs one region call (guard checks, Python resume).
  if (profiler_ != nullptr && ctx.mergeDepth == 0 && ctx.suppressDepth == 0 &&
      !ctx.onWorker && profiler_->host().perRegionCallUs > 0) {
    auto it = blockHasFusion_.find(&block);
    if (it == blockHasFusion_.end()) {
      bool has = false;
      for (const Node* node : block) {
        if (node->kind() == OpKind::FusionGroup) {
          has = true;
          break;
        }
      }
      it = blockHasFusion_.emplace(&block, has).first;
    }
    if (it->second) profiler_->regionCall();
  }
  for (const Node* node : block) {
    execNode(*node, env, ctx);
    if (plan_ != nullptr) releaseDead(*node, env, ctx);
  }
}

void Interpreter::releaseDead(const Node& node, Env& env, ExecContext& ctx) {
  (void)ctx;
  const std::vector<const ir::Value*>* dead = plan_->deathsFor(&node);
  if (dead == nullptr) return;
  for (const ir::Value* v : *dead) {
    auto it = env.find(v);
    // Not bound: the value lives in a branch that was not taken, or the plan
    // belongs to another graph. Either way there is nothing to drop.
    if (it == env.end()) continue;
    // Erasing the binding is the release: if it was the last owner, the
    // Storage destructor donates the buffer to the scope-current arena.
    env.erase(it);
  }
}

void Interpreter::dropReturnBindings(const ir::Block& block, Env& env) {
  for (const ir::Value* r : block.returns()) {
    // Values from an outer scope stay bound — later nodes may read them.
    if (r->definingBlock() != &block) continue;
    auto it = env.find(r);
    if (it != env.end()) env.erase(it);
  }
}

void Interpreter::recycleEnv(Env& env, ExecContext& ctx) {
  (void)ctx;
  // Dropping the bindings donates every solely-owned buffer to the
  // scope-current arena (via ~Storage); without an active scope this is a
  // plain clear. Values still referenced from outside — the returned
  // outputs, the caller's inputs, constants — survive untouched.
  env.clear();
}

std::vector<RtValue> Interpreter::blockReturns(const ir::Block& block,
                                               const Env& env) {
  std::vector<RtValue> out;
  out.reserve(block.numReturns());
  for (const ir::Value* r : block.returns()) out.push_back(get(r, env));
  return out;
}

const RtValue& Interpreter::get(const ir::Value* v, const Env& env) const {
  auto it = env.find(v);
  TSSA_CHECK(it != env.end(), "value %" << v->id() << " not bound");
  return it->second;
}

Tensor Interpreter::tensorIn(const Node& node, std::size_t i,
                             const Env& env) const {
  return get(node.input(i), env).tensor();
}

Scalar Interpreter::scalarIn(const Node& node, std::size_t i,
                             const Env& env) const {
  return get(node.input(i), env).scalar();
}

// ---- View application --------------------------------------------------------------------

Tensor Interpreter::applyView(OpKind viewKind, const Node& node,
                              const Tensor& base, std::size_t operandStart,
                              const Env& env) const {
  const auto& attrs = node.attrs();
  switch (viewKind) {
    case OpKind::Identity:
      return base;
    case OpKind::Select:
      return base.select(attrs.i("dim"),
                         scalarIn(node, operandStart, env).toInt());
    case OpKind::Slice:
      return base.slice(attrs.i("dim"),
                        scalarIn(node, operandStart, env).toInt(),
                        scalarIn(node, operandStart + 1, env).toInt(),
                        attrs.i("step"));
    case OpKind::Reshape: {
      Shape sizes = resolvedSizes(node, operandStart, env);
      return base.isContiguous() ? base.view(std::move(sizes))
                                 : base.reshape(std::move(sizes));
    }
    case OpKind::Permute:
      return base.permute(attrs.ints("dims"));
    case OpKind::Transpose:
      return base.transpose(attrs.i("dim0"), attrs.i("dim1"));
    case OpKind::Expand:
      return base.expand(resolvedSizes(node, operandStart, env));
    case OpKind::Squeeze:
      return base.squeeze(attrs.i("dim"));
    case OpKind::Unsqueeze:
      return base.unsqueeze(attrs.i("dim"));
    case OpKind::Flatten:
      return base.flatten(attrs.i("start_dim"), attrs.i("end_dim"));
    default:
      TSSA_THROW("not a view kind: " << opName(viewKind));
  }
}

Shape Interpreter::resolvedSizes(const Node& node, std::size_t operandStart,
                                 const Env& env) const {
  Shape sizes = node.attrs().ints("sizes");
  if (!node.attrs().has("dyn")) return sizes;
  // Symbolic-dim graphs leave runtime extents as -1 placeholders bound from
  // trailing scalar operands, in order (IRBuilder's dynamic-size overloads).
  std::size_t k = operandStart;
  for (std::int64_t& s : sizes) {
    if (s != -1) continue;
    TSSA_CHECK(k < node.numInputs(), "dyn sizes: missing extent operand");
    s = scalarIn(node, k++, env).toInt();
    TSSA_CHECK(s >= 0, "dyn sizes: negative runtime extent " << s);
  }
  return sizes;
}

// ---- Fusion kernel cache -----------------------------------------------------------------

texpr::Kernel* Interpreter::kernelFor(const Node& node,
                                      const ir::Block& body) {
  std::lock_guard<std::mutex> lock(kernelsMutex_);
  auto it = kernels_.find(&node);
  if (it == kernels_.end()) {
    std::unique_ptr<texpr::Kernel> compiled;
    if (texpr::Kernel::supports(body))
      compiled = std::make_unique<texpr::Kernel>(body, texprJit_);
    it = kernels_.emplace(&node, std::move(compiled)).first;
  }
  return it->second.get();
}

// ---- Threaded ParallelMap ----------------------------------------------------------------

bool Interpreter::tryParallelMap(const Node& node, Env& env, ExecContext& ctx,
                                 std::int64_t trip,
                                 const std::vector<RtValue>& carried) {
  // Preconditions: a worker budget, top-level context (a ParallelMap cannot
  // nest inside another one's body, but be defensive), and the converting
  // pass's independence proof attached as metadata.
  if (threads_ <= 1 || trip <= 1 || ctx.onWorker || ctx.mergeDepth > 0 ||
      ctx.suppressDepth > 0) {
    return false;
  }
  if (!node.attrs().has("par_dims")) return false;
  const std::vector<std::int64_t>& dims = node.attrs().ints("par_dims");
  if (dims.size() != carried.size()) return false;
  for (std::size_t k = 0; k < carried.size(); ++k) {
    if (dims[k] < 0) continue;  // read-only pass-through
    if (!carried[k].isTensor()) return false;
    const Tensor& t = carried[k].tensor();
    // Every iteration writes slice `i` of this dimension, so the extent must
    // cover the trip count (the serial path would throw out-of-range too —
    // let it produce that error).
    if (dims[k] >= t.dim() || t.size(dims[k]) < trip) return false;
  }

  const ir::Block& body = *node.block(0);

  // Pre-allocated output slots. Written slots get a private buffer cloned
  // from the carried input: slices the loop never writes (trip < extent)
  // keep their input values, exactly as in serial execution. The clone is an
  // execution artifact of the threaded engine, not a modelled kernel — the
  // profiler charge below is derived purely from the merged slots, matching
  // the serial path bit-for-bit.
  std::vector<RtValue> outs(carried.size());
  for (std::size_t k = 0; k < carried.size(); ++k)
    outs[k] = dims[k] >= 0 ? RtValue(carried[k].tensor().clone()) : carried[k];

  const int workers =
      static_cast<int>(std::min<std::int64_t>(threads_, trip));
  std::vector<std::vector<MergedKernel>> workerSlots(
      static_cast<std::size_t>(workers));
  std::vector<Arena::Stats> workerArenaDeltas(static_cast<std::size_t>(workers));

  ThreadPool::shared().parallelFor(
      trip, workers, [&](std::int64_t begin, std::int64_t end, int chunk) {
        // Worker-side span: one per chunk, on the executing thread's
        // timeline — this is what makes thread utilization visible in the
        // trace (idle workers show as gaps between chunk spans).
        obs::TraceSpan chunkSpan("exec", "ParallelMap.chunk");
        chunkSpan.arg("chunk", chunk);
        chunkSpan.arg("begin", begin);
        chunkSpan.arg("end", end);
        // Private environment: binding values is cheap (tensors are views).
        // Iterations of this chunk run serially against it, exactly like the
        // serial executor, but read the ParallelMap's *input* versions of
        // the carried values — legal because the pass proved each iteration
        // touches only its own slice.
        Env wenv = env;
        ExecContext wctx;
        wctx.onWorker = true;
        // Planned runs give each worker its own thread-local arena (no
        // contention); the Scope nests over whatever arena the calling
        // thread had published, which matters when the helping barrier runs
        // a chunk on the root thread.
        std::optional<Arena::Scope> warenaScope;
        Arena::Stats wbefore;
        if (plan_ != nullptr) {
          wctx.arena = &Arena::threadLocal();
          wbefore = wctx.arena->stats();
          warenaScope.emplace(wctx.arena);
        }
        MergeScope merge(wctx);
        for (std::int64_t it = begin; it < end; ++it) {
          wctx.mergePos = 0;  // kernel j of every iteration shares launch j
          wenv[body.param(0)] = Scalar(it);
          for (std::size_t k = 0; k < carried.size(); ++k)
            wenv[body.param(k + 1)] = carried[k];
          runBlockBody(body, wenv, wctx);
          std::vector<RtValue> rets = blockReturns(body, wenv);
          if (wctx.arena != nullptr) dropReturnBindings(body, wenv);
          for (std::size_t k = 0; k < carried.size(); ++k) {
            if (dims[k] < 0) continue;
            // This iteration owns slice `it` exclusively — lock-free write.
            Tensor dst = outs[k].tensor().select(dims[k], it);
            dst.copy_(rets[k].tensor().select(dims[k], it));
          }
          // `rets` dies here: the per-iteration results were copied into the
          // shared output slots above, so their buffers flow back into this
          // worker's pool for the next iteration (pass-through carried
          // values stay shared with the caller and are not donated).
        }
        recycleEnv(wenv, wctx);
        workerSlots[static_cast<std::size_t>(chunk)] =
            std::move(wctx.mergeSlots);
        if (wctx.arena != nullptr)
          workerArenaDeltas[static_cast<std::size_t>(chunk)] +=
              wctx.arena->stats() - wbefore;
      });

  // Deterministic slot merge: chunk order, position-wise. Every iteration
  // records the same kernel sequence (the body has no control flow), so this
  // reproduces the serial accumulation exactly.
  std::vector<MergedKernel> slots;
  for (const std::vector<MergedKernel>& ws : workerSlots) {
    for (std::size_t j = 0; j < ws.size(); ++j) {
      if (j >= slots.size()) slots.push_back(MergedKernel{ws[j].name, 0, 0});
      slots[j].bytes += ws[j].bytes;
      slots[j].flops += ws[j].flops;
    }
  }
  if (profiler_ != nullptr) {
    for (const MergedKernel& slot : slots) {
      profiler_->kernel("tssa::ParallelMap(" + slot.name + ")", slot.bytes,
                        slot.flops, profiler_->host().perOpUs);
    }
    if (plan_ != nullptr) {
      // Worker-arena traffic, merged at the barrier (a single-threaded
      // point). Unlike launch counts, the fresh/reuse split legitimately
      // varies with the thread count — each worker warms its own pool.
      Arena::Stats total;
      for (const Arena::Stats& d : workerArenaDeltas) total += d;
      profiler_->memory(total.freshAllocs, total.reusedAllocs,
                        total.freshBytes, total.reusedBytes, total.recycled,
                        total.recycleMisses);
    }
  }
  for (std::size_t k = 0; k < outs.size(); ++k)
    env[node.output(k)] = std::move(outs[k]);
  return true;
}

// ---- Node execution ----------------------------------------------------------------------

void Interpreter::execNode(const Node& node, Env& env, ExecContext& ctx) {
  const OpKind kind = node.kind();
  const auto& attrs = node.attrs();

  auto bindOut = [&](std::size_t i, RtValue v) {
    env[node.output(i)] = std::move(v);
  };

  // Elementwise binary compute.
  auto evalBinary = [&](auto&& fn) {
    Tensor a = tensorIn(node, 0, env);
    Tensor b = tensorIn(node, 1, env);
    Tensor out = fn(a, b);
    chargeKernel(node, tensorBytes(a) + tensorBytes(b) + tensorBytes(out),
                 ewiseFlops(out), ctx);
    bindOut(0, std::move(out));
  };
  auto evalUnary = [&](auto&& fn) {
    Tensor a = tensorIn(node, 0, env);
    Tensor out = fn(a);
    chargeKernel(node, tensorBytes(a) + tensorBytes(out), ewiseFlops(out),
                 ctx);
    bindOut(0, std::move(out));
  };
  // In-place op: compute pure equivalent, write through the target view.
  // PyTorch semantics: one kernel, result aliases the target.
  auto evalInplace = [&](auto&& fn) {
    Tensor target = tensorIn(node, 0, env);
    Tensor result = fn(target);
    target.copy_(result);
    chargeKernel(node, 2 * tensorBytes(target), ewiseFlops(target), ctx);
    bindOut(0, target);
  };

  switch (kind) {
    // ---- structural -------------------------------------------------------
    case OpKind::Constant:
      if (attrs.has("tensor")) {
        bindOut(0, attrs.tensor("tensor"));
      } else {
        bindOut(0, attrs.scalar("value"));
      }
      return;
    case OpKind::ListConstruct: {
      std::vector<Tensor> list;
      for (std::size_t i = 0; i < node.numInputs(); ++i)
        list.push_back(tensorIn(node, i, env));
      chargeOpDispatch(ctx);
      bindOut(0, std::move(list));
      return;
    }
    case OpKind::ListIndex: {
      const auto& list = get(node.input(0), env).list();
      const std::int64_t i = scalarIn(node, 1, env).toInt();
      TSSA_CHECK(i >= 0 && i < static_cast<std::int64_t>(list.size()),
                 "list index out of range");
      chargeOpDispatch(ctx);
      bindOut(0, list[static_cast<std::size_t>(i)]);
      return;
    }
    case OpKind::Return:
      TSSA_THROW("return sentinel must not be executed");
    case OpKind::Update:
      TSSA_THROW("tssa::update is annotation-only and must be removed "
                 "before execution");

    // ---- control flow -----------------------------------------------------
    case OpKind::If: {
      const bool cond = scalarIn(node, 0, env).toBool();
      if (profiler_ != nullptr && ctx.mergeDepth == 0) profiler_->branch();
      const ir::Block& block = *node.block(cond ? 0 : 1);
      runBlockBody(block, env, ctx);
      auto rets = blockReturns(block, env);
      // Re-home the branch returns onto the If's outputs: keeping the
      // branch-local binding too would pin the refcount when the output's
      // planned death tries to recycle.
      if (ctx.arena != nullptr) dropReturnBindings(block, env);
      for (std::size_t i = 0; i < rets.size(); ++i)
        bindOut(i, std::move(rets[i]));
      return;
    }
    case OpKind::Loop: {
      const std::int64_t trip = scalarIn(node, 0, env).toInt();
      const ir::Block& body = *node.block(0);
      std::vector<RtValue> carried;
      for (std::size_t i = 1; i < node.numInputs(); ++i)
        carried.push_back(get(node.input(i), env));
      for (std::int64_t it = 0; it < trip; ++it) {
        if (profiler_ != nullptr && ctx.mergeDepth == 0)
          profiler_->loopIteration();
        env[body.param(0)] = Scalar(it);
        for (std::size_t i = 0; i < carried.size(); ++i) {
          // The previous iteration's carried value dies at this rebind (its
          // planned "death" is escape via the body Return, which the copy in
          // `carried` satisfied). First iteration / shared buffers are safe:
          // the initial values are still referenced from the outer env, so
          // recycle refuses them.
          // Move, don't copy: a copy left in `carried` would pin the
          // refcount at 2 for the whole body, so the param's planned death
          // could never free the buffer. The overwrite also drops any stale
          // binding a param without a planned death still holds.
          env[body.param(i + 1)] = std::move(carried[i]);
        }
        runBlockBody(body, env, ctx);
        carried = blockReturns(body, env);
        if (ctx.arena != nullptr) dropReturnBindings(body, env);
      }
      for (std::size_t i = 0; i < carried.size(); ++i)
        bindOut(i, std::move(carried[i]));
      return;
    }
    case OpKind::ParallelMap: {
      // Semantics of Loop, executed as one batched kernel: the horizontal
      // parallelization result (§4.2.2). Iterations are independent by
      // construction (the pass proved it), so the threaded engine really
      // runs them concurrently; without metadata or a worker budget the
      // serial walk below executes the same batched-launch pricing.
      const std::int64_t trip = scalarIn(node, 0, env).toInt();
      const ir::Block& body = *node.block(0);
      std::vector<RtValue> carried;
      for (std::size_t i = 1; i < node.numInputs(); ++i)
        carried.push_back(get(node.input(i), env));
      obs::TraceSpan span("exec", "ParallelMap");
      span.arg("trip", trip);
      if (tryParallelMap(node, env, ctx, trip, carried)) {
        span.arg("threaded", std::int64_t{1});
        span.arg("workers",
                 static_cast<std::int64_t>(
                     std::min<std::int64_t>(threads_, trip)));
        return;
      }
      span.arg("threaded", std::int64_t{0});
      std::vector<MergedKernel> slots;
      {
        MergeScope merge(ctx);
        for (std::int64_t it = 0; it < trip; ++it) {
          ctx.mergePos = 0;  // kernel j of every iteration shares launch j
          env[body.param(0)] = Scalar(it);
          for (std::size_t i = 0; i < carried.size(); ++i) {
            // Move for the same reason as the Loop path: the serial
            // ParallelMap walk also chains versions iteration-to-iteration.
            env[body.param(i + 1)] = std::move(carried[i]);
          }
          runBlockBody(body, env, ctx);
          carried = blockReturns(body, env);
          if (ctx.arena != nullptr) dropReturnBindings(body, env);
        }
        slots.swap(ctx.mergeSlots);
      }
      if (profiler_ != nullptr && ctx.mergeDepth == 0) {
        for (const MergedKernel& slot : slots) {
          profiler_->kernel("tssa::ParallelMap(" + slot.name + ")",
                            slot.bytes, slot.flops,
                            profiler_->host().perOpUs);
        }
      }
      for (std::size_t i = 0; i < carried.size(); ++i)
        bindOut(i, std::move(carried[i]));
      return;
    }
    case OpKind::FusionGroup: {
      // One kernel. External traffic only: inputs + outputs; intermediates
      // live in registers of the generated kernel.
      obs::TraceSpan span("exec", "FusionGroup");
      const ir::Block& body = *node.block(0);
      std::int64_t bytes = 0;
      std::vector<RtValue> groupInputs;
      groupInputs.reserve(node.numInputs());
      for (std::size_t i = 0; i < node.numInputs(); ++i) {
        const RtValue& v = get(node.input(i), env);
        if (v.isTensor()) bytes += tensorBytes(v.tensor());
        groupInputs.push_back(v);
      }

      // Prefer the tensor-expression kernel (the NNC-substitute backend);
      // bodies it cannot express fall back to per-node interpretation.
      texpr::Kernel* kernel =
          useTexpr_ ? kernelFor(node, body) : nullptr;

      std::vector<RtValue> rets;
      std::int64_t flops = 0;
      std::int64_t savedBytes = 0;
      texpr::Kernel::RunStats stats;
      if (kernel != nullptr) {
        // Pool workers must not recurse into the pool: a ParallelMap body's
        // fused kernels run single-threaded inside their iteration.
        rets = kernel->run(groupInputs, &stats, ctx.onWorker ? 1 : threads_);
        flops = stats.flops;
        savedBytes = stats.savedBytes;
      } else {
        for (std::size_t i = 0; i < node.numInputs(); ++i)
          env[body.param(i)] = groupInputs[i];
        SuppressScope suppress(ctx);
        runBlockBody(body, env, ctx);
        flops = ctx.suppressFlops;
        savedBytes = ctx.suppressSavedBytes;
        rets = blockReturns(body, env);
        if (ctx.arena != nullptr) dropReturnBindings(body, env);
      }
      for (const RtValue& r : rets) {
        if (r.isTensor()) bytes += tensorBytes(r.tensor());
      }
      bytes = std::max<std::int64_t>(0, bytes - savedBytes);
      if (span.active()) {
        span.arg("backend", kernel != nullptr ? "texpr" : "interp");
        span.arg("bytes", bytes);
        span.arg("flops", flops);
        if (kernel != nullptr) {
          span.arg("elems", stats.elems);
          span.arg("inplace", stats.inplace);
        }
      }
      if (profiler_ != nullptr) chargeKernel(node, bytes, flops, ctx);
      for (std::size_t i = 0; i < rets.size(); ++i)
        bindOut(i, std::move(rets[i]));
      return;
    }

    // ---- scalar arithmetic --------------------------------------------------
    case OpKind::ScalarAdd:
    case OpKind::ScalarSub:
    case OpKind::ScalarMul:
    case OpKind::ScalarMod:
    case OpKind::ScalarMin:
    case OpKind::ScalarMax: {
      const Scalar a = scalarIn(node, 0, env);
      const Scalar b = scalarIn(node, 1, env);
      chargeOpDispatch(ctx);
      if (a.isFloat() || b.isFloat()) {
        const double x = a.toDouble(), y = b.toDouble();
        double r = 0;
        switch (kind) {
          case OpKind::ScalarAdd: r = x + y; break;
          case OpKind::ScalarSub: r = x - y; break;
          case OpKind::ScalarMul: r = x * y; break;
          case OpKind::ScalarMin: r = std::min(x, y); break;
          case OpKind::ScalarMax: r = std::max(x, y); break;
          default: TSSA_THROW("mod of float scalars");
        }
        bindOut(0, Scalar(r));
      } else {
        const std::int64_t x = a.toInt(), y = b.toInt();
        std::int64_t r = 0;
        switch (kind) {
          case OpKind::ScalarAdd: r = x + y; break;
          case OpKind::ScalarSub: r = x - y; break;
          case OpKind::ScalarMul: r = x * y; break;
          case OpKind::ScalarMod: TSSA_CHECK(y != 0, "mod by zero"); r = x % y; break;
          case OpKind::ScalarMin: r = std::min(x, y); break;
          case OpKind::ScalarMax: r = std::max(x, y); break;
          default: break;
        }
        bindOut(0, Scalar(r));
      }
      return;
    }
    case OpKind::SizeOf: {
      // Reads the runtime extent off the tensor: the binding step that makes
      // a symbolically-shaped graph concrete (trip counts, factory sizes).
      const Tensor t = tensorIn(node, 0, env);
      std::int64_t d = attrs.i("dim");
      if (d < 0) d += static_cast<std::int64_t>(t.sizes().size());
      chargeOpDispatch(ctx);
      bindOut(0, Scalar(t.size(d)));
      return;
    }
    case OpKind::ScalarLt:
    case OpKind::ScalarLe:
    case OpKind::ScalarGt:
    case OpKind::ScalarGe:
    case OpKind::ScalarEq:
    case OpKind::ScalarNe: {
      const double x = scalarIn(node, 0, env).toDouble();
      const double y = scalarIn(node, 1, env).toDouble();
      chargeOpDispatch(ctx);
      bool r = false;
      switch (kind) {
        case OpKind::ScalarLt: r = x < y; break;
        case OpKind::ScalarLe: r = x <= y; break;
        case OpKind::ScalarGt: r = x > y; break;
        case OpKind::ScalarGe: r = x >= y; break;
        case OpKind::ScalarEq: r = x == y; break;
        case OpKind::ScalarNe: r = x != y; break;
        default: break;
      }
      bindOut(0, Scalar(r));
      return;
    }

    // ---- elementwise binary -------------------------------------------------
    case OpKind::Add: return evalBinary([](const Tensor& a, const Tensor& b) { return ops::add(a, b); });
    case OpKind::Sub: return evalBinary([](const Tensor& a, const Tensor& b) { return ops::sub(a, b); });
    case OpKind::Mul: return evalBinary([](const Tensor& a, const Tensor& b) { return ops::mul(a, b); });
    case OpKind::Div: return evalBinary([](const Tensor& a, const Tensor& b) { return ops::div(a, b); });
    case OpKind::Pow: return evalBinary([](const Tensor& a, const Tensor& b) { return ops::pow(a, b); });
    case OpKind::Minimum: return evalBinary([](const Tensor& a, const Tensor& b) { return ops::minimum(a, b); });
    case OpKind::Maximum: return evalBinary([](const Tensor& a, const Tensor& b) { return ops::maximum(a, b); });
    case OpKind::Eq: return evalBinary([](const Tensor& a, const Tensor& b) { return ops::eq(a, b); });
    case OpKind::Ne: return evalBinary([](const Tensor& a, const Tensor& b) { return ops::ne(a, b); });
    case OpKind::Lt: return evalBinary([](const Tensor& a, const Tensor& b) { return ops::lt(a, b); });
    case OpKind::Le: return evalBinary([](const Tensor& a, const Tensor& b) { return ops::le(a, b); });
    case OpKind::Gt: return evalBinary([](const Tensor& a, const Tensor& b) { return ops::gt(a, b); });
    case OpKind::Ge: return evalBinary([](const Tensor& a, const Tensor& b) { return ops::ge(a, b); });
    case OpKind::LogicalAnd: return evalBinary([](const Tensor& a, const Tensor& b) { return ops::logicalAnd(a, b); });
    case OpKind::LogicalOr: return evalBinary([](const Tensor& a, const Tensor& b) { return ops::logicalOr(a, b); });

    // ---- elementwise unary -----------------------------------------------------
    case OpKind::Neg: return evalUnary([](const Tensor& a) { return ops::neg(a); });
    case OpKind::Exp: return evalUnary([](const Tensor& a) { return ops::exp(a); });
    case OpKind::Log: return evalUnary([](const Tensor& a) { return ops::log(a); });
    case OpKind::Sqrt: return evalUnary([](const Tensor& a) { return ops::sqrt(a); });
    case OpKind::Abs: return evalUnary([](const Tensor& a) { return ops::abs(a); });
    case OpKind::Sigmoid: return evalUnary([](const Tensor& a) { return ops::sigmoid(a); });
    case OpKind::Tanh: return evalUnary([](const Tensor& a) { return ops::tanh(a); });
    case OpKind::Relu: return evalUnary([](const Tensor& a) { return ops::relu(a); });
    case OpKind::LogicalNot: return evalUnary([](const Tensor& a) { return ops::logicalNot(a); });
    case OpKind::Clamp:
      return evalUnary([&](const Tensor& a) {
        return ops::clamp(a, attrs.scalar("lo"), attrs.scalar("hi"));
      });
    case OpKind::Cast:
      return evalUnary([&](const Tensor& a) { return a.to(attrs.dtype("dtype")); });

    // ---- elementwise n-ary --------------------------------------------------------
    case OpKind::Where: {
      Tensor c = tensorIn(node, 0, env);
      Tensor a = tensorIn(node, 1, env);
      Tensor b = tensorIn(node, 2, env);
      Tensor out = ops::where(c, a, b);
      chargeKernel(node,
                   tensorBytes(c) + tensorBytes(a) + tensorBytes(b) +
                       tensorBytes(out),
                   ewiseFlops(out), ctx);
      bindOut(0, std::move(out));
      return;
    }
    case OpKind::MaskedFill: {
      Tensor a = tensorIn(node, 0, env);
      Tensor mask = tensorIn(node, 1, env);
      const Scalar v = scalarIn(node, 2, env);
      Tensor out = ops::maskedFill(a, mask, v);
      chargeKernel(node, tensorBytes(a) + tensorBytes(mask) + tensorBytes(out),
                   ewiseFlops(out), ctx);
      bindOut(0, std::move(out));
      return;
    }

    // ---- reductions -------------------------------------------------------------
    case OpKind::Sum: {
      Tensor a = tensorIn(node, 0, env);
      Tensor out = ops::sum(a);
      chargeKernel(node, tensorBytes(a), a.numel(), ctx);
      bindOut(0, std::move(out));
      return;
    }
    case OpKind::SumDim:
    case OpKind::Mean:
    case OpKind::MaxDim:
    case OpKind::MinDim:
    case OpKind::Argmax: {
      Tensor a = tensorIn(node, 0, env);
      const std::int64_t dim = attrs.i("dim");
      const bool keep = attrs.bOr("keepdim", false);
      Tensor out;
      switch (kind) {
        case OpKind::SumDim: out = ops::sum(a, dim, keep); break;
        case OpKind::Mean: out = ops::mean(a, dim, keep); break;
        case OpKind::MaxDim: out = ops::maxReduce(a, dim, keep); break;
        case OpKind::MinDim: out = ops::minReduce(a, dim, keep); break;
        case OpKind::Argmax: out = ops::argmax(a, dim, keep); break;
        default: break;
      }
      chargeKernel(node, tensorBytes(a) + tensorBytes(out), a.numel(), ctx);
      bindOut(0, std::move(out));
      return;
    }
    case OpKind::Softmax: {
      Tensor a = tensorIn(node, 0, env);
      Tensor out = ops::softmax(a, attrs.i("dim"));
      chargeKernel(node, 2 * tensorBytes(a) + tensorBytes(out), 5 * a.numel(),
                   ctx);
      bindOut(0, std::move(out));
      return;
    }
    case OpKind::Cumsum: {
      Tensor a = tensorIn(node, 0, env);
      Tensor out = ops::cumsum(a, attrs.i("dim"));
      chargeKernel(node, tensorBytes(a) + tensorBytes(out), a.numel(), ctx);
      bindOut(0, std::move(out));
      return;
    }

    // ---- linear algebra ------------------------------------------------------------
    case OpKind::Matmul: {
      Tensor a = tensorIn(node, 0, env);
      Tensor b = tensorIn(node, 1, env);
      Tensor out = ops::matmul(a, b);
      const std::int64_t flops =
          a.dim() == 2 ? 2 * a.size(0) * a.size(1) * b.size(b.dim() - 1)
                       : 2 * a.size(0) * a.size(1) * a.size(2) * b.size(2);
      chargeKernel(node, tensorBytes(a) + tensorBytes(b) + tensorBytes(out),
                   flops, ctx);
      bindOut(0, std::move(out));
      return;
    }
    case OpKind::Bmm: {
      Tensor a = tensorIn(node, 0, env);
      Tensor b = tensorIn(node, 1, env);
      Tensor out = ops::bmm(a, b);
      chargeKernel(node, tensorBytes(a) + tensorBytes(b) + tensorBytes(out),
                   2 * a.size(0) * a.size(1) * a.size(2) * b.size(2), ctx);
      bindOut(0, std::move(out));
      return;
    }

    // ---- shape / data movement --------------------------------------------------------
    case OpKind::Cat:
    case OpKind::Stack: {
      const auto& list = get(node.input(0), env).list();
      const std::int64_t dim = attrs.i("dim");
      Tensor out = kind == OpKind::Cat ? ops::cat(list, dim)
                                       : ops::stack(list, dim);
      chargeKernel(node, 2 * tensorBytes(out), 0, ctx);
      bindOut(0, std::move(out));
      return;
    }
    case OpKind::IndexSelect: {
      Tensor a = tensorIn(node, 0, env);
      Tensor idx = tensorIn(node, 1, env);
      Tensor out = ops::indexSelect(a, attrs.i("dim"), idx);
      chargeKernel(node, tensorBytes(out) * 2 + tensorBytes(idx), 0, ctx);
      bindOut(0, std::move(out));
      return;
    }
    case OpKind::Gather: {
      Tensor a = tensorIn(node, 0, env);
      Tensor idx = tensorIn(node, 1, env);
      Tensor out = ops::gather(a, attrs.i("dim"), idx);
      chargeKernel(node, tensorBytes(out) * 2 + tensorBytes(idx), 0, ctx);
      bindOut(0, std::move(out));
      return;
    }
    case OpKind::Topk: {
      // GPU selection/sort runs as a multi-pass primitive (CUB-style) with
      // host synchronization between stages: model it as four dependent
      // kernels plus two device syncs.
      Tensor a = tensorIn(node, 0, env);
      auto [values, indices] = ops::topk(a, attrs.i("k"));
      for (int pass = 0; pass < 4; ++pass) {
        chargeKernel(node, tensorBytes(a) + tensorBytes(values), a.numel(),
                     ctx);
      }
      if (profiler_ != nullptr && ctx.mergeDepth == 0 &&
          ctx.suppressDepth == 0)
        profiler_->hostOnly(2 * profiler_->device().syncLatencyUs);
      bindOut(0, std::move(values));
      bindOut(1, std::move(indices));
      return;
    }
    case OpKind::Argsort: {
      Tensor a = tensorIn(node, 0, env);
      Tensor out = ops::argsort(a, attrs.b("descending"));
      for (int pass = 0; pass < 4; ++pass) {
        chargeKernel(node, tensorBytes(a) + tensorBytes(out), a.numel(), ctx);
      }
      if (profiler_ != nullptr && ctx.mergeDepth == 0 &&
          ctx.suppressDepth == 0)
        profiler_->hostOnly(2 * profiler_->device().syncLatencyUs);
      bindOut(0, std::move(out));
      return;
    }
    case OpKind::Clone:
    case OpKind::Contiguous: {
      Tensor a = tensorIn(node, 0, env);
      Tensor out = kind == OpKind::Clone ? a.clone() : a.contiguous();
      chargeKernel(node, 2 * tensorBytes(a), 0, ctx);
      bindOut(0, std::move(out));
      return;
    }

    // ---- factories -----------------------------------------------------------------------
    case OpKind::Zeros:
    case OpKind::Ones: {
      Shape sizes = resolvedSizes(node, 0, env);
      const DType dt = attrs.dtype("dtype");
      Tensor out = kind == OpKind::Zeros ? Tensor::zeros(sizes, dt)
                                         : Tensor::ones(sizes, dt);
      chargeKernel(node, tensorBytes(out), 0, ctx);
      bindOut(0, std::move(out));
      return;
    }
    case OpKind::Full: {
      Shape sizes = resolvedSizes(node, 1, env);
      Tensor out =
          Tensor::full(sizes, scalarIn(node, 0, env), attrs.dtype("dtype"));
      chargeKernel(node, tensorBytes(out), 0, ctx);
      bindOut(0, std::move(out));
      return;
    }
    case OpKind::Arange: {
      Tensor out = Tensor::arange(scalarIn(node, 0, env).toInt(),
                                  scalarIn(node, 1, env).toInt(),
                                  scalarIn(node, 2, env).toInt());
      chargeKernel(node, tensorBytes(out), 0, ctx);
      bindOut(0, std::move(out));
      return;
    }

    // ---- tensor views (alias; host-only metadata op) -----------------------------------------
    case OpKind::Select:
    case OpKind::Slice:
    case OpKind::Reshape:
    case OpKind::Permute:
    case OpKind::Transpose:
    case OpKind::Expand:
    case OpKind::Squeeze:
    case OpKind::Unsqueeze:
    case OpKind::Flatten:
    case OpKind::Identity: {
      Tensor base = tensorIn(node, 0, env);
      chargeOpDispatch(ctx);
      bindOut(0, applyView(kind, node, base, 1, env));
      return;
    }

    // ---- mutation (writes through aliases; Definition 3.2) ------------------------------------
    case OpKind::Copy_: {
      Tensor dst = tensorIn(node, 0, env);
      Tensor src = tensorIn(node, 1, env);
      dst.copy_(src);
      chargeKernel(node, tensorBytes(dst) + tensorBytes(src), 0, ctx);
      bindOut(0, dst);
      return;
    }
    case OpKind::Fill_: {
      Tensor dst = tensorIn(node, 0, env);
      dst.fill_(scalarIn(node, 1, env));
      chargeKernel(node, tensorBytes(dst), 0, ctx);
      bindOut(0, dst);
      return;
    }
    case OpKind::Zero_: {
      Tensor dst = tensorIn(node, 0, env);
      dst.fill_(Scalar(0));
      chargeKernel(node, tensorBytes(dst), 0, ctx);
      bindOut(0, dst);
      return;
    }
    case OpKind::Add_:
      return evalInplace([&](const Tensor& t) {
        return ops::add(t, tensorIn(node, 1, env));
      });
    case OpKind::Sub_:
      return evalInplace([&](const Tensor& t) {
        return ops::sub(t, tensorIn(node, 1, env));
      });
    case OpKind::Mul_:
      return evalInplace([&](const Tensor& t) {
        return ops::mul(t, tensorIn(node, 1, env));
      });
    case OpKind::Div_:
      return evalInplace([&](const Tensor& t) {
        return ops::div(t, tensorIn(node, 1, env));
      });
    case OpKind::Relu_:
      return evalInplace([](const Tensor& t) { return ops::relu(t); });
    case OpKind::Sigmoid_:
      return evalInplace([](const Tensor& t) { return ops::sigmoid(t); });
    case OpKind::Tanh_:
      return evalInplace([](const Tensor& t) { return ops::tanh(t); });
    case OpKind::MaskedFill_:
      return evalInplace([&](const Tensor& t) {
        return ops::maskedFill(t, tensorIn(node, 1, env),
                               scalarIn(node, 2, env));
      });

    // ---- TensorSSA (pure semantics of Definitions 3.3/3.4) -------------------------------------
    case OpKind::Access: {
      Tensor base = tensorIn(node, 0, env);
      const OpKind viewKind = static_cast<OpKind>(attrs.i("view"));
      Tensor out = applyView(viewKind, node, base, 1, env).clone();
      chargeKernel(node, 2 * tensorBytes(out), 0, ctx);
      bindOut(0, std::move(out));
      return;
    }
    case OpKind::Assign: {
      Tensor base = tensorIn(node, 0, env);
      Tensor src = tensorIn(node, 1, env);
      const OpKind viewKind = static_cast<OpKind>(attrs.i("view"));
      // Donated buffers (marked by markInplaceAssigns) are written in place:
      // the new version reuses the dead old version's storage, so traffic is
      // just the written region, not a whole-buffer copy.
      const bool inplace = attrs.bOr("inplace", false);
      Tensor out = inplace ? base : base.clone();
      applyView(viewKind, node, out, 2, env).copy_(src);
      if (inplace) {
        if (ctx.suppressDepth > 0) {
          ctx.suppressSavedBytes += std::max<std::int64_t>(
              0, 2 * (tensorBytes(base) - tensorBytes(src)));
        }
        chargeKernel(node, 2 * tensorBytes(src), 0, ctx);
      } else {
        chargeKernel(node, 2 * tensorBytes(base) + tensorBytes(src), 0, ctx);
      }
      bindOut(0, std::move(out));
      return;
    }

  }
  TSSA_THROW("interpreter: unhandled op " << opName(kind) << " in\n"
                                          << ir::toString(node));
}

}  // namespace tssa::runtime
