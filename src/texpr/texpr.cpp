#include "src/texpr/texpr.h"

#include <algorithm>
#include <cmath>

#include "src/runtime/thread_pool.h"
#include "src/tensor/shape.h"
#include "src/texpr/codegen.h"
#include "src/texpr/jit.h"

namespace tssa::texpr {

using ir::Block;
using ir::Node;
using ir::OpKind;
using ir::Value;
using runtime::RtValue;

namespace {

OpKind viewRuleOf(const Node& node) {
  return static_cast<OpKind>(node.attrs().i("view"));
}

bool supportedViewRule(OpKind rule, bool forAssign) {
  switch (rule) {
    case OpKind::Identity:
    case OpKind::Select:
    case OpKind::Slice:
    case OpKind::Transpose:
    case OpKind::Permute:
    case OpKind::Squeeze:
    case OpKind::Unsqueeze:
    case OpKind::Reshape:
    case OpKind::Flatten:
      return true;
    case OpKind::Expand:
      // Assign-through-expand writes one output element from several source
      // elements (iteration-order dependent): interpreter only.
      return !forAssign;
    default:
      return false;
  }
}

/// Rounds a double to the value a tensor of `dtype` would store.
double roundTo(DType dtype, double v) {
  switch (dtype) {
    case DType::Float32:
      return static_cast<double>(static_cast<float>(v));
    case DType::Int64:
      return static_cast<double>(static_cast<std::int64_t>(v));
    case DType::Bool:
      return v != 0.0 ? 1.0 : 0.0;
  }
  return v;
}

/// Trailing-dimension broadcast alignment: coordinate of an operand with
/// `shape` corresponding to output coordinate `coord`.
Shape alignCoord(std::span<const std::int64_t> coord,
                 std::span<const std::int64_t> shape) {
  Shape out(shape.size());
  for (std::size_t i = 0; i < shape.size(); ++i) {
    const std::size_t od = coord.size() - shape.size() + i;
    out[i] = shape[i] == 1 ? 0 : coord[od];
  }
  return out;
}

std::int64_t linearize(std::span<const std::int64_t> coord,
                       std::span<const std::int64_t> shape) {
  std::int64_t lin = 0;
  for (std::size_t i = 0; i < shape.size(); ++i) lin = lin * shape[i] + coord[i];
  return lin;
}

Shape delinearize(std::int64_t lin, std::span<const std::int64_t> shape) {
  Shape coord(shape.size());
  for (std::size_t i = shape.size(); i-- > 0;) {
    coord[i] = lin % shape[i];
    lin /= shape[i];
  }
  return coord;
}

}  // namespace

// ---- Per-run binding ---------------------------------------------------------------

struct Kernel::Binding {
  std::span<const RtValue> inputs;
  std::unordered_map<const Value*, Shape> shapes;
  std::unordered_map<const Value*, DType> dtypes;
  std::unordered_map<const Value*, double> scalars;

  const Shape& shapeOf(const Value* v) const { return shapes.at(v); }
  DType dtypeOf(const Value* v) const { return dtypes.at(v); }
  double scalarOf(const Value* v) const { return scalars.at(v); }
};

// ---- Support check -------------------------------------------------------------------

bool Kernel::supports(const Block& body) {
  for (const Node* node : body) {
    if (node->numBlocks() != 0) return false;
    switch (ir::opCategory(node->kind())) {
      case ir::OpCategory::EwiseUnary:
      case ir::OpCategory::EwiseBinary:
      case ir::OpCategory::EwiseTernary:
        break;
      case ir::OpCategory::Immut:
        // Dynamic-extent view rules ("dyn" marker: sizes bound from scalar
        // operands at run time) stay on the per-node interpreter path —
        // viewShape below reads "sizes" as static (-1 means infer there).
        if (node->attrs().has("dyn")) return false;
        if (node->kind() == OpKind::Access) {
          if (!supportedViewRule(viewRuleOf(*node), /*forAssign=*/false))
            return false;
        } else if (node->kind() == OpKind::Assign) {
          if (!supportedViewRule(viewRuleOf(*node), /*forAssign=*/true))
            return false;
        } else {
          return false;
        }
        break;
      default:
        return false;
    }
  }
  return true;
}

Kernel::Kernel(const Block& body, bool allowJit) : body_(body) {
  TSSA_CHECK(supports(body), "unsupported fusion body for texpr");
  if (allowJit && jit::jitEnabled())
    gen_ = std::make_unique<codegen::Generator>(body);
}

Kernel::~Kernel() = default;

// ---- Shape/dtype inference ---------------------------------------------------------------

namespace {

/// Shape produced by applying a view rule to `base` (for Access), given the
/// node's attrs and dynamic scalar operands starting at `operandStart`.
Shape viewShape(const Node& node, OpKind rule, const Shape& base,
                std::size_t operandStart, const Kernel::Binding& b);

}  // namespace

void Kernel::inferAll(Binding& b) const {
  // Parameters.
  for (std::size_t i = 0; i < body_.numParams(); ++i) {
    const Value* p = body_.param(i);
    const RtValue& in = b.inputs[i];
    if (in.isTensor()) {
      b.shapes[p] = in.tensor().sizes();
      b.dtypes[p] = in.tensor().dtype();
    } else if (in.isScalar()) {
      b.scalars[p] = in.scalar().toDouble();
    }
  }
  for (const Node* node : body_) {
    const Value* out = node->output(0);
    switch (node->kind()) {
      case OpKind::Access: {
        const Value* base = node->input(0);
        const OpKind rule = viewRuleOf(*node);
        b.shapes[out] = viewShape(*node, rule, b.shapeOf(base), 1, b);
        b.dtypes[out] = b.dtypeOf(base);
        break;
      }
      case OpKind::Assign: {
        const Value* base = node->input(0);
        b.shapes[out] = b.shapeOf(base);
        b.dtypes[out] = b.dtypeOf(base);
        break;
      }
      case OpKind::Where: {
        Shape s = broadcastShapes(b.shapeOf(node->input(0)),
                                  b.shapeOf(node->input(1)));
        b.shapes[out] = broadcastShapes(s, b.shapeOf(node->input(2)));
        b.dtypes[out] = promoteTypes(b.dtypeOf(node->input(1)),
                                     b.dtypeOf(node->input(2)));
        break;
      }
      case OpKind::MaskedFill: {
        const DType at = b.dtypeOf(node->input(0));
        b.shapes[out] = broadcastShapes(b.shapeOf(node->input(0)),
                                        b.shapeOf(node->input(1)));
        // Mirrors ops::maskedFill: where(mask, full(value), a).
        const DType vt = isFloatingPoint(at) ? DType::Float32
                                             : DType::Int64;
        b.dtypes[out] = promoteTypes(vt, at);
        break;
      }
      default: {
        // Elementwise compute.
        if (node->numInputs() == 2) {
          b.shapes[out] = broadcastShapes(b.shapeOf(node->input(0)),
                                          b.shapeOf(node->input(1)));
        } else {
          b.shapes[out] = b.shapeOf(node->input(0));
        }
        const DType a = b.dtypeOf(node->input(0));
        switch (node->kind()) {
          case OpKind::Div:
          case OpKind::Pow:
          case OpKind::Exp:
          case OpKind::Log:
          case OpKind::Sqrt:
          case OpKind::Sigmoid:
          case OpKind::Tanh:
            b.dtypes[out] = DType::Float32;
            break;
          case OpKind::Eq:
          case OpKind::Ne:
          case OpKind::Lt:
          case OpKind::Le:
          case OpKind::Gt:
          case OpKind::Ge:
          case OpKind::LogicalAnd:
          case OpKind::LogicalOr:
          case OpKind::LogicalNot:
            b.dtypes[out] = DType::Bool;
            break;
          case OpKind::Cast:
            b.dtypes[out] = node->attrs().dtype("dtype");
            break;
          case OpKind::Add:
          case OpKind::Sub:
          case OpKind::Mul:
          case OpKind::Minimum:
          case OpKind::Maximum:
            b.dtypes[out] = promoteTypes(a, b.dtypeOf(node->input(1)));
            // Same typed error as ops::sub / ops::neg.
            TSSA_CHECK(node->kind() != OpKind::Sub ||
                           b.dtypes[out] != DType::Bool,
                       "sub: subtracting two Bool tensors is not supported; "
                       "use logical_xor or logical_not");
            break;
          case OpKind::Neg:
            TSSA_CHECK(a != DType::Bool,
                       "neg: negating a Bool tensor is not supported; use "
                       "logical_not");
            b.dtypes[out] = a;
            break;
          default:
            b.dtypes[out] = a;
            break;
        }
        break;
      }
    }
  }
}

namespace {

Shape viewShape(const Node& node, OpKind rule, const Shape& base,
                std::size_t operandStart, const Kernel::Binding& b) {
  const auto& attrs = node.attrs();
  auto dynInt = [&](std::size_t i) {
    return static_cast<std::int64_t>(b.scalarOf(node.input(i)));
  };
  Shape out = base;
  switch (rule) {
    case OpKind::Identity:
      return out;
    case OpKind::Select: {
      const std::int64_t d = normalizeDim(attrs.i("dim"),
                                          static_cast<std::int64_t>(base.size()));
      out.erase(out.begin() + d);
      return out;
    }
    case OpKind::Slice: {
      const std::int64_t d = normalizeDim(attrs.i("dim"),
                                          static_cast<std::int64_t>(base.size()));
      std::int64_t start = dynInt(operandStart);
      std::int64_t end = dynInt(operandStart + 1);
      normalizeSliceBounds(base[static_cast<std::size_t>(d)], start, end);
      const std::int64_t step = attrs.i("step");
      out[static_cast<std::size_t>(d)] = (end - start + step - 1) / step;
      return out;
    }
    case OpKind::Transpose: {
      const auto d0 = static_cast<std::size_t>(normalizeDim(
          attrs.i("dim0"), static_cast<std::int64_t>(base.size())));
      const auto d1 = static_cast<std::size_t>(normalizeDim(
          attrs.i("dim1"), static_cast<std::int64_t>(base.size())));
      std::swap(out[d0], out[d1]);
      return out;
    }
    case OpKind::Permute: {
      const auto& dims = attrs.ints("dims");
      for (std::size_t i = 0; i < dims.size(); ++i)
        out[i] = base[static_cast<std::size_t>(dims[i])];
      return out;
    }
    case OpKind::Squeeze: {
      const std::int64_t d = normalizeDim(attrs.i("dim"),
                                          static_cast<std::int64_t>(base.size()));
      out.erase(out.begin() + d);
      return out;
    }
    case OpKind::Unsqueeze: {
      const std::int64_t rank = static_cast<std::int64_t>(base.size());
      std::int64_t d = attrs.i("dim");
      if (d < 0) d += rank + 1;
      out.insert(out.begin() + d, 1);
      return out;
    }
    case OpKind::Reshape: {
      Shape sizes = attrs.ints("sizes");
      std::int64_t known = 1;
      std::int64_t infer = -1;
      for (std::size_t i = 0; i < sizes.size(); ++i) {
        if (sizes[i] == -1) {
          infer = static_cast<std::int64_t>(i);
        } else {
          known *= sizes[i];
        }
      }
      if (infer >= 0)
        sizes[static_cast<std::size_t>(infer)] = numelOf(base) / known;
      return sizes;
    }
    case OpKind::Flatten: {
      const std::int64_t rank = static_cast<std::int64_t>(base.size());
      const std::int64_t s = normalizeDim(attrs.i("start_dim"), rank);
      const std::int64_t e = normalizeDim(attrs.i("end_dim"), rank);
      Shape sizes;
      for (std::int64_t i = 0; i < s; ++i)
        sizes.push_back(base[static_cast<std::size_t>(i)]);
      std::int64_t merged = 1;
      for (std::int64_t i = s; i <= e; ++i)
        merged *= base[static_cast<std::size_t>(i)];
      sizes.push_back(merged);
      for (std::int64_t i = e + 1; i < rank; ++i)
        sizes.push_back(base[static_cast<std::size_t>(i)]);
      return sizes;
    }
    case OpKind::Expand: {
      Shape sizes = attrs.ints("sizes");
      return sizes;
    }
    default:
      TSSA_THROW("unsupported view rule in texpr: " << opName(rule));
  }
}

/// For an Access: the base coordinate that view coordinate `coord` reads.
Shape accessBaseCoord(const Node& node, OpKind rule,
                      std::span<const std::int64_t> coord, const Shape& base,
                      std::size_t operandStart, const Kernel::Binding& b) {
  const auto& attrs = node.attrs();
  auto dynInt = [&](std::size_t i) {
    return static_cast<std::int64_t>(b.scalarOf(node.input(i)));
  };
  switch (rule) {
    case OpKind::Identity:
      return Shape(coord.begin(), coord.end());
    case OpKind::Select: {
      const std::int64_t d = normalizeDim(attrs.i("dim"),
                                          static_cast<std::int64_t>(base.size()));
      const std::int64_t idx =
          normalizeIndex(dynInt(operandStart), base[static_cast<std::size_t>(d)]);
      Shape out(coord.begin(), coord.end());
      out.insert(out.begin() + d, idx);
      return out;
    }
    case OpKind::Slice: {
      const std::int64_t d = normalizeDim(attrs.i("dim"),
                                          static_cast<std::int64_t>(base.size()));
      std::int64_t start = dynInt(operandStart);
      std::int64_t end = dynInt(operandStart + 1);
      normalizeSliceBounds(base[static_cast<std::size_t>(d)], start, end);
      Shape out(coord.begin(), coord.end());
      out[static_cast<std::size_t>(d)] =
          start + coord[static_cast<std::size_t>(d)] * attrs.i("step");
      return out;
    }
    case OpKind::Transpose: {
      const auto d0 = static_cast<std::size_t>(normalizeDim(
          attrs.i("dim0"), static_cast<std::int64_t>(base.size())));
      const auto d1 = static_cast<std::size_t>(normalizeDim(
          attrs.i("dim1"), static_cast<std::int64_t>(base.size())));
      Shape out(coord.begin(), coord.end());
      std::swap(out[d0], out[d1]);
      return out;
    }
    case OpKind::Permute: {
      const auto& dims = attrs.ints("dims");
      Shape out(base.size());
      for (std::size_t i = 0; i < dims.size(); ++i)
        out[static_cast<std::size_t>(dims[i])] = coord[i];
      return out;
    }
    case OpKind::Squeeze: {
      const std::int64_t d = normalizeDim(attrs.i("dim"),
                                          static_cast<std::int64_t>(base.size()));
      Shape out(coord.begin(), coord.end());
      out.insert(out.begin() + d, 0);
      return out;
    }
    case OpKind::Unsqueeze: {
      const std::int64_t rank = static_cast<std::int64_t>(base.size());
      std::int64_t d = attrs.i("dim");
      if (d < 0) d += rank + 1;
      Shape out(coord.begin(), coord.end());
      out.erase(out.begin() + d);
      return out;
    }
    case OpKind::Reshape:
    case OpKind::Flatten: {
      const Shape mine = viewShape(node, rule, base, operandStart, b);
      return delinearize(linearize(coord, mine), base);
    }
    case OpKind::Expand: {
      Shape out(base.size());
      for (std::size_t i = 0; i < base.size(); ++i) {
        const std::size_t vd = coord.size() - base.size() + i;
        out[i] = base[i] == 1 ? 0 : coord[vd];
      }
      return out;
    }
    default:
      TSSA_THROW("unsupported view rule in texpr: " << opName(rule));
  }
}

/// For an Assign: whether base coordinate `coord` lies in the written view
/// region; if so, `viewCoord` receives the view-space coordinate.
bool assignCovers(const Node& node, OpKind rule,
                  std::span<const std::int64_t> coord, const Shape& base,
                  const Kernel::Binding& b, Shape& viewCoord) {
  const auto& attrs = node.attrs();
  auto dynInt = [&](std::size_t i) {
    return static_cast<std::int64_t>(b.scalarOf(node.input(i)));
  };
  switch (rule) {
    case OpKind::Identity:
      viewCoord.assign(coord.begin(), coord.end());
      return true;
    case OpKind::Select: {
      const std::int64_t d = normalizeDim(attrs.i("dim"),
                                          static_cast<std::int64_t>(base.size()));
      const std::int64_t idx =
          normalizeIndex(dynInt(2), base[static_cast<std::size_t>(d)]);
      if (coord[static_cast<std::size_t>(d)] != idx) return false;
      viewCoord.assign(coord.begin(), coord.end());
      viewCoord.erase(viewCoord.begin() + d);
      return true;
    }
    case OpKind::Slice: {
      const std::int64_t d = normalizeDim(attrs.i("dim"),
                                          static_cast<std::int64_t>(base.size()));
      std::int64_t start = dynInt(2);
      std::int64_t end = dynInt(3);
      normalizeSliceBounds(base[static_cast<std::size_t>(d)], start, end);
      const std::int64_t step = attrs.i("step");
      const std::int64_t c = coord[static_cast<std::size_t>(d)];
      if (c < start || c >= end || (c - start) % step != 0) return false;
      viewCoord.assign(coord.begin(), coord.end());
      viewCoord[static_cast<std::size_t>(d)] = (c - start) / step;
      return true;
    }
    case OpKind::Transpose: {
      const auto d0 = static_cast<std::size_t>(normalizeDim(
          attrs.i("dim0"), static_cast<std::int64_t>(base.size())));
      const auto d1 = static_cast<std::size_t>(normalizeDim(
          attrs.i("dim1"), static_cast<std::int64_t>(base.size())));
      viewCoord.assign(coord.begin(), coord.end());
      std::swap(viewCoord[d0], viewCoord[d1]);
      return true;
    }
    case OpKind::Permute: {
      const auto& dims = attrs.ints("dims");
      viewCoord.resize(base.size());
      for (std::size_t i = 0; i < dims.size(); ++i)
        viewCoord[i] = coord[static_cast<std::size_t>(dims[i])];
      return true;
    }
    case OpKind::Squeeze: {
      const std::int64_t d = normalizeDim(attrs.i("dim"),
                                          static_cast<std::int64_t>(base.size()));
      viewCoord.assign(coord.begin(), coord.end());
      viewCoord.erase(viewCoord.begin() + d);
      return true;
    }
    case OpKind::Unsqueeze: {
      const std::int64_t rank = static_cast<std::int64_t>(base.size());
      std::int64_t d = attrs.i("dim");
      if (d < 0) d += rank + 1;
      viewCoord.assign(coord.begin(), coord.end());
      viewCoord.insert(viewCoord.begin() + d, 0);
      return true;
    }
    case OpKind::Reshape:
    case OpKind::Flatten: {
      const Shape mine = viewShape(node, rule, base, 2, b);
      viewCoord = delinearize(linearize(coord, base), mine);
      return true;
    }
    default:
      TSSA_THROW("unsupported assign rule in texpr: " << opName(rule));
  }
}

/// For an in-place Assign: the view of the (contiguous) donated tensor
/// `root` that the assign writes.
Tensor assignRegion(const Node& node, const Tensor& root,
                    const Kernel::Binding& b) {
  const auto& attrs = node.attrs();
  auto dynInt = [&](std::size_t i) {
    return static_cast<std::int64_t>(b.scalarOf(node.input(i)));
  };
  const OpKind rule = viewRuleOf(node);
  switch (rule) {
    case OpKind::Identity:
      return root;
    case OpKind::Select:
      return root.select(attrs.i("dim"), dynInt(2));
    case OpKind::Slice:
      return root.slice(attrs.i("dim"), dynInt(2), dynInt(3),
                        attrs.i("step"));
    case OpKind::Transpose:
      return root.transpose(attrs.i("dim0"), attrs.i("dim1"));
    case OpKind::Permute:
      return root.permute(attrs.ints("dims"));
    case OpKind::Squeeze:
      return root.squeeze(attrs.i("dim"));
    case OpKind::Unsqueeze:
      return root.unsqueeze(attrs.i("dim"));
    case OpKind::Reshape:
    case OpKind::Flatten:
      return root.view(viewShape(node, rule, root.sizes(), 2, b));
    default:
      TSSA_THROW("unsupported assign rule in texpr: " << opName(rule));
  }
}

}  // namespace

// ---- Element evaluation --------------------------------------------------------------------

double Kernel::evalAt(const Value* v, std::span<const std::int64_t> coord,
                      const Binding& b) const {
  const Node* def = v->definingNode();
  if (def == nullptr) {
    // Body parameter: read the bound tensor.
    const RtValue& in = b.inputs[v->defIndex()];
    return in.tensor().scalarAt(coord);
  }
  const auto& attrs = def->attrs();
  auto operand = [&](std::size_t i) -> double {
    const Value* o = def->input(i);
    Shape oc = alignCoord(coord, b.shapeOf(o));
    return evalAt(o, oc, b);
  };
  auto finish = [&](double x) { return roundTo(b.dtypeOf(v), x); };

  switch (def->kind()) {
    case OpKind::Add: return finish(operand(0) + operand(1));
    case OpKind::Sub: return finish(operand(0) - operand(1));
    case OpKind::Mul: return finish(operand(0) * operand(1));
    case OpKind::Div: return finish(operand(0) / operand(1));
    case OpKind::Pow: return finish(std::pow(operand(0), operand(1)));
    case OpKind::Minimum: return finish(std::min(operand(0), operand(1)));
    case OpKind::Maximum: return finish(std::max(operand(0), operand(1)));
    case OpKind::Eq: return operand(0) == operand(1) ? 1.0 : 0.0;
    case OpKind::Ne: return operand(0) != operand(1) ? 1.0 : 0.0;
    case OpKind::Lt: return operand(0) < operand(1) ? 1.0 : 0.0;
    case OpKind::Le: return operand(0) <= operand(1) ? 1.0 : 0.0;
    case OpKind::Gt: return operand(0) > operand(1) ? 1.0 : 0.0;
    case OpKind::Ge: return operand(0) >= operand(1) ? 1.0 : 0.0;
    case OpKind::LogicalAnd:
      return operand(0) != 0.0 && operand(1) != 0.0 ? 1.0 : 0.0;
    case OpKind::LogicalOr:
      return operand(0) != 0.0 || operand(1) != 0.0 ? 1.0 : 0.0;
    case OpKind::LogicalNot: return operand(0) == 0.0 ? 1.0 : 0.0;
    case OpKind::Neg: return finish(-operand(0));
    case OpKind::Exp: return finish(std::exp(operand(0)));
    case OpKind::Log: return finish(std::log(operand(0)));
    case OpKind::Sqrt: return finish(std::sqrt(operand(0)));
    case OpKind::Abs: return finish(std::abs(operand(0)));
    case OpKind::Sigmoid:
      return finish(1.0 / (1.0 + std::exp(-operand(0))));
    case OpKind::Tanh: return finish(std::tanh(operand(0)));
    case OpKind::Relu: {
      const double x = operand(0);
      return finish(x > 0 ? x : 0.0);
    }
    case OpKind::Clamp:
      return finish(std::clamp(operand(0), attrs.f("lo"), attrs.f("hi")));
    case OpKind::Cast: return finish(operand(0));
    case OpKind::Where:
      return finish(operand(0) != 0.0 ? operand(1) : operand(2));
    case OpKind::MaskedFill:
      return finish(operand(1) != 0.0 ? b.scalarOf(def->input(2))
                                      : operand(0));
    case OpKind::Access: {
      const Value* base = def->input(0);
      const OpKind rule = viewRuleOf(*def);
      Shape bc = accessBaseCoord(*def, rule, coord, b.shapeOf(base), 1, b);
      return evalAt(base, bc, b);
    }
    case OpKind::Assign: {
      const Value* base = def->input(0);
      const Value* src = def->input(1);
      const OpKind rule = viewRuleOf(*def);
      Shape viewCoord;
      if (assignCovers(*def, rule, coord, b.shapeOf(base), b, viewCoord)) {
        Shape sc = alignCoord(viewCoord, b.shapeOf(src));
        return finish(evalAt(src, sc, b));
      }
      return evalAt(base, coord, b);
    }
    default:
      TSSA_THROW("texpr: unexpected op " << opName(def->kind()));
  }
}

// ---- Entry -------------------------------------------------------------------------------------

namespace {

/// Elements below this count are not worth a trip through the pool.
constexpr std::int64_t kMinParallelElems = 1024;

/// The tensor's base element pointer (storage offset applied), type-erased
/// for the JIT ABI.
void* rawDataOf(const Tensor& t) {
  auto& mt = const_cast<Tensor&>(t);
  switch (t.dtype()) {
    case DType::Float32: return mt.data<float>();
    case DType::Int64: return mt.data<std::int64_t>();
    case DType::Bool: return mt.data<std::uint8_t>();
  }
  return nullptr;
}

}  // namespace

bool Kernel::tryRunJit(std::span<const RtValue> inputs, const Binding& b,
                       std::span<const Target> targets,
                       std::vector<Tensor>& results, int threads) const {
  using codegen::Decline;
  if (gen_ == nullptr) return false;
  jit::KernelCache& cache = jit::KernelCache::instance();
  if (gen_->structuralDecline() != Decline::None) {
    cache.recordDecline(gen_->structuralDecline());
    return false;
  }

  std::vector<codegen::InputSig> sig(body_.numParams());
  for (std::size_t i = 0; i < body_.numParams(); ++i) {
    const RtValue& in = inputs[i];
    if (in.isTensor()) {
      const Tensor& t = in.tensor();
      sig[i].isTensor = true;
      sig[i].dtype = t.dtype();
      sig[i].rank = static_cast<int>(t.dim());
      sig[i].contiguous = t.isContiguous();
    } else if (!in.isScalar()) {
      cache.recordDecline(Decline::Op);
      return false;
    }
  }

  const std::string key = gen_->cacheKey(sig);
  std::shared_ptr<jit::CompiledKernel> kernel;
  bool memoized = false;
  {
    std::lock_guard<std::mutex> lock(jitMutex_);
    auto it = jitMemo_.find(key);
    if (it != jitMemo_.end()) {
      kernel = it->second;
      memoized = true;
    }
  }
  if (memoized) {
    if (kernel == nullptr) {
      cache.recordDecline(Decline::Toolchain);
      return false;
    }
    cache.recordHit();
  } else {
    const Decline reason = gen_->declineFor(sig);
    if (reason != Decline::None) {
      cache.recordDecline(reason);
      return false;
    }
    kernel = cache.getOrCompile(key, [&] { return gen_->emitSource(sig); });
    {
      std::lock_guard<std::mutex> lock(jitMutex_);
      jitMemo_[key] = kernel;
    }
    if (kernel == nullptr) {
      cache.recordDecline(Decline::Toolchain);
      return false;
    }
  }

  // Select indices are validated here because the generated code cannot
  // throw: an out-of-range index falls back to the interpreter, which
  // raises the identical tssa::Error.
  for (const codegen::SelectGuard& guard : gen_->selectGuards()) {
    const Shape& baseShape = b.shapeOf(guard.base);
    const std::int64_t rank = static_cast<std::int64_t>(baseShape.size());
    std::int64_t d = guard.dim < 0 ? guard.dim + rank : guard.dim;
    if (d < 0 || d >= rank) return false;
    const std::int64_t extent = baseShape[static_cast<std::size_t>(d)];
    std::int64_t idx =
        static_cast<std::int64_t>(b.scalarOf(guard.indexParam));
    if (idx < 0) idx += extent;
    if (idx < 0 || idx >= extent) return false;
  }

  // Dispatch tables: per-slot shape extents, per-param buffers, scalars.
  const auto slotVals = gen_->slotValues();
  std::vector<const std::int64_t*> shapes(slotVals.size(), nullptr);
  for (std::size_t s = 0; s < slotVals.size(); ++s) {
    auto it = b.shapes.find(slotVals[s]);
    if (it != b.shapes.end()) shapes[s] = it->second.data();
  }
  std::vector<jit::JitBuffer> ins(body_.numParams());
  std::vector<double> scalars(body_.numParams(), 0.0);
  for (std::size_t i = 0; i < body_.numParams(); ++i) {
    const RtValue& in = inputs[i];
    if (in.isTensor()) {
      const Tensor& t = in.tensor();
      ins[i].data = rawDataOf(t);
      ins[i].sizes = t.sizes().data();
      ins[i].strides = t.strides().data();
      if (ins[i].data == nullptr) return false;
    } else {
      scalars[i] = in.scalar().toDouble();
    }
  }

  // The linear fast loop was emitted only for all-contiguous signatures of
  // pure elementwise bodies; it is valid at run time only when every tensor
  // input additionally has exactly the output's shape (no broadcasting).
  bool emittedFast = gen_->fastPathEligible();
  for (const codegen::InputSig& s : sig)
    if (s.isTensor && !s.contiguous) emittedFast = false;

  jit::EntryFn entry = kernel->entry();
  results.reserve(targets.size());
  for (const Target& target : targets) {
    Tensor out = Tensor::empty(b.shapeOf(target.value), b.dtypeOf(target.value));
    const std::int64_t numel = out.numel();
    std::int32_t flags = 0;
    if (emittedFast) {
      bool linear = true;
      for (std::size_t i = 0; i < body_.numParams(); ++i) {
        if (inputs[i].isTensor() &&
            inputs[i].tensor().sizes() != out.sizes())
          linear = false;
      }
      if (linear) flags = 1;
    }
    jit::JitBuffer ob{rawDataOf(out), out.sizes().data(),
                      out.strides().data()};
    const std::int32_t outIndex = target.runner;
    if (threads > 1 && numel >= kMinParallelElems) {
      runtime::ThreadPool::shared().parallelFor(
          numel, threads,
          [&](std::int64_t begin, std::int64_t end, int /*chunk*/) {
            entry(ins.data(), &ob, shapes.data(), scalars.data(), outIndex,
                  begin, end, flags);
          });
    } else {
      entry(ins.data(), &ob, shapes.data(), scalars.data(), outIndex, 0,
            numel, flags);
    }
    results.push_back(std::move(out));
  }
  return true;
}

void Kernel::evalInto(const Value* v, Tensor& out, const Binding& b,
                      int threads) const {
  const std::int64_t numel = out.numel();
  if (threads > 1 && numel >= kMinParallelElems) {
    // Each chunk writes a disjoint contiguous range of the fresh output;
    // evalAt reads only the immutable Binding and input tensors.
    runtime::ThreadPool::shared().parallelFor(
        numel, threads,
        [&](std::int64_t begin, std::int64_t end, int /*chunk*/) {
          Shape coord = delinearize(begin, out.sizes());
          for (std::int64_t lin = begin; lin < end; ++lin) {
            out.setScalarAt(coord, evalAt(v, coord, b));
            for (std::int64_t d = static_cast<std::int64_t>(coord.size()) - 1;
                 d >= 0; --d) {
              const auto ud = static_cast<std::size_t>(d);
              if (++coord[ud] < out.sizes()[ud]) break;
              coord[ud] = 0;
            }
          }
        });
  } else {
    for (IndexIterator it(out.sizes()); it.valid(); it.next())
      out.setScalarAt(it.index(), evalAt(v, it.index(), b));
  }
}

std::vector<RtValue> Kernel::run(std::span<const RtValue> inputs,
                                 RunStats* stats, int threads) const {
  TSSA_CHECK(inputs.size() == body_.numParams(),
             "texpr kernel expects " << body_.numParams() << " inputs");
  Binding b;
  b.inputs = inputs;
  inferAll(b);
  if (stats != nullptr) {
    for (const Node* node : body_) {
      const Value* out = node->output(0);
      stats->flops += numelOf(b.shapeOf(out));
      if (node->kind() == OpKind::Assign &&
          node->attrs().bOr("inplace", false)) {
        const Value* base = node->input(0);
        const Value* src = node->input(1);
        const std::int64_t baseBytes =
            numelOf(b.shapeOf(base)) *
            static_cast<std::int64_t>(dtypeSize(b.dtypeOf(base)));
        const std::int64_t srcBytes =
            numelOf(b.shapeOf(src)) *
            static_cast<std::int64_t>(dtypeSize(b.dtypeOf(src)));
        stats->savedBytes += std::max<std::int64_t>(0, 2 * (baseBytes - srcBytes));
      }
    }
  }

  // In-place returns write into their donated parameter's tensor. One that
  // cannot take the writes as a plain strided copy (non-contiguous, or its
  // storage already taken by another in-place return) is materialized.
  codegen::RegionPlan plan = codegen::planRegions(
      body_, [&](const Value* v) { return b.dtypeOf(v); });
  const auto returns = body_.returns();
  for (std::size_t ri = 0; ri < returns.size(); ++ri) {
    const int p = plan.rootParam[ri];
    if (p < 0) continue;
    const RtValue& root = inputs[static_cast<std::size_t>(p)];
    bool donated = root.isTensor() && root.tensor().isContiguous();
    for (std::size_t k = 0; donated && k < ri; ++k) {
      const int q = plan.rootParam[k];
      if (q >= 0 && inputs[static_cast<std::size_t>(q)].tensor()
                        .sharesStorageWith(root.tensor()))
        donated = false;
    }
    if (!donated) plan.rootParam[ri] = -1;
  }

  // Evaluate every materialized return and every region source against the
  // unmodified inputs: the region writes come after all reads.
  std::vector<Target> targets;
  std::vector<int> targetOf(returns.size() + plan.sources.size(), -1);
  auto addTarget = [&](std::size_t runner, const Value* v) {
    if (targetOf[runner] >= 0) return;
    targetOf[runner] = static_cast<int>(targets.size());
    targets.push_back({v, static_cast<std::int32_t>(runner)});
  };
  for (std::size_t ri = 0; ri < returns.size(); ++ri) {
    if (plan.rootParam[ri] < 0) {
      addTarget(ri, returns[ri]);
      continue;
    }
    for (const codegen::RegionWrite& w : plan.writes[ri]) {
      if (w.sourceIndex < 0) continue;
      const auto si = static_cast<std::size_t>(w.sourceIndex);
      addTarget(returns.size() + si, plan.sources[si]);
    }
  }
  std::vector<Tensor> results;
  if (!tryRunJit(inputs, b, targets, results, threads)) {
    results.clear();
    for (const Target& target : targets) {
      Tensor out =
          Tensor::empty(b.shapeOf(target.value), b.dtypeOf(target.value));
      evalInto(target.value, out, b, threads);
      results.push_back(std::move(out));
    }
  }

  // Region writes, in chain order, each through a strided copy_ into the
  // assign's view of the donated tensor.
  std::int64_t inplace = 0;
  for (std::size_t ri = 0; ri < returns.size(); ++ri) {
    if (plan.rootParam[ri] < 0) continue;
    Tensor root = inputs[static_cast<std::size_t>(plan.rootParam[ri])].tensor();
    for (const codegen::RegionWrite& w : plan.writes[ri]) {
      const std::size_t runner =
          w.fromReturn >= 0
              ? static_cast<std::size_t>(w.fromReturn)
              : returns.size() + static_cast<std::size_t>(w.sourceIndex);
      assignRegion(*w.assign, root, b)
          .copy_(results[static_cast<std::size_t>(targetOf[runner])]);
    }
    ++inplace;
  }
  std::vector<RtValue> outputs;
  outputs.reserve(returns.size());
  for (std::size_t ri = 0; ri < returns.size(); ++ri) {
    const int p = plan.rootParam[ri];
    outputs.emplace_back(p >= 0 ? inputs[static_cast<std::size_t>(p)].tensor()
                                : results[static_cast<std::size_t>(
                                      targetOf[ri])]);
  }
  if (stats != nullptr) {
    for (const Tensor& t : results) stats->elems += t.numel();
    stats->inplace += inplace;
  }
  return outputs;
}

}  // namespace tssa::texpr
