#include "src/rule/expr.h"

#include <cmath>

#include "src/common/string_util.h"
#include "src/ris/relational/predicate.h"

namespace hcm::rule {

Result<Value> NullDataReader(const ItemId& item) {
  return Status::NotFound("no data reader installed (item " +
                          item.ToString() + ")");
}

ExprPtr Expr::Literal(Value v) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->op_ = ExprOp::kLiteral;
  e->literal_ = std::move(v);
  return e;
}

ExprPtr Expr::Variable(std::string name) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->op_ = ExprOp::kVariable;
  e->var_name_ = std::move(name);
  return e;
}

ExprPtr Expr::Item(ItemRef ref) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->op_ = ExprOp::kItem;
  e->item_ = std::move(ref);
  return e;
}

ExprPtr Expr::Binary(ExprOp op, ExprPtr lhs, ExprPtr rhs) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->op_ = op;
  e->lhs_ = std::move(lhs);
  e->rhs_ = std::move(rhs);
  return e;
}

ExprPtr Expr::Unary(ExprOp op, ExprPtr operand) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->op_ = op;
  e->lhs_ = std::move(operand);
  return e;
}

namespace {

Result<bool> RequireBool(const Value& v, const char* context) {
  if (!v.is_bool()) {
    return Status::InvalidArgument(
        StrFormat("%s requires bool, got %s", context, v.ToString().c_str()));
  }
  return v.AsBool();
}

// The evaluation body, parameterized over the variable/item environment so
// the map-backed, frame-backed and caller-resolved paths share one switch.
// `Env` provides Var(node) and Item(node) for kVariable/kItem nodes.
template <typename Env>
Result<Value> EvalWith(const Expr& e, const Env& env) {
  using ris::relational::CompareOp;
  using ris::relational::CompareValues;
  switch (e.op()) {
    case ExprOp::kLiteral:
      return e.literal_value();
    case ExprOp::kVariable:
      return env.Var(e);
    case ExprOp::kItem:
      return env.Item(e);
    case ExprOp::kAnd: {
      HCM_ASSIGN_OR_RETURN(Value l, EvalWith(*e.lhs(), env));
      HCM_ASSIGN_OR_RETURN(bool lb, RequireBool(l, "and"));
      if (!lb) return Value::Bool(false);  // short-circuit
      HCM_ASSIGN_OR_RETURN(Value r, EvalWith(*e.rhs(), env));
      HCM_ASSIGN_OR_RETURN(bool rb, RequireBool(r, "and"));
      return Value::Bool(rb);
    }
    case ExprOp::kOr: {
      HCM_ASSIGN_OR_RETURN(Value l, EvalWith(*e.lhs(), env));
      HCM_ASSIGN_OR_RETURN(bool lb, RequireBool(l, "or"));
      if (lb) return Value::Bool(true);
      HCM_ASSIGN_OR_RETURN(Value r, EvalWith(*e.rhs(), env));
      HCM_ASSIGN_OR_RETURN(bool rb, RequireBool(r, "or"));
      return Value::Bool(rb);
    }
    case ExprOp::kNot: {
      HCM_ASSIGN_OR_RETURN(Value v, EvalWith(*e.lhs(), env));
      HCM_ASSIGN_OR_RETURN(bool b, RequireBool(v, "not"));
      return Value::Bool(!b);
    }
    case ExprOp::kNeg: {
      HCM_ASSIGN_OR_RETURN(Value v, EvalWith(*e.lhs(), env));
      return Value::Int(0).Sub(v);
    }
    case ExprOp::kAbs: {
      HCM_ASSIGN_OR_RETURN(Value v, EvalWith(*e.lhs(), env));
      if (!v.is_numeric()) {
        return Status::InvalidArgument("abs requires a numeric operand");
      }
      if (v.is_int()) {
        return Value::Int(v.AsInt() < 0 ? -v.AsInt() : v.AsInt());
      }
      return Value::Real(std::fabs(v.AsReal()));
    }
    default:
      break;
  }
  // Remaining ops are binary over evaluated operands.
  HCM_ASSIGN_OR_RETURN(Value l, EvalWith(*e.lhs(), env));
  HCM_ASSIGN_OR_RETURN(Value r, EvalWith(*e.rhs(), env));
  switch (e.op()) {
    case ExprOp::kEq:
      return Value::Bool(CompareValues(l, CompareOp::kEq, r));
    case ExprOp::kNe:
      return Value::Bool(CompareValues(l, CompareOp::kNe, r));
    case ExprOp::kLt:
      return Value::Bool(CompareValues(l, CompareOp::kLt, r));
    case ExprOp::kLe:
      return Value::Bool(CompareValues(l, CompareOp::kLe, r));
    case ExprOp::kGt:
      return Value::Bool(CompareValues(l, CompareOp::kGt, r));
    case ExprOp::kGe:
      return Value::Bool(CompareValues(l, CompareOp::kGe, r));
    case ExprOp::kAdd:
      return l.Add(r);
    case ExprOp::kSub:
      return l.Sub(r);
    case ExprOp::kMul:
      return l.Mul(r);
    case ExprOp::kDiv:
      return l.Div(r);
    default:
      return Status::Internal("unhandled expression op");
  }
}

struct MapEnv {
  const Binding& binding;
  const DataReader& reader;

  Result<Value> Var(const Expr& node) const {
    auto it = binding.find(node.variable_name());
    if (it == binding.end()) {
      return Status::FailedPrecondition("unbound variable: " +
                                        node.variable_name());
    }
    return it->second;
  }
  Result<Value> Item(const Expr& node) const {
    HCM_ASSIGN_OR_RETURN(ItemId id, node.item_ref().Ground(binding));
    return reader(id);
  }
};

struct FrameEnv {
  const BindingFrame& frame;
  const SlotMap& slots;
  const DataReader& reader;

  Result<Value> Var(const Expr& node) const {
    return Var(node.variable_name());
  }
  Result<Value> Var(const std::string& name) const {
    int s = slots.Find(name);
    if (s < 0 || !frame.IsBound(static_cast<uint16_t>(s))) {
      return Status::FailedPrecondition("unbound variable: " + name);
    }
    return frame.Get(static_cast<uint16_t>(s));
  }
  Result<Value> Item(const Expr& node) const {
    const ItemRef& ref = node.item_ref();
    // Ground the ref without touching its (possibly shared) terms'
    // compiled state: resolve variables by name through the slot map. The
    // grounded id reuses one per-thread buffer, so a read allocates nothing
    // once warm; it is live only for the reader call, and readers evaluate
    // no expressions.
    thread_local ItemId id;
    id.base = ref.base;
    id.args.clear();
    for (const Term& t : ref.args) {
      if (t.is_literal()) {
        id.args.push_back(t.literal());
        continue;
      }
      if (t.is_wildcard()) {
        return Status::FailedPrecondition(
            "wildcard cannot appear in an instantiated position");
      }
      HCM_ASSIGN_OR_RETURN(Value v, Var(t.var_name()));
      id.args.push_back(std::move(v));
    }
    return reader(id);
  }
};

// Forwards to a caller-supplied ExprEnv.
struct VirtualEnv {
  const ExprEnv& env;
  Result<Value> Var(const Expr& node) const { return env.Var(node); }
  Result<Value> Item(const Expr& node) const { return env.Item(node); }
};

}  // namespace

Result<Value> Expr::Eval(const Binding& binding,
                         const DataReader& reader) const {
  return EvalWith(*this, MapEnv{binding, reader});
}

Result<bool> Expr::EvalBool(const Binding& binding,
                            const DataReader& reader) const {
  HCM_ASSIGN_OR_RETURN(Value v, Eval(binding, reader));
  return RequireBool(v, "condition");
}

Result<Value> Expr::EvalFrame(const BindingFrame& frame, const SlotMap& slots,
                              const DataReader& reader) const {
  return EvalWith(*this, FrameEnv{frame, slots, reader});
}

Result<bool> Expr::EvalBoolFrame(const BindingFrame& frame,
                                 const SlotMap& slots,
                                 const DataReader& reader) const {
  HCM_ASSIGN_OR_RETURN(Value v, EvalFrame(frame, slots, reader));
  return RequireBool(v, "condition");
}

Result<bool> Expr::EvalBoolIn(const ExprEnv& env) const {
  HCM_ASSIGN_OR_RETURN(Value v, EvalWith(*this, VirtualEnv{env}));
  return RequireBool(v, "condition");
}

void Expr::Collect(std::vector<ItemRef>* items,
                   std::vector<std::string>* variables) const {
  switch (op_) {
    case ExprOp::kLiteral:
      return;
    case ExprOp::kVariable:
      if (variables != nullptr) variables->push_back(var_name_);
      return;
    case ExprOp::kItem:
      if (items != nullptr) items->push_back(item_);
      // Item arguments may themselves contain variables.
      if (variables != nullptr) {
        for (const Term& t : item_.args) {
          if (t.is_variable()) variables->push_back(t.var_name());
        }
      }
      return;
    default:
      if (lhs_ != nullptr) lhs_->Collect(items, variables);
      if (rhs_ != nullptr) rhs_->Collect(items, variables);
      return;
  }
}

std::string Expr::ToString() const {
  switch (op_) {
    case ExprOp::kLiteral:
      return literal_.ToString();
    case ExprOp::kVariable:
      return var_name_;
    case ExprOp::kItem:
      return item_.ToString();
    case ExprOp::kNot:
      return "not (" + lhs_->ToString() + ")";
    case ExprOp::kNeg:
      return "-(" + lhs_->ToString() + ")";
    case ExprOp::kAbs:
      return "abs(" + lhs_->ToString() + ")";
    default:
      break;
  }
  const char* sym = "?";
  switch (op_) {
    case ExprOp::kEq:
      sym = "=";
      break;
    case ExprOp::kNe:
      sym = "!=";
      break;
    case ExprOp::kLt:
      sym = "<";
      break;
    case ExprOp::kLe:
      sym = "<=";
      break;
    case ExprOp::kGt:
      sym = ">";
      break;
    case ExprOp::kGe:
      sym = ">=";
      break;
    case ExprOp::kAnd:
      sym = "and";
      break;
    case ExprOp::kOr:
      sym = "or";
      break;
    case ExprOp::kAdd:
      sym = "+";
      break;
    case ExprOp::kSub:
      sym = "-";
      break;
    case ExprOp::kMul:
      sym = "*";
      break;
    case ExprOp::kDiv:
      sym = "/";
      break;
    default:
      break;
  }
  return "(" + lhs_->ToString() + " " + sym + " " + rhs_->ToString() + ")";
}

}  // namespace hcm::rule
