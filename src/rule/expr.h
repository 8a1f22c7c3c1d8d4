#ifndef HCM_RULE_EXPR_H_
#define HCM_RULE_EXPR_H_

#include <functional>
#include <memory>
#include <string>

#include "src/common/status.h"
#include "src/common/value.h"
#include "src/rule/item.h"

namespace hcm::rule {

// Reads the current value of a local data item during condition evaluation.
// Supplied by the CM-Shell (for its private data) or a CM-Translator (for
// database-resident data). Conditions in strategy rules may only reference
// data local to the site of the right-hand-side event (Section 3.2), which
// the shell enforces by the reader it installs.
using DataReader = std::function<Result<Value>(const ItemId&)>;

// Returns NotFound for every item: for conditions that reference no data.
Result<Value> NullDataReader(const ItemId& item);

class Expr;
using ExprPtr = std::shared_ptr<const Expr>;

// A variable/item environment keyed by tree node, for callers that resolve
// a tree's variables and item references ahead of evaluation (the guarantee
// checker maps them to binding slots and interned item ids once per atom).
// Errors read as evaluation errors, exactly like an unbound variable or an
// unreadable item under the map- and frame-backed environments.
class ExprEnv {
 public:
  // `node` is a kVariable node of the tree being evaluated.
  virtual Result<Value> Var(const Expr& node) const = 0;
  // `node` is a kItem node of the tree being evaluated.
  virtual Result<Value> Item(const Expr& node) const = 0;

 protected:
  ~ExprEnv() = default;
};

// Node types of the condition language. Comparisons and logic produce
// Bool; arithmetic produces Int/Real per Value semantics.
enum class ExprOp {
  // Leaves
  kLiteral,   // 42, 'x', true
  kVariable,  // lower-case parameter bound by the LHS match
  kItem,      // upper-case local data item reference, read at eval time
  // Binary
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kAnd,
  kOr,
  kAdd,
  kSub,
  kMul,
  kDiv,
  // Unary
  kNot,
  kNeg,
  kAbs,  // |x| written abs(x)
};

// An immutable expression tree. Build with the factory functions; evaluate
// against a binding (for variables) and a DataReader (for items).
class Expr {
 public:
  static ExprPtr Literal(Value v);
  static ExprPtr Variable(std::string name);
  static ExprPtr Item(ItemRef ref);
  static ExprPtr Binary(ExprOp op, ExprPtr lhs, ExprPtr rhs);
  static ExprPtr Unary(ExprOp op, ExprPtr operand);

  ExprOp op() const { return op_; }

  // Evaluates to a Value. Unbound variables, unreadable items, and type
  // errors (e.g. 'x' + 1) surface as error Statuses.
  Result<Value> Eval(const Binding& binding, const DataReader& reader) const;

  // Evaluates and requires a Bool result.
  Result<bool> EvalBool(const Binding& binding,
                        const DataReader& reader) const;

  // Frame-based evaluation for compiled rules: identical semantics to
  // Eval/EvalBool, resolving variables through `slots` into `frame`. Expr
  // trees stay unmodified (they may be shared across rule copies), so
  // resolution is by name; the win is avoiding the per-eval Binding map,
  // not the lookup itself.
  Result<Value> EvalFrame(const BindingFrame& frame, const SlotMap& slots,
                          const DataReader& reader) const;
  Result<bool> EvalBoolFrame(const BindingFrame& frame, const SlotMap& slots,
                             const DataReader& reader) const;

  // EvalBool against a caller-resolved environment: same semantics, with
  // every variable and item read delegated to `env` by node.
  Result<bool> EvalBoolIn(const ExprEnv& env) const;

  // Fully parenthesized rendering, parsable by the rule parser.
  std::string ToString() const;

  // Appends every data-item reference / free variable name in this tree
  // (duplicates included). Either output may be null.
  void Collect(std::vector<ItemRef>* items,
               std::vector<std::string>* variables) const;

  // Structural accessors for analyses (null/empty when not applicable).
  const ExprPtr& lhs() const { return lhs_; }
  const ExprPtr& rhs() const { return rhs_; }
  const Value& literal_value() const { return literal_; }
  const std::string& variable_name() const { return var_name_; }
  const ItemRef& item_ref() const { return item_; }

 private:
  Expr() = default;

  ExprOp op_ = ExprOp::kLiteral;
  Value literal_;
  std::string var_name_;
  ItemRef item_;
  ExprPtr lhs_;
  ExprPtr rhs_;
};

}  // namespace hcm::rule

#endif  // HCM_RULE_EXPR_H_
