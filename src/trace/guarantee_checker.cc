#include "src/trace/guarantee_checker.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <unordered_map>

#include "src/common/string_util.h"

namespace hcm::trace {

std::string Counterexample::ToString() const {
  std::vector<std::string> parts;
  for (const auto& [var, t] : times) {
    parts.push_back(var + "=" + t.ToString());
  }
  for (const auto& [var, v] : values) {
    parts.push_back(var + "=" + v.ToString());
  }
  return StrJoin(parts, ", ");
}

std::string GuaranteeCheckResult::ToString() const {
  std::string out = StrFormat(
      "%s (%zu witnesses, %zu violations%s)", holds ? "HOLDS" : "VIOLATED",
      lhs_witnesses, violations, truncated ? ", truncated" : "");
  for (const auto& ce : counterexamples) {
    out += "\n  counterexample: " + ce.ToString();
  }
  return out;
}

std::string GuaranteeCheckResult::DescribeCheckStats() const {
  return StrFormat(
      "guarantee check stats:\n"
      "  items %zu, atom evaluations %llu\n"
      "  sample-point cache: %llu hits / %llu misses\n"
      "  matching-items cache: %llu hits / %llu misses\n",
      stats.items, static_cast<unsigned long long>(stats.atom_evals),
      static_cast<unsigned long long>(stats.sample_cache_hits),
      static_cast<unsigned long long>(stats.sample_cache_misses),
      static_cast<unsigned long long>(stats.match_cache_hits),
      static_cast<unsigned long long>(stats.match_cache_misses));
}

namespace {

using rule::BindingFrame;
using rule::Expr;
using rule::ExprOp;
using rule::ItemId;
using rule::ItemRef;
using rule::SlotMap;
using rule::Term;
using spec::AtomMode;
using spec::GuaranteeAtom;
using spec::TimeConstraint;
using spec::TimeExpr;

// Grounding states of an atom's item reference besides a timeline id
// (ItemInterner::kNoId: ground, but never touched by the trace).
constexpr uint32_t kLate = ItemInterner::kNoId - 1;      // variable unbound
constexpr uint32_t kUnground = ItemInterner::kNoId - 2;  // wildcard argument

bool Readable(uint32_t id) { return id != kLate && id != kUnground; }

// A time expression resolved to slots: absolute (tslot < 0), or a time
// variable which, while unbound, falls back to the Int-valued value
// variable of the same name (milliseconds — how CM auxiliary data like Tb
// stores times), when there is one (vslot >= 0).
struct SlotTime {
  int tslot = -1;
  int vslot = -1;
  Duration offset = Duration::Zero();
};

struct SlotConstraint {
  SlotTime lhs;
  bool strict = true;
  SlotTime rhs;
};

// One guarantee atom compiled against the checker's slot maps.
struct CompiledAtom {
  const GuaranteeAtom* src = nullptr;
  bool rhs = false;  // existential side
  size_t index = 0;  // position among its side's atoms
  SlotTime at, lo, hi;
  // The atom's item references (Expr::Collect order), compiled; for an
  // E(item) atom, the one existence ref.
  std::vector<ItemRef> refs;
  std::vector<const Expr*> ref_nodes;  // the predicate's kItem node of refs[k]
  std::vector<std::pair<const Expr*, uint16_t>> var_nodes;  // kVariable nodes
  // `item = var` conjuncts the predicate binds var from: (var slot, ref
  // index), in solving order.
  std::vector<std::pair<uint16_t, size_t>> equalities;
  // refs[k] grounded under the binding of the current ExtendBound call: a
  // timeline id, kNoId, kLate or kUnground.
  std::vector<uint32_t> ids;
};

// An atom's sample instants (sorted, unique) plus the sorted change points
// of the items it reads: the atom's predicate is constant between
// consecutive change points.
struct SampleSet {
  std::vector<TimePoint> points;
  std::vector<TimePoint> changes;
};

// Memoized item match: the matched item plus the value slots unification
// bound on top of the probe binding.
struct CachedMatch {
  uint32_t item = 0;
  std::vector<std::pair<uint16_t, Value>> delta;
};

using Delta = std::vector<std::pair<uint16_t, Value>>;

// Witnesses that agree on every value variable and on every time variable
// the RHS reads are equivalent for satisfiability: only the first of each
// class (its representative) runs the existential search. Keys live in one
// flat array (a bound flag and a value per keyed slot) indexed by an
// open-addressing table, so a witness costs no allocation of its own.
class RepresentativeSet {
 public:
  void Init(size_t num_values, std::vector<uint16_t> time_slots) {
    num_values_ = num_values;
    time_slots_ = std::move(time_slots);
    width_ = num_values_ + time_slots_.size();
  }

  // True when the frames' key is new (and records it).
  bool Insert(const BindingFrame& values, const BindingFrame& times) {
    // Append the candidate as key `size_`; drop it again if it is a repeat.
    for (size_t k = 0; k < width_; ++k) {
      const BindingFrame& f = k < num_values_ ? values : times;
      uint16_t slot = k < num_values_ ? static_cast<uint16_t>(k)
                                      : time_slots_[k - num_values_];
      bound_.push_back(f.IsBound(slot) ? 1 : 0);
      keys_.push_back(f.IsBound(slot) ? f.Get(slot) : Value());
    }
    if ((size_ + 1) * 2 > table_.size()) Grow();
    size_t mask = table_.size() - 1;
    for (size_t i = Hash(size_) & mask;; i = (i + 1) & mask) {
      if (table_[i] == 0) {
        table_[i] = static_cast<uint32_t>(++size_);
        return true;
      }
      if (Equal(table_[i] - 1, size_)) {
        bound_.resize(size_ * width_);
        keys_.resize(size_ * width_);
        return false;
      }
    }
  }

 private:
  size_t Hash(size_t key) const {
    size_t h = 0xcbf29ce484222325ull;
    for (size_t at = key * width_; at < (key + 1) * width_; ++at) {
      h = (h ^ (bound_[at] ? keys_[at].Hash() : 0x9e37u)) * 0x100000001b3ull;
    }
    return h;
  }

  bool Equal(size_t a, size_t b) const {
    for (size_t k = 0; k < width_; ++k) {
      size_t x = a * width_ + k;
      size_t y = b * width_ + k;
      if (bound_[x] != bound_[y]) return false;
      if (bound_[x] && !(keys_[x] == keys_[y])) return false;
    }
    return true;
  }

  void Grow() {
    table_.assign(std::max<size_t>(64, table_.size() * 2), 0);
    size_t mask = table_.size() - 1;
    for (size_t key = 0; key < size_; ++key) {
      size_t i = Hash(key) & mask;
      while (table_[i] != 0) i = (i + 1) & mask;
      table_[i] = static_cast<uint32_t>(key + 1);
    }
  }

  size_t num_values_ = 0;
  std::vector<uint16_t> time_slots_;
  size_t width_ = 0;
  size_t size_ = 0;
  std::vector<uint8_t> bound_;  // key k's flags at [k * width_, ...)
  std::vector<Value> keys_;     // key k's values at [k * width_, ...)
  std::vector<uint32_t> table_;  // key index + 1; 0 = empty
};

// Evaluates one guarantee over a timeline. Value and time variables live in
// two slot-indexed frames that the whole run shares: the LHS witnesses are
// enumerated depth-first into them, each witness's existential search
// extends them in place, and every extension is undone by rollback. The
// checker is its own ExprEnv: predicates read variables by slot and items
// through the interned ids grounded once per binding.
class CheckerImpl : private rule::ExprEnv {
 public:
  CheckerImpl(const Trace& trace, const spec::Guarantee& guarantee,
              const GuaranteeCheckOptions& options)
      : guarantee_(guarantee),
        options_(options),
        horizon_(trace.horizon),
        owned_(StateTimeline::Build(trace, !options.use_reference_impl)),
        timeline_(&owned_) {
    Compile();
    BuildUniversalExtraPoints();
  }

  // Timeline-backed construction (streaming path): the checker reads no
  // trace state beyond the timeline and the horizon, so an incrementally
  // maintained timeline slots in directly.
  CheckerImpl(const StateTimeline& timeline, TimePoint horizon,
              const spec::Guarantee& guarantee,
              const GuaranteeCheckOptions& options)
      : guarantee_(guarantee),
        options_(options),
        horizon_(horizon),
        timeline_(&timeline) {
    Compile();
    BuildUniversalExtraPoints();
  }

  Result<GuaranteeCheckResult> Run(
      const GuaranteeWindow* window = nullptr,
      std::vector<WindowedViolation>* violated_out = nullptr) {
    window_ = window;
    violated_ = window != nullptr ? violated_out : nullptr;
    anchor_slot_ = window != nullptr && !window->anchor_var.empty()
                       ? time_slots_.Find(window->anchor_var)
                       : -1;
    ExtendLhs(0);
    result_.holds = result_.violations == 0;
    stats_.items = timeline().items().size();
    result_.stats = stats_;
    return std::move(result_);
  }

 private:
  // ------------------------------------------------------------------
  // Compilation
  // ------------------------------------------------------------------

  void Compile() {
    for (const GuaranteeAtom& a : guarantee_.lhs_atoms) AddAtom(a, &lhs_);
    for (const GuaranteeAtom& a : guarantee_.rhs_atoms) AddAtom(a, &rhs_);
    // Time expressions resolve against the complete value slot map.
    for (std::vector<CompiledAtom>* side : {&lhs_, &rhs_}) {
      for (CompiledAtom& atom : *side) {
        atom.at = CompileTime(atom.src->at);
        atom.lo = CompileTime(atom.src->lo);
        atom.hi = CompileTime(atom.src->hi);
        atom.ids.resize(atom.refs.size());
        all_refs_.insert(all_refs_.end(), atom.refs.begin(), atom.refs.end());
      }
    }
    lhs_time_ = CompileConstraints(guarantee_.lhs_time);
    rhs_time_ = CompileConstraints(guarantee_.rhs_time);
    values_.Resize(value_slots_.size());
    times_.Resize(time_slots_.size());
    level_counts_.assign(lhs_.size(), 0);
    // Names in map order, for ordering parameter bindings like name->value
    // maps.
    for (uint16_t s = 0; s < value_slots_.size(); ++s) name_order_.push_back(s);
    std::sort(name_order_.begin(), name_order_.end(),
              [this](uint16_t a, uint16_t b) {
                return value_slots_.name(a) < value_slots_.name(b);
              });
    // The representative key: every value slot plus the RHS's time
    // variables. When the key covers every time variable the LHS can bind,
    // it covers each witness's whole binding, and distinct witnesses (which
    // differ in the value or instant of their first differing choice) never
    // share a key: no deduplication needed.
    std::vector<uint16_t> rhs_time_slots;
    auto note = [&](const SlotTime& te) {
      if (te.tslot >= 0) rhs_time_slots.push_back(te.tslot);
    };
    for (const CompiledAtom& a : rhs_) {
      note(a.at);
      note(a.lo);
      note(a.hi);
    }
    for (const SlotConstraint& c : rhs_time_) {
      note(c.lhs);
      note(c.rhs);
    }
    std::sort(rhs_time_slots.begin(), rhs_time_slots.end());
    rhs_time_slots.erase(
        std::unique(rhs_time_slots.begin(), rhs_time_slots.end()),
        rhs_time_slots.end());
    auto keyed = [&](const SlotTime& te) {
      return te.tslot < 0 ||
             std::binary_search(rhs_time_slots.begin(), rhs_time_slots.end(),
                                static_cast<uint16_t>(te.tslot));
    };
    for (const CompiledAtom& a : lhs_) {
      if (!keyed(a.at) || !keyed(a.lo)) dedupe_ = true;
    }
    representatives_.Init(value_slots_.size(), std::move(rhs_time_slots));
  }

  void AddAtom(const GuaranteeAtom& src, std::vector<CompiledAtom>* side) {
    CompiledAtom atom;
    atom.src = &src;
    atom.rhs = side == &rhs_;
    atom.index = side->size();
    if (src.exists_item.has_value()) {
      atom.refs.push_back(*src.exists_item);
      atom.refs.back().Compile(&value_slots_);
    } else if (src.pred != nullptr) {
      CompilePred(*src.pred, &atom);
      CompileEqualities(*src.pred, &atom);
    }
    side->push_back(std::move(atom));
  }

  void CompilePred(const Expr& e, CompiledAtom* atom) {
    switch (e.op()) {
      case ExprOp::kLiteral:
        return;
      case ExprOp::kVariable:
        atom->var_nodes.emplace_back(&e,
                                     value_slots_.SlotFor(e.variable_name()));
        return;
      case ExprOp::kItem:
        atom->refs.push_back(e.item_ref());
        atom->refs.back().Compile(&value_slots_);
        atom->ref_nodes.push_back(&e);
        return;
      default:
        if (e.lhs() != nullptr) CompilePred(*e.lhs(), atom);
        if (e.rhs() != nullptr) CompilePred(*e.rhs(), atom);
        return;
    }
  }

  // The `item = var` / `var = item` equalities (and conjunctions thereof)
  // that bind unbound variables from the state at the probed instant.
  void CompileEqualities(const Expr& e, CompiledAtom* atom) {
    if (e.op() == ExprOp::kAnd) {
      CompileEqualities(*e.lhs(), atom);
      CompileEqualities(*e.rhs(), atom);
      return;
    }
    if (e.op() != ExprOp::kEq) return;
    const Expr* item_side = nullptr;
    const Expr* var_side = nullptr;
    if (e.lhs()->op() == ExprOp::kItem &&
        e.rhs()->op() == ExprOp::kVariable) {
      item_side = e.lhs().get();
      var_side = e.rhs().get();
    } else if (e.rhs()->op() == ExprOp::kItem &&
               e.lhs()->op() == ExprOp::kVariable) {
      item_side = e.rhs().get();
      var_side = e.lhs().get();
    } else {
      return;
    }
    size_t ref = static_cast<size_t>(
        std::find(atom->ref_nodes.begin(), atom->ref_nodes.end(), item_side) -
        atom->ref_nodes.begin());
    atom->equalities.emplace_back(
        value_slots_.SlotFor(var_side->variable_name()), ref);
  }

  SlotTime CompileTime(const TimeExpr& te) {
    SlotTime out;
    out.offset = te.offset;
    if (te.is_absolute()) return out;
    out.tslot = time_slots_.SlotFor(te.var);
    out.vslot = value_slots_.Find(te.var);
    return out;
  }

  std::vector<SlotConstraint> CompileConstraints(
      const std::vector<TimeConstraint>& constraints) {
    std::vector<SlotConstraint> out;
    for (const TimeConstraint& c : constraints) {
      out.push_back({CompileTime(c.lhs), c.strict, CompileTime(c.rhs)});
    }
    return out;
  }

  // ------------------------------------------------------------------
  // Frames
  // ------------------------------------------------------------------

  // Time variables are held as Int milliseconds.
  TimePoint TimeOf(uint16_t slot) const {
    return TimePoint::FromMillis(times_.Get(slot).AsInt());
  }
  void BindTime(int slot, TimePoint t) {
    times_.Set(static_cast<uint16_t>(slot), Value::Int(t.millis()));
  }

  // Resolves a time expression: bound time variable, Int-valued value
  // variable, or absolute offset.
  std::optional<TimePoint> GroundTime(const SlotTime& te) const {
    if (te.tslot < 0) return TimePoint::Origin() + te.offset;
    uint16_t t = static_cast<uint16_t>(te.tslot);
    if (times_.IsBound(t)) return TimeOf(t) + te.offset;
    if (te.vslot >= 0) {
      uint16_t v = static_cast<uint16_t>(te.vslot);
      if (values_.IsBound(v) && values_.Get(v).is_int()) {
        return TimePoint::FromMillis(values_.Get(v).AsInt()) + te.offset;
      }
    }
    return std::nullopt;
  }

  // True when all *resolvable* constraints pass; with partial_ok, the
  // unresolvable ones are ignored (used while the RHS is half-built).
  bool SatisfiesConstraints(const std::vector<SlotConstraint>& constraints,
                            bool partial_ok) const {
    for (const SlotConstraint& c : constraints) {
      auto lhs = GroundTime(c.lhs);
      auto rhs = GroundTime(c.rhs);
      if (!lhs.has_value() || !rhs.has_value()) {
        if (partial_ok) continue;
        return false;
      }
      if (c.strict ? !(*lhs < *rhs) : !(*lhs <= *rhs)) return false;
    }
    return true;
  }

  bool AllVariablesBound(const ItemRef& ref) const {
    for (const Term& t : ref.args) {
      if (!t.is_variable()) continue;
      if (!values_.IsBound(static_cast<uint16_t>(t.slot()))) return false;
    }
    return true;
  }

  // The timeline id of `ref` under the current binding.
  uint32_t Ground(const ItemRef& ref) const {
    ground_scratch_.base = ref.base;
    ground_scratch_.args.clear();
    for (const Term& t : ref.args) {
      if (t.is_wildcard()) return kUnground;
      if (t.is_literal()) {
        ground_scratch_.args.push_back(t.literal());
        continue;
      }
      uint16_t slot = static_cast<uint16_t>(t.slot());
      if (!values_.IsBound(slot)) return kLate;
      ground_scratch_.args.push_back(values_.Get(slot));
    }
    return timeline().IdOf(ground_scratch_);
  }

  // refs[k]'s id, grounding now when a variable was unbound at GroundRefs
  // (an earlier equality of the same predicate may have bound it since).
  uint32_t RefId(const CompiledAtom& atom, size_t k) const {
    return atom.ids[k] == kLate ? Ground(atom.refs[k]) : atom.ids[k];
  }

  void GroundRefs(CompiledAtom& atom) {
    for (size_t k = 0; k < atom.refs.size(); ++k) {
      atom.ids[k] = Ground(atom.refs[k]);
    }
  }

  // ExprEnv over the atom being evaluated at `eval_t_`. Error messages are
  // short: eval errors only ever read as false.
  Result<Value> Var(const Expr& node) const override {
    for (const auto& [n, slot] : eval_atom_->var_nodes) {
      if (n == &node) {
        if (!values_.IsBound(slot)) break;
        return values_.Get(slot);
      }
    }
    return Status::FailedPrecondition("unbound");
  }

  Result<Value> Item(const Expr& node) const override {
    for (size_t k = 0; k < eval_atom_->ref_nodes.size(); ++k) {
      if (eval_atom_->ref_nodes[k] != &node) continue;
      uint32_t id = RefId(*eval_atom_, k);
      if (!Readable(id)) break;
      std::optional<Value> v = timeline().ValueAt(id, eval_t_);
      if (!v.has_value()) break;
      return std::move(*v);
    }
    return Status::NotFound("no value");
  }

  // ------------------------------------------------------------------
  // Sample-point machinery
  // ------------------------------------------------------------------

  // Universal quantification must consider every instant where the truth
  // of the *whole formula* (as a function of the quantified time) can flip:
  // not just the LHS atom's own change points, but every guarantee item's
  // change points shifted by every offset the guarantee mentions (interval
  // bounds like `t - kappa` translate an RHS change at time c into an LHS
  // flip at c + kappa). Precomputed once.
  void BuildUniversalExtraPoints() {
    std::vector<Duration> offsets = {Duration::Millis(1)};  // epsilon
    auto add_time = [&offsets](const TimeExpr& te) {
      Duration o = te.offset;
      if (o < Duration::Zero()) o = Duration::Zero() - o;
      if (o != Duration::Zero()) offsets.push_back(o);
    };
    for (const auto* atoms : {&guarantee_.lhs_atoms, &guarantee_.rhs_atoms}) {
      for (const GuaranteeAtom& a : *atoms) {
        add_time(a.at);
        add_time(a.lo);
        add_time(a.hi);
      }
    }
    for (const auto* cs : {&guarantee_.lhs_time, &guarantee_.rhs_time}) {
      for (const TimeConstraint& c : *cs) {
        add_time(c.lhs);
        add_time(c.rhs);
      }
    }
    std::sort(offsets.begin(), offsets.end());
    offsets.erase(std::unique(offsets.begin(), offsets.end()), offsets.end());
    size_t count = 0;
    for (const ItemRef& ref : all_refs_) {
      for (uint32_t id : timeline().ItemIdsWithBase(ref.base)) {
        count += timeline().SegmentsOf(id).size();
      }
    }
    std::vector<TimePoint>& points = universal_extra_points_;
    points.reserve(count * (1 + 2 * offsets.size()));
    for (const ItemRef& ref : all_refs_) {
      for (uint32_t id : timeline().ItemIdsWithBase(ref.base)) {
        for (const Segment& seg : timeline().SegmentsOf(id)) {
          points.push_back(seg.from);
          for (Duration o : offsets) {
            points.push_back(seg.from + o);
            points.push_back(seg.from - o);
          }
        }
      }
    }
    std::sort(points.begin(), points.end());
    points.erase(std::unique(points.begin(), points.end()), points.end());
    points.erase(std::remove_if(points.begin(), points.end(),
                                [this](TimePoint p) {
                                  return p < TimePoint::Origin() ||
                                         horizon_ < p;
                                }),
                 points.end());
  }

  // Concrete item instances in the trace matching `ref` under the current
  // binding, each with the value slots its unification binds. Matches
  // depend only on (ref, the values bound to the ref's variable arguments)
  // — the "binding shape" — so the indexed path memoizes them per shape;
  // reference mode re-unifies against every instance per call.
  const std::vector<CachedMatch>& Matches(const ItemRef& ref) {
    if (options_.use_reference_impl) {
      ++stats_.match_cache_misses;
      UnifyInstances(ref, &fresh_matches_);
      return fresh_matches_;
    }
    match_key_.ref = &ref;
    match_key_.shape.clear();
    for (const Term& t : ref.args) {
      if (!t.is_variable()) continue;
      uint16_t slot = static_cast<uint16_t>(t.slot());
      match_key_.shape.push_back(values_.IsBound(slot)
                                     ? std::optional<Value>(values_.Get(slot))
                                     : std::nullopt);
    }
    auto cached = match_cache_.find(match_key_);
    if (cached != match_cache_.end()) {
      ++stats_.match_cache_hits;
      return cached->second;
    }
    ++stats_.match_cache_misses;
    std::vector<CachedMatch> entry;
    UnifyInstances(ref, &entry);
    return match_cache_.emplace(match_key_, std::move(entry)).first->second;
  }

  void UnifyInstances(const ItemRef& ref, std::vector<CachedMatch>* out) {
    out->clear();
    for (uint32_t id : timeline().ItemIdsWithBase(ref.base)) {
      size_t mark = values_.mark();
      if (!ref.UnifyCompiled(timeline().items().item(id), ref.base_sym,
                             &values_)) {
        continue;
      }
      CachedMatch m;
      m.item = id;
      const std::vector<uint16_t>& bound = values_.bound_slots();
      for (size_t i = mark; i < bound.size(); ++i) {
        m.delta.emplace_back(bound[i], values_.Get(bound[i]));
      }
      values_.Rollback(mark);
      out->push_back(std::move(m));
    }
  }

  // Items an atom reads, grounded as far as the binding allows; instances
  // are enumerated from the trace. When the atom mentions no items at all
  // (e.g. "(true)@t"), every guarantee item is relevant.
  const std::vector<uint32_t>& AtomItems(const CompiledAtom& atom) {
    atom_items_.clear();
    for (const ItemRef& ref : atom.refs.empty() ? all_refs_ : atom.refs) {
      for (const CachedMatch& m : Matches(ref)) atom_items_.push_back(m.item);
    }
    // Still nothing (no guarantee items at all): fall back to the trace.
    return atom_items_.empty() ? timeline().items().SortedIds() : atom_items_;
  }

  // Sample instants covering every truth segment of predicates over
  // `items` (interned ids): each segment's start plus two interior
  // representatives, the origin, and the horizon. Universal (LHS)
  // quantification ranges over [0, horizon]; existential (RHS) search may
  // also look at the pre-origin instant where initial values hold.
  SampleSet ComputeSamplePoints(const std::vector<uint32_t>& items,
                                bool existential) {
    std::vector<TimePoint>& changes = changes_scratch_;
    changes.clear();
    for (uint32_t id : items) {
      for (const Segment& seg : timeline().SegmentsOf(id)) {
        changes.push_back(seg.from);
      }
    }
    std::sort(changes.begin(), changes.end());
    std::vector<TimePoint>& points = points_scratch_;
    points.clear();
    points.push_back(TimePoint::Origin());
    points.push_back(horizon_);
    for (size_t i = 0; i < changes.size(); ++i) {
      TimePoint start = changes[i];
      TimePoint end = (i + 1 < changes.size()) ? changes[i + 1] : horizon_;
      points.push_back(start);
      if (start < end) {
        Duration span = end - start;
        points.push_back(start + span / 3);
        points.push_back(start + (span * 2) / 3);
      }
    }
    // The extra points make both quantifiers robust to constraints that
    // relate this atom's time to other atoms' change points (e.g. a window
    // (t1, t1 + kappa] that opens just after a change).
    points.insert(points.end(), universal_extra_points_.begin(),
                  universal_extra_points_.end());
    std::sort(points.begin(), points.end());
    auto first = std::unique(points.begin(), points.end());
    points.erase(first, points.end());
    auto keep = points.begin();
    if (!existential) {
      // Universal quantification is over the observed window only.
      keep = std::lower_bound(points.begin(), points.end(),
                              TimePoint::Origin());
    }
    return SampleSet{std::vector<TimePoint>(keep, points.end()),
                     std::vector<TimePoint>(changes)};
  }

  // The atom's sample set under the current binding. Reference mode
  // recomputes it into `local` (owned by the caller's frame, so a recursive
  // search cannot clobber a set still being iterated); the indexed path
  // returns the memoized set, keyed by the interned id list plus the
  // quantifier flag (no allocation on a hit).
  const SampleSet& SamplePoints(const CompiledAtom& atom, SampleSet* local) {
    const std::vector<uint32_t>& items = AtomItems(atom);
    if (options_.use_reference_impl) {
      ++stats_.sample_cache_misses;
      *local = ComputeSamplePoints(items, atom.rhs);
      return *local;
    }
    sample_key_.clear();
    sample_key_.push_back(atom.rhs ? 1u : 0u);
    sample_key_.insert(sample_key_.end(), items.begin(), items.end());
    auto it = sample_cache_.find(sample_key_);
    if (it != sample_cache_.end()) {
      ++stats_.sample_cache_hits;
      return it->second;
    }
    ++stats_.sample_cache_misses;
    return sample_cache_
        .emplace(sample_key_, ComputeSamplePoints(items, atom.rhs))
        .first->second;
  }

  // ------------------------------------------------------------------
  // Constraint-bounded existential search
  // ------------------------------------------------------------------

  // The sample instants an RHS atom may bind its unbound time variable to
  // (var = instant - te.offset), as an inclusive range. Every RHS time
  // constraint with the variable on exactly one side and the other side
  // already grounded becomes resolvable the moment the variable is bound,
  // and SatisfyRhs rejects any extension that fails it — so an instant
  // outside the range can never extend to an RHS witness.
  struct SearchBounds {
    TimePoint lo = TimePoint::FromMillis(std::numeric_limits<int64_t>::min());
    TimePoint hi = TimePoint::FromMillis(std::numeric_limits<int64_t>::max());
    bool has_hi = false;
    // The variable is read past this atom (by another RHS atom, or by a
    // constraint not yet resolvable): different instants of one state
    // interval can then lead to different verdicts.
    bool escapes = false;
  };

  SearchBounds BoundsFor(const CompiledAtom& atom, const SlotTime& te) const {
    SearchBounds b;
    const int var = te.tslot;
    for (const CompiledAtom& other : rhs_) {
      if (&other == &atom) continue;
      if (other.at.tslot == var || other.lo.tslot == var ||
          other.hi.tslot == var) {
        b.escapes = true;
      }
    }
    for (const SlotConstraint& c : rhs_time_) {
      bool in_lhs = c.lhs.tslot == var;
      bool in_rhs = c.rhs.tslot == var;
      if (!in_lhs && !in_rhs) continue;
      std::optional<TimePoint> other =
          in_lhs && in_rhs ? std::nullopt : GroundTime(in_lhs ? c.rhs : c.lhs);
      if (!other.has_value()) {
        b.escapes = true;
        continue;
      }
      // The variable's side reads instant + shift.
      Duration shift = (in_lhs ? c.lhs : c.rhs).offset - te.offset;
      Duration strict = Duration::Millis(c.strict ? 1 : 0);
      if (in_lhs) {  // instant + shift (<|<=) other
        b.hi = std::min(b.hi, *other - shift - strict);
        b.has_hi = true;
      } else {  // other (<|<=) instant + shift
        b.lo = std::max(b.lo, *other - shift + strict);
      }
    }
    return b;
  }

  // Existential search of a kAt atom over its unbound time variable,
  // restricted to the instants BoundsFor leaves open. When the variable is
  // not read past this atom, every instant of one state interval of the
  // atom's items (between consecutive change points) yields the same
  // predicate value, value bindings and verdict, so one probe per interval
  // decides it. Intervals are probed starting next to the tightest bound —
  // where a propagated value is usually found — so a holding witness
  // typically resolves on the first probe. Returns true when the search
  // succeeded.
  bool SearchAt(CompiledAtom& atom, const SampleSet& samples) {
    SearchBounds b = BoundsFor(atom, atom.at);
    const std::vector<TimePoint>& pts = samples.points;
    const std::vector<TimePoint>& changes = samples.changes;
    auto first = std::lower_bound(pts.begin(), pts.end(), b.lo);
    auto last = std::upper_bound(first, pts.end(), b.hi);
    if (b.escapes) {
      for (auto it = first; it != last; ++it) {
        if (Probe(atom, *it)) return true;
      }
      return false;
    }
    if (b.has_hi) {
      // Downward from hi: after probing t, skip to the instants before the
      // change that opened t's interval.
      for (auto end = last; end != first;) {
        TimePoint t = *std::prev(end);
        if (Probe(atom, t)) return true;
        auto opened = std::upper_bound(changes.begin(), changes.end(), t);
        if (opened == changes.begin()) break;  // t precedes every change
        end = std::lower_bound(first, end, *std::prev(opened));
      }
      return false;
    }
    // Upward from lo: after probing t, skip to the next change.
    for (auto it = first; it != last;) {
      TimePoint t = *it;
      if (Probe(atom, t)) return true;
      auto closes = std::upper_bound(changes.begin(), changes.end(), t);
      if (closes == changes.end()) break;  // t's interval runs to the end
      it = std::lower_bound(it, last, *closes);
    }
    return false;
  }

  // ------------------------------------------------------------------
  // Atom evaluation
  // ------------------------------------------------------------------

  // Truth of the atom's predicate at one instant, binding unbound `item =
  // var` variables from the state at t first. Eval errors (nonexistent
  // item, unbound variable) count as false. Bindings made here stay until
  // the caller rolls them back.
  bool PredTrueAt(CompiledAtom& atom, TimePoint t) {
    ++stats_.atom_evals;
    if (atom.src->exists_item.has_value()) {
      if (!Readable(atom.ids[0])) return false;
      bool exists = timeline().ExistsAt(atom.ids[0], t);
      return atom.src->negated_exists ? !exists : exists;
    }
    for (const auto& [slot, ref] : atom.equalities) {
      if (values_.IsBound(slot)) continue;
      uint32_t id = RefId(atom, ref);
      if (!Readable(id)) continue;
      std::optional<Value> v = timeline().ValueAt(id, t);
      if (v.has_value()) values_.Set(slot, *v);
    }
    eval_atom_ = &atom;
    eval_t_ = t;
    auto ok = atom.src->pred->EvalBoolIn(*this);
    return ok.ok() && *ok;
  }

  // One candidate instant of a kAt atom's unbound time variable.
  bool Probe(CompiledAtom& atom, TimePoint t) {
    size_t value_mark = values_.mark();
    size_t time_mark = times_.mark();
    bool stop = false;
    if (PredTrueAt(atom, t)) {
      BindTime(atom.at.tslot, t - atom.at.offset);
      stop = Emit(atom);
    }
    values_.Rollback(value_mark);
    times_.Rollback(time_mark);
    return stop;
  }

  // Passes one satisfying extension of `atom` on: to the next LHS level
  // (counted against the per-level cap) or to the rest of the RHS search.
  // Returns true to stop the enumeration: the RHS is satisfied, or the LHS
  // was truncated.
  bool Emit(const CompiledAtom& atom) {
    if (atom.rhs) return SatisfyRhs(atom.index + 1);
    if (++level_counts_[atom.index] > options_.max_lhs_witnesses) {
      result_.truncated = true;
      return true;
    }
    return ExtendLhs(atom.index + 1);
  }

  // Extends the frames with one atom, emitting every satisfying extension
  // (RHS: until one satisfies the rest). Item-parameter bindings (e.g. the
  // i in project(i)) are enumerated first; when every parameter is already
  // bound, the current binding is the only one.
  bool ExtendWithAtom(CompiledAtom& atom) {
    if (!options_.use_reference_impl && ParamsBound(atom)) {
      return ExtendBound(atom);
    }
    for (const Delta& delta : ParamBindings(atom)) {
      size_t mark = values_.mark();
      for (const auto& [slot, v] : delta) values_.Set(slot, v);
      bool stop = ExtendBound(atom);
      values_.Rollback(mark);
      if (stop) return true;
    }
    return false;
  }

  // ExtendWithAtom for one item-parameter binding (parameters with no
  // matching instance stay unbound; the predicate then reads as false).
  // kAt atoms with an unbound time variable enumerate sample instants;
  // otherwise the atom is verified at its determined instant/interval.
  bool ExtendBound(CompiledAtom& atom) {
    const bool existential = atom.rhs;
    if (atom.src->mode == AtomMode::kAt) {
      GroundRefs(atom);
      if (auto fixed = GroundTime(atom.at)) {
        size_t mark = values_.mark();
        bool stop = PredTrueAt(atom, *fixed) && Emit(atom);
        values_.Rollback(mark);
        return stop;
      }
      // Unbound time variable: enumerate sample points, assigning
      // var = sample - offset.
      SampleSet local;
      const SampleSet& samples = SamplePoints(atom, &local);
      if (existential && !options_.use_reference_impl) {
        return SearchAt(atom, samples);
      }
      for (TimePoint t : samples.points) {
        if (Probe(atom, t)) return true;
      }
      return false;
    }
    // kThroughout / kSometimeIn.
    auto lo = GroundTime(atom.lo);
    auto hi = GroundTime(atom.hi);
    // An unbound time variable in the lower bound (e.g. the t of
    // E(project(i))@@[t, t+24h]) is enumerated over sample points — on the
    // RHS only those the time constraints leave open.
    if (!lo.has_value() && atom.lo.tslot >= 0) {
      SampleSet local;
      const SampleSet& samples = SamplePoints(atom, &local);
      auto first = samples.points.begin();
      auto last = samples.points.end();
      if (existential && !options_.use_reference_impl) {
        SearchBounds b = BoundsFor(atom, atom.lo);
        first = std::lower_bound(first, last, b.lo);
        last = std::upper_bound(first, last, b.hi);
      }
      for (auto it = first; it != last; ++it) {
        size_t mark = times_.mark();
        BindTime(atom.lo.tslot, *it - atom.lo.offset);
        bool stop = ExtendWithAtom(atom);
        times_.Rollback(mark);
        if (stop) return true;
      }
      return false;
    }
    if (!lo.has_value() || !hi.has_value()) return false;  // unresolvable
    const bool throughout = atom.src->mode == AtomMode::kThroughout;
    if (*hi < *lo) {
      // Empty interval: vacuous for "throughout", false for "in".
      return throughout && Emit(atom);
    }
    GroundRefs(atom);
    SampleSet local;
    const std::vector<TimePoint>& samples = SamplePoints(atom, &local).points;
    // lo, hi, then the sorted samples strictly inside (lo, hi); bindings
    // made at one instant carry over to the next.
    size_t mark = values_.mark();
    bool all = true;
    bool any = false;
    auto sample = [&](TimePoint t) {
      if (PredTrueAt(atom, t)) {
        any = true;
      } else {
        all = false;
      }
      return all || !throughout;  // false: "throughout" already failed
    };
    if (sample(*lo) && sample(*hi)) {
      auto inside = std::upper_bound(samples.begin(), samples.end(), *lo);
      auto end = std::lower_bound(inside, samples.end(), *hi);
      while (inside != end && sample(*inside)) ++inside;
    }
    bool stop = (throughout ? all : any) && Emit(atom);
    values_.Rollback(mark);
    return stop;
  }

  bool ParamsBound(const CompiledAtom& atom) const {
    for (const ItemRef& ref : atom.refs) {
      if (!AllVariablesBound(ref)) return false;
    }
    return true;
  }

  // Bindings for the parameters inside the atom's item references,
  // enumerated from the trace's item instances, as deltas over the current
  // binding in the order (and with the deduplication) of the equivalent
  // name->value maps. At least the empty delta when the atom's refs are
  // ground or have no instances.
  std::vector<Delta> ParamBindings(const CompiledAtom& atom) {
    std::vector<Delta> current(1);
    for (const ItemRef& ref : atom.refs) {
      bool has_open_args = false;
      for (const Term& t : ref.args) {
        if (t.is_variable()) has_open_args = true;
      }
      if (!has_open_args) continue;
      std::vector<Delta> next;
      for (const Delta& d : current) {
        size_t mark = values_.mark();
        for (const auto& [slot, v] : d) values_.Set(slot, v);
        // Unification could only confirm d when every parameter is bound;
        // no instance keeps d too (the predicate will read as false).
        const std::vector<CachedMatch>* matches =
            AllVariablesBound(ref) ? nullptr : &Matches(ref);
        if (matches == nullptr || matches->empty()) {
          next.push_back(d);
        } else {
          for (const CachedMatch& m : *matches) {
            next.push_back(d);
            next.back().insert(next.back().end(), m.delta.begin(),
                               m.delta.end());
          }
        }
        values_.Rollback(mark);
      }
      SortBindings(&next);
      current = std::move(next);
    }
    return current;
  }

  // Sorts and deduplicates candidate deltas as the name->value maps of the
  // current binding plus each delta would sort (lexicographically by
  // (name, value) pair).
  void SortBindings(std::vector<Delta>* deltas) const {
    using Entry = std::pair<size_t, const Value*>;  // (name rank, value)
    std::vector<std::vector<Entry>> maps(deltas->size());
    for (size_t i = 0; i < deltas->size(); ++i) {
      for (size_t rank = 0; rank < name_order_.size(); ++rank) {
        uint16_t slot = name_order_[rank];
        const Value* v = values_.IsBound(slot) ? &values_.Get(slot) : nullptr;
        for (const auto& [s, dv] : (*deltas)[i]) {
          if (s == slot) v = &dv;
        }
        if (v != nullptr) maps[i].emplace_back(rank, v);
      }
    }
    auto less = [](const Entry& a, const Entry& b) {
      if (a.first != b.first) return a.first < b.first;
      return *a.second < *b.second;
    };
    auto equal = [](const Entry& a, const Entry& b) {
      return a.first == b.first && *a.second == *b.second;
    };
    std::vector<size_t> order(deltas->size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return std::lexicographical_compare(maps[a].begin(), maps[a].end(),
                                          maps[b].begin(), maps[b].end(),
                                          less);
    });
    order.erase(std::unique(order.begin(), order.end(),
                            [&](size_t a, size_t b) {
                              return std::equal(maps[a].begin(),
                                                maps[a].end(),
                                                maps[b].begin(),
                                                maps[b].end(), equal);
                            }),
                order.end());
    std::vector<Delta> sorted;
    sorted.reserve(order.size());
    for (size_t i : order) sorted.push_back(std::move((*deltas)[i]));
    *deltas = std::move(sorted);
  }

  // ------------------------------------------------------------------
  // Witnesses
  // ------------------------------------------------------------------

  // Depth-first enumeration of the LHS witnesses: level `index` extends
  // the frames with LHS atom `index`. Returns true once truncated.
  bool ExtendLhs(size_t index) {
    if (index == lhs_.size()) {
      Witness();
      return false;
    }
    return ExtendWithAtom(lhs_[index]);
  }

  // One fully extended LHS assignment: filter it (time constraints, anchor
  // window, settle margin), then search the RHS for its representative.
  void Witness() {
    if (!SatisfiesConstraints(lhs_time_, /*partial_ok=*/false)) return;
    // Anchor window: keep only witnesses whose anchor falls in [lo, hi) —
    // an exact partition of the witness set, so window runs sum to the
    // unrestricted run.
    if (anchor_slot_ >= 0 && times_.IsBound(anchor_slot_)) {
      TimePoint anchor = TimeOf(anchor_slot_);
      if (window_->has_lo && anchor < window_->lo) return;
      if (window_->has_hi && !(anchor < window_->hi)) return;
    }
    // Settle margin: drop witnesses too close to the horizon.
    if (options_.settle_margin > Duration::Zero()) {
      TimePoint cutoff = horizon_ - options_.settle_margin;
      for (uint16_t slot : times_.bound_slots()) {
        if (TimeOf(slot) > cutoff) return;
      }
    }
    ++result_.lhs_witnesses;
    if (dedupe_ && !representatives_.Insert(values_, times_)) return;
    size_t value_mark = values_.mark();
    size_t time_mark = times_.mark();
    bool satisfied = SatisfyRhs(0);
    values_.Rollback(value_mark);
    times_.Rollback(time_mark);
    if (satisfied) return;
    // Counterexamples come out in witness order; the cap keeps the first.
    ++result_.violations;
    if (result_.counterexamples.size() < options_.max_counterexamples) {
      result_.counterexamples.push_back(MakeCounterexample());
    }
    if (violated_ != nullptr) {
      WindowedViolation wv;
      for (const std::string& var : window_->param_vars) {
        int slot = value_slots_.Find(var);
        if (slot >= 0 && values_.IsBound(static_cast<uint16_t>(slot))) {
          wv.param_binding.emplace_back(
              var, values_.Get(static_cast<uint16_t>(slot)));
        }
      }
      wv.anchor = anchor_slot_ >= 0 && times_.IsBound(anchor_slot_)
                      ? TimeOf(anchor_slot_)
                      : TimePoint::Origin();
      wv.ce = MakeCounterexample();
      violated_->push_back(std::move(wv));
    }
  }

  Counterexample MakeCounterexample() const {
    Counterexample ce;
    ce.values = values_.ToMap(value_slots_);
    for (uint16_t slot : times_.bound_slots()) {
      ce.times.emplace(time_slots_.name(slot), TimeOf(slot));
    }
    return ce;
  }

  // Depth-first existential search over the RHS atoms.
  bool SatisfyRhs(size_t index) {
    if (!SatisfiesConstraints(rhs_time_, /*partial_ok=*/true)) return false;
    if (index == rhs_.size()) {
      return SatisfiesConstraints(rhs_time_, /*partial_ok=*/false);
    }
    return ExtendWithAtom(rhs_[index]);
  }

  // (ref identity, values bound to the ref's variable args) — everything
  // unification can observe.
  struct MatchKey {
    const void* ref = nullptr;
    std::vector<std::optional<Value>> shape;
    bool operator==(const MatchKey& o) const {
      return ref == o.ref && shape == o.shape;
    }
  };
  struct MatchKeyHash {
    size_t operator()(const MatchKey& k) const {
      size_t h = std::hash<const void*>()(k.ref);
      for (const auto& v : k.shape) {
        h = h * 1000003 + (v.has_value() ? v->Hash() : 0x9e3779b9u);
      }
      return h;
    }
  };
  struct SampleKeyHash {
    size_t operator()(const std::vector<uint32_t>& key) const {
      size_t h = 0xcbf29ce484222325ull;
      for (uint32_t v : key) h = (h ^ v) * 0x100000001b3ull;
      return h;
    }
  };

  const StateTimeline& timeline() const { return *timeline_; }

  const spec::Guarantee& guarantee_;
  const GuaranteeCheckOptions& options_;
  TimePoint horizon_;
  StateTimeline owned_;            // set only by the trace constructor
  const StateTimeline* timeline_;  // &owned_ or the caller's timeline

  // The compiled guarantee.
  SlotMap value_slots_;
  SlotMap time_slots_;
  std::vector<CompiledAtom> lhs_, rhs_;
  std::vector<SlotConstraint> lhs_time_, rhs_time_;
  std::vector<ItemRef> all_refs_;     // every atom's refs, LHS first
  std::vector<uint16_t> name_order_;  // value slots by variable name
  std::vector<TimePoint> universal_extra_points_;

  // The run's state: the two frames, the LHS level counters, the
  // representative keys, and the result under construction.
  BindingFrame values_;
  BindingFrame times_;  // time variables, as Int milliseconds
  std::vector<size_t> level_counts_;
  bool dedupe_ = false;
  RepresentativeSet representatives_;
  const GuaranteeWindow* window_ = nullptr;
  std::vector<WindowedViolation>* violated_ = nullptr;
  int anchor_slot_ = -1;
  GuaranteeCheckResult result_;
  GuaranteeCheckStats stats_;

  // Memo caches shared by the universal enumeration and every witness's
  // existential search, and reused scratch.
  std::unordered_map<std::vector<uint32_t>, SampleSet, SampleKeyHash>
      sample_cache_;
  std::unordered_map<MatchKey, std::vector<CachedMatch>, MatchKeyHash>
      match_cache_;
  std::vector<uint32_t> sample_key_;
  MatchKey match_key_;
  std::vector<CachedMatch> fresh_matches_;
  std::vector<uint32_t> atom_items_;
  std::vector<TimePoint> changes_scratch_;
  std::vector<TimePoint> points_scratch_;
  mutable ItemId ground_scratch_;
  // The atom and instant PredTrueAt is evaluating (read by Var/Item).
  const CompiledAtom* eval_atom_ = nullptr;
  TimePoint eval_t_;
};

}  // namespace

Result<GuaranteeCheckResult> CheckGuarantee(
    const Trace& trace, const spec::Guarantee& guarantee,
    const GuaranteeCheckOptions& options) {
  if (guarantee.name.find("PARSE-ERROR") != std::string::npos) {
    return Status::InvalidArgument("guarantee failed to parse: " +
                                   guarantee.name);
  }
  CheckerImpl impl(trace, guarantee, options);
  return impl.Run();
}

Result<GuaranteeCheckResult> CheckGuaranteeOverTimeline(
    const StateTimeline& timeline, TimePoint horizon,
    const spec::Guarantee& guarantee, const GuaranteeCheckOptions& options,
    const GuaranteeWindow* window, std::vector<WindowedViolation>* violated) {
  if (guarantee.name.find("PARSE-ERROR") != std::string::npos) {
    return Status::InvalidArgument("guarantee failed to parse: " +
                                   guarantee.name);
  }
  CheckerImpl impl(timeline, horizon, guarantee, options);
  return impl.Run(window, violated);
}

Result<std::map<std::string, GuaranteeCheckResult>> CheckGuarantees(
    const Trace& trace, const std::vector<spec::Guarantee>& guarantees,
    const GuaranteeCheckOptions& options) {
  std::map<std::string, GuaranteeCheckResult> out;
  for (const auto& g : guarantees) {
    HCM_ASSIGN_OR_RETURN(GuaranteeCheckResult r,
                         CheckGuarantee(trace, g, options));
    out.emplace(g.name, std::move(r));
  }
  return out;
}

}  // namespace hcm::trace
