#include "src/trace/guarantee_checker.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <optional>
#include <set>
#include <unordered_map>
#include <unordered_set>

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

using rule::Binding;
using rule::ExprOp;
using rule::ItemId;
using rule::ItemRef;
using spec::AtomMode;
using spec::GuaranteeAtom;
using spec::TimeConstraint;
using spec::TimeExpr;

struct Assignment {
  Binding values;
  std::map<std::string, TimePoint> times;
};

class CheckerImpl {
 public:
  CheckerImpl(const Trace& trace, const spec::Guarantee& guarantee,
              const GuaranteeCheckOptions& options)
      : guarantee_(guarantee),
        options_(options),
        horizon_(trace.horizon),
        owned_(StateTimeline::Build(trace, !options.use_reference_impl)),
        timeline_(&owned_) {
    CollectGuaranteeItems();
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
    CollectGuaranteeItems();
    BuildUniversalExtraPoints();
  }

  Result<GuaranteeCheckResult> Run(
      const GuaranteeWindow* window = nullptr,
      std::vector<WindowedViolation>* violated_out = nullptr) {
    GuaranteeCheckResult result;
    // Enumerate universal witnesses over the LHS.
    std::vector<Assignment> witnesses = {Assignment{}};
    for (const auto& atom : guarantee_.lhs_atoms) {
      std::vector<Assignment> next;
      for (const auto& a : witnesses) {
        ExtendWithAtom(atom, a, /*existential=*/false,
                       [&next](Assignment&& ext) {
                         next.push_back(std::move(ext));
                         return false;  // keep enumerating
                       });
        if (next.size() > options_.max_lhs_witnesses) {
          result.truncated = true;
          next.resize(options_.max_lhs_witnesses);
          break;
        }
      }
      witnesses = std::move(next);
    }
    // Apply LHS time constraints.
    witnesses.erase(
        std::remove_if(witnesses.begin(), witnesses.end(),
                       [&](const Assignment& a) {
                         return !SatisfiesConstraints(guarantee_.lhs_time, a,
                                                      /*partial_ok=*/false);
                       }),
        witnesses.end());
    // Anchor window: keep only witnesses whose anchor falls in [lo, hi).
    // An exact partition of the witness set — window runs sum to the
    // unrestricted run.
    if (window != nullptr && !window->anchor_var.empty()) {
      witnesses.erase(
          std::remove_if(witnesses.begin(), witnesses.end(),
                         [&](const Assignment& a) {
                           auto it = a.times.find(window->anchor_var);
                           if (it == a.times.end()) return false;
                           if (window->has_lo && it->second < window->lo) {
                             return true;
                           }
                           return window->has_hi && !(it->second < window->hi);
                         }),
          witnesses.end());
    }
    // Settle margin: drop witnesses too close to the horizon.
    if (options_.settle_margin > Duration::Zero()) {
      TimePoint cutoff = horizon_ - options_.settle_margin;
      witnesses.erase(std::remove_if(witnesses.begin(), witnesses.end(),
                                     [&](const Assignment& a) {
                                       for (const auto& [v, t] : a.times) {
                                         (void)v;
                                         if (t > cutoff) return true;
                                       }
                                       return false;
                                     }),
                      witnesses.end());
    }
    result.lhs_witnesses = witnesses.size();
    // Witnesses that agree on every value variable and every time variable
    // the RHS actually references are equivalent for satisfiability; dedupe
    // before the (comparatively expensive) existential search.
    std::set<std::string> rhs_time_vars;
    auto note_var = [&rhs_time_vars](const TimeExpr& te) {
      if (!te.var.empty()) rhs_time_vars.insert(te.var);
    };
    for (const auto& a : guarantee_.rhs_atoms) {
      note_var(a.at);
      note_var(a.lo);
      note_var(a.hi);
    }
    for (const auto& c : guarantee_.rhs_time) {
      note_var(c.lhs);
      note_var(c.rhs);
    }
    auto rhs_time = [](const Assignment& w,
                       const std::string& var) -> std::optional<TimePoint> {
      auto it = w.times.find(var);
      if (it == w.times.end()) return std::nullopt;
      return it->second;
    };
    auto key_hash = [&](const Assignment* w) {
      size_t h = 0xcbf29ce484222325ull;
      for (const auto& [var, v] : w->values) {
        h = (h ^ std::hash<std::string>()(var)) * 0x100000001b3ull;
        h = (h ^ v.Hash()) * 0x100000001b3ull;
      }
      for (const std::string& var : rhs_time_vars) {
        auto t = rhs_time(*w, var);
        h = (h ^ (t.has_value() ? static_cast<size_t>(t->millis()) : 0x9e37u)) *
            0x100000001b3ull;
      }
      return h;
    };
    auto key_eq = [&](const Assignment* a, const Assignment* b) {
      if (a->values != b->values) return false;
      for (const std::string& var : rhs_time_vars) {
        if (rhs_time(*a, var) != rhs_time(*b, var)) return false;
      }
      return true;
    };
    std::unordered_set<const Assignment*, decltype(key_hash), decltype(key_eq)>
        seen(witnesses.size(), key_hash, key_eq);
    std::vector<const Assignment*> representative;
    for (const auto& w : witnesses) {
      if (seen.insert(&w).second) representative.push_back(&w);
    }
    // Existential search per representative, in witness order; the
    // counterexample cap keeps the first violations.
    for (const Assignment* w : representative) {
      if (SatisfyRhs(0, *w)) continue;
      ++result.violations;
      if (result.counterexamples.size() < options_.max_counterexamples) {
        result.counterexamples.push_back(Counterexample{w->values, w->times});
      }
      if (violated_out != nullptr && window != nullptr) {
        WindowedViolation wv;
        for (const auto& var : window->param_vars) {
          auto it = w->values.find(var);
          if (it != w->values.end()) {
            wv.param_binding.emplace_back(var, it->second);
          }
        }
        auto at = w->times.find(window->anchor_var);
        wv.anchor = at != w->times.end() ? at->second : TimePoint::Origin();
        wv.ce = Counterexample{w->values, w->times};
        violated_out->push_back(std::move(wv));
      }
    }
    result.holds = result.violations == 0;
    ctx_.stats.items = timeline().items().size();
    result.stats = ctx_.stats;
    return result;
  }

 private:
  // An atom's sample instants (sorted, unique) plus the sorted change
  // points of the items it reads: the atom's predicate is constant between
  // consecutive change points.
  struct SampleSet {
    std::vector<TimePoint> points;
    std::vector<TimePoint> changes;
  };

  // Memoized MatchingItems entry: the matched item plus the variable
  // bindings the unification added on top of the probe binding.
  struct CachedMatch {
    uint32_t item = 0;
    std::vector<std::pair<std::string, Value>> delta;
  };

  // A sink receives each satisfying extension; returning true stops the
  // enumeration (existential short-circuit).
  using Sink = std::function<bool(Assignment&&)>;

  // ------------------------------------------------------------------
  // State access
  // ------------------------------------------------------------------

  rule::DataReader ReaderAt(TimePoint t) const {
    return [this, t](const ItemId& item) -> Result<Value> {
      auto v = timeline().ValueAt(item, t);
      if (!v.has_value()) return Status::NotFound(item.ToString());
      return *v;
    };
  }

  // ------------------------------------------------------------------
  // Sample-point machinery
  // ------------------------------------------------------------------

  void CollectGuaranteeItems() {
    auto add_atom = [&](const GuaranteeAtom& atom) {
      // Each atom's item references are collected once here; the hot paths
      // below look them up by atom instead of re-walking the predicate
      // expression on every candidate assignment.
      std::vector<ItemRef> refs;
      if (atom.exists_item.has_value()) {
        refs.push_back(*atom.exists_item);
      } else if (atom.pred != nullptr) {
        atom.pred->Collect(&refs, nullptr);
      }
      all_refs_.insert(all_refs_.end(), refs.begin(), refs.end());
      atom_refs_.emplace(&atom, std::move(refs));
    };
    for (const auto& a : guarantee_.lhs_atoms) add_atom(a);
    for (const auto& a : guarantee_.rhs_atoms) add_atom(a);
  }

  // Universal quantification must consider every instant where the truth
  // of the *whole formula* (as a function of the quantified time) can flip:
  // not just the LHS atom's own change points, but every guarantee item's
  // change points shifted by every offset the guarantee mentions (interval
  // bounds like `t - kappa` translate an RHS change at time c into an LHS
  // flip at c + kappa). Precomputed once.
  void BuildUniversalExtraPoints() {
    std::set<Duration> offsets;
    offsets.insert(Duration::Millis(1));  // segment-boundary epsilon
    auto add_time = [&offsets](const TimeExpr& te) {
      Duration o = te.offset;
      if (o < Duration::Zero()) o = Duration::Zero() - o;
      if (o != Duration::Zero()) offsets.insert(o);
    };
    auto add_atom = [&](const GuaranteeAtom& a) {
      add_time(a.at);
      add_time(a.lo);
      add_time(a.hi);
    };
    for (const auto& a : guarantee_.lhs_atoms) add_atom(a);
    for (const auto& a : guarantee_.rhs_atoms) add_atom(a);
    for (const auto& c : guarantee_.lhs_time) {
      add_time(c.lhs);
      add_time(c.rhs);
    }
    for (const auto& c : guarantee_.rhs_time) {
      add_time(c.lhs);
      add_time(c.rhs);
    }
    std::set<TimePoint> points;
    for (const auto& ref : all_refs_) {
      for (uint32_t id : timeline().ItemIdsWithBase(ref.base)) {
        for (const auto& seg : timeline().SegmentsOf(id)) {
          points.insert(seg.from);
          for (Duration o : offsets) {
            points.insert(seg.from + o);
            points.insert(seg.from - o);
          }
        }
      }
    }
    for (TimePoint p : points) {
      if (TimePoint::Origin() <= p && p <= horizon_) {
        universal_extra_points_.push_back(p);
      }
    }
  }

  // Concrete item instances in the trace matching a (possibly open) ref
  // under the assignment. Each match may extend the value binding.
  //
  // Matches depend only on (ref, the binding's values for the ref's
  // variable arguments) — the "binding shape" — so they are memoized per
  // shape as (item, binding-delta) pairs and replayed onto each concrete
  // binding. Reference mode re-unifies against every instance per call.
  std::vector<std::pair<uint32_t, Binding>> MatchingItems(
      const ItemRef& ref, const Binding& binding) {
    if (options_.use_reference_impl) {
      ++ctx_.stats.match_cache_misses;
      std::vector<std::pair<uint32_t, Binding>> out;
      for (uint32_t id : timeline().ItemIdsWithBase(ref.base)) {
        Binding b = binding;
        if (ref.Unify(timeline().items().item(id), &b)) {
          out.emplace_back(id, std::move(b));
        }
      }
      return out;
    }
    const std::vector<CachedMatch>& cached = CachedMatches(ref, binding);
    std::vector<std::pair<uint32_t, Binding>> out;
    out.reserve(cached.size());
    for (const CachedMatch& m : cached) {
      Binding b = binding;
      for (const auto& [var, v] : m.delta) b.emplace(var, v);
      out.emplace_back(m.item, std::move(b));
    }
    return out;
  }

  // The memoized matches of `ref` for the binding's shape (indexed path).
  const std::vector<CachedMatch>& CachedMatches(const ItemRef& ref,
                                                const Binding& binding) {
    MatchKey key;
    key.ref = &ref;
    for (const auto& t : ref.args) {
      if (!t.is_variable()) continue;
      auto bound = binding.find(t.var_name());
      key.shape.push_back(bound == binding.end()
                              ? std::optional<Value>()
                              : std::optional<Value>(bound->second));
    }
    auto cached = ctx_.match_cache.find(key);
    if (cached != ctx_.match_cache.end()) {
      ++ctx_.stats.match_cache_hits;
      return cached->second;
    }
    ++ctx_.stats.match_cache_misses;
    std::vector<CachedMatch> entry;
    for (uint32_t id : timeline().ItemIdsWithBase(ref.base)) {
      Binding b = binding;
      if (!ref.Unify(timeline().items().item(id), &b)) continue;
      CachedMatch m;
      m.item = id;
      for (const auto& [var, v] : b) {
        if (binding.count(var) == 0) m.delta.emplace_back(var, v);
      }
      entry.push_back(std::move(m));
    }
    return ctx_.match_cache.emplace(std::move(key), std::move(entry))
        .first->second;
  }

  // Sample instants covering every truth segment of predicates over
  // `items` (interned ids): each segment's start plus two interior
  // representatives, the origin, and the horizon. Universal (LHS)
  // quantification ranges over [0, horizon]; existential (RHS) search may
  // also look at the pre-origin instant where initial values hold.
  SampleSet ComputeSamplePoints(const std::vector<uint32_t>& items,
                                bool existential) const {
    SampleSet out;
    std::set<TimePoint> points;
    points.insert(TimePoint::Origin());
    points.insert(horizon_);
    std::vector<TimePoint>& changes = out.changes;
    for (uint32_t id : items) {
      for (const auto& seg : timeline().SegmentsOf(id)) {
        changes.push_back(seg.from);
      }
    }
    std::sort(changes.begin(), changes.end());
    for (size_t i = 0; i < changes.size(); ++i) {
      TimePoint start = changes[i];
      TimePoint end =
          (i + 1 < changes.size()) ? changes[i + 1] : horizon_;
      points.insert(start);
      if (start < end) {
        Duration span = end - start;
        points.insert(start + span / 3);
        points.insert(start + (span * 2) / 3);
      }
    }
    // The extra points make both quantifiers robust to constraints that
    // relate this atom's time to other atoms' change points (e.g. a window
    // (t1, t1 + kappa] that opens just after a change).
    points.insert(universal_extra_points_.begin(),
                  universal_extra_points_.end());
    if (!existential) {
      // Drop pre-origin instants: universal quantification is over the
      // observed window only.
      while (!points.empty() && *points.begin() < TimePoint::Origin()) {
        points.erase(points.begin());
      }
    }
    out.points.assign(points.begin(), points.end());
    return out;
  }

  // The sample set for `items`. Reference mode recomputes it into `local`
  // (owned by the caller's frame, so a recursive search cannot clobber a
  // set still being iterated); the indexed path returns the memoized set.
  const SampleSet& SamplePoints(const std::vector<uint32_t>& items,
                                bool existential, SampleSet* local) {
    if (options_.use_reference_impl) {
      ++ctx_.stats.sample_cache_misses;
      *local = ComputeSamplePoints(items, existential);
      return *local;
    }
    // Memoized: the same item sets recur for every candidate assignment.
    // The key is the interned id list (plus the quantifier flag) — no
    // string building, and no allocation at all on a hit.
    ctx_.sample_key_scratch.clear();
    ctx_.sample_key_scratch.push_back(existential ? 1u : 0u);
    ctx_.sample_key_scratch.insert(ctx_.sample_key_scratch.end(), items.begin(),
                                  items.end());
    auto it = ctx_.sample_cache.find(ctx_.sample_key_scratch);
    if (it != ctx_.sample_cache.end()) {
      ++ctx_.stats.sample_cache_hits;
      return it->second;
    }
    ++ctx_.stats.sample_cache_misses;
    return ctx_.sample_cache
        .emplace(ctx_.sample_key_scratch,
                 ComputeSamplePoints(items, existential))
        .first->second;
  }

  // Items an atom reads, grounded as far as the binding allows; instances
  // are enumerated from the trace. When the atom mentions no items at all
  // (e.g. "(true)@t"), every guarantee item is relevant.
  std::vector<uint32_t> AtomItems(const GuaranteeAtom& atom,
                                  const Binding& binding) {
    const std::vector<ItemRef>* refs = nullptr;
    std::vector<ItemRef> collected;
    if (options_.use_reference_impl) {
      if (atom.exists_item.has_value()) {
        collected.push_back(*atom.exists_item);
      } else if (atom.pred != nullptr) {
        atom.pred->Collect(&collected, nullptr);
      }
      refs = &collected;
    } else {
      refs = &atom_refs_.at(&atom);
    }
    if (refs->empty()) refs = &all_refs_;
    std::vector<uint32_t> out;
    for (const auto& ref : *refs) {
      if (options_.use_reference_impl) {
        for (const auto& [item, b] : MatchingItems(ref, binding)) {
          out.push_back(item);
          (void)b;
        }
        continue;
      }
      for (const CachedMatch& m : CachedMatches(ref, binding)) {
        out.push_back(m.item);
      }
    }
    if (out.empty()) {
      // Still nothing (no guarantee items at all): fall back to the trace.
      out = timeline().items().SortedIds();
    }
    return out;
  }

  // ------------------------------------------------------------------
  // Time expressions and constraints
  // ------------------------------------------------------------------

  // Resolves a time expression: bound time variable, Int-valued value
  // variable (milliseconds — how CM auxiliary data like Tb stores times),
  // or absolute offset.
  std::optional<TimePoint> GroundTime(const TimeExpr& te,
                                      const Assignment& a) const {
    if (te.is_absolute()) return TimePoint::Origin() + te.offset;
    auto it = a.times.find(te.var);
    if (it != a.times.end()) return it->second + te.offset;
    auto vit = a.values.find(te.var);
    if (vit != a.values.end() && vit->second.is_int()) {
      return TimePoint::FromMillis(vit->second.AsInt()) + te.offset;
    }
    return std::nullopt;
  }

  // True when all *resolvable* constraints pass; with partial_ok, the
  // unresolvable ones are ignored (used while the RHS is half-built).
  bool SatisfiesConstraints(const std::vector<TimeConstraint>& constraints,
                            const Assignment& a, bool partial_ok) const {
    for (const auto& c : constraints) {
      auto lhs = GroundTime(c.lhs, a);
      auto rhs = GroundTime(c.rhs, a);
      if (!lhs.has_value() || !rhs.has_value()) {
        if (partial_ok) continue;
        return false;
      }
      if (c.strict ? !(*lhs < *rhs) : !(*lhs <= *rhs)) return false;
    }
    return true;
  }

  // ------------------------------------------------------------------
  // Constraint-bounded existential search
  // ------------------------------------------------------------------

  // The sample instants an RHS atom may bind its unbound time variable
  // `te.var` to (var = instant - te.offset), as an inclusive range. Every
  // RHS time constraint with the variable on exactly one side and the other
  // side already grounded by `a` becomes resolvable the moment the variable
  // is bound, and SatisfyRhs rejects any extension that fails it — so an
  // instant outside the range can never extend to an RHS witness.
  struct SearchBounds {
    TimePoint lo = TimePoint::FromMillis(std::numeric_limits<int64_t>::min());
    TimePoint hi = TimePoint::FromMillis(std::numeric_limits<int64_t>::max());
    bool has_hi = false;
    // The variable is read past this atom (by another RHS atom, or by a
    // constraint not yet resolvable): different instants of one state
    // interval can then lead to different verdicts.
    bool escapes = false;
  };

  SearchBounds BoundsFor(const GuaranteeAtom& atom, const TimeExpr& te,
                         const Assignment& a) const {
    SearchBounds b;
    const std::string& var = te.var;
    for (const GuaranteeAtom& other : guarantee_.rhs_atoms) {
      if (&other == &atom) continue;
      if (other.at.var == var || other.lo.var == var || other.hi.var == var) {
        b.escapes = true;
      }
    }
    for (const TimeConstraint& c : guarantee_.rhs_time) {
      bool in_lhs = c.lhs.var == var;
      bool in_rhs = c.rhs.var == var;
      if (!in_lhs && !in_rhs) continue;
      std::optional<TimePoint> other =
          in_lhs && in_rhs ? std::nullopt
                           : GroundTime(in_lhs ? c.rhs : c.lhs, a);
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
  // typically resolves on the first probe. Returns true when the sink
  // stopped the search.
  bool SearchAt(const GuaranteeAtom& atom, const Assignment& base,
                const SampleSet& samples, const Sink& sink) {
    SearchBounds b = BoundsFor(atom, atom.at, base);
    const std::vector<TimePoint>& pts = samples.points;
    const std::vector<TimePoint>& changes = samples.changes;
    auto first = std::lower_bound(pts.begin(), pts.end(), b.lo);
    auto last = std::upper_bound(first, pts.end(), b.hi);
    auto probe = [&](TimePoint t) {
      Assignment next = base;
      if (!PredTrueAt(atom, t, &next.values)) return false;
      next.times[atom.at.var] = t - atom.at.offset;
      return sink(std::move(next));
    };
    if (b.escapes) {
      for (auto it = first; it != last; ++it) {
        if (probe(*it)) return true;
      }
      return false;
    }
    if (b.has_hi) {
      // Downward from hi: after probing t, skip to the instants before the
      // change that opened t's interval.
      for (auto end = last; end != first;) {
        TimePoint t = *std::prev(end);
        if (probe(t)) return true;
        auto opened = std::upper_bound(changes.begin(), changes.end(), t);
        if (opened == changes.begin()) break;  // t precedes every change
        end = std::lower_bound(first, end, *std::prev(opened));
      }
      return false;
    }
    // Upward from lo: after probing t, skip to the next change.
    for (auto it = first; it != last;) {
      TimePoint t = *it;
      if (probe(t)) return true;
      auto closes = std::upper_bound(changes.begin(), changes.end(), t);
      if (closes == changes.end()) break;  // t's interval runs to the end
      it = std::lower_bound(it, last, *closes);
    }
    return false;
  }

  // ------------------------------------------------------------------
  // Atom evaluation
  // ------------------------------------------------------------------

  // Binds unbound variables appearing as `item = var` / `var = item`
  // equalities (and conjunctions thereof) from the state at time t.
  void SolveEqualities(const rule::Expr& pred, TimePoint t,
                       Binding* binding) const {
    if (pred.op() == ExprOp::kAnd) {
      SolveEqualities(*pred.lhs(), t, binding);
      SolveEqualities(*pred.rhs(), t, binding);
      return;
    }
    if (pred.op() != ExprOp::kEq) return;
    const rule::Expr* item_side = nullptr;
    const rule::Expr* var_side = nullptr;
    if (pred.lhs()->op() == ExprOp::kItem &&
        pred.rhs()->op() == ExprOp::kVariable) {
      item_side = pred.lhs().get();
      var_side = pred.rhs().get();
    } else if (pred.rhs()->op() == ExprOp::kItem &&
               pred.lhs()->op() == ExprOp::kVariable) {
      item_side = pred.rhs().get();
      var_side = pred.lhs().get();
    } else {
      return;
    }
    const std::string& var = var_side->variable_name();
    if (binding->count(var) > 0) return;
    auto grounded = item_side->item_ref().Ground(*binding);
    if (!grounded.ok()) return;
    auto value = timeline().ValueAt(*grounded, t);
    if (!value.has_value()) return;
    binding->emplace(var, *value);
  }

  // Truth of the atom's predicate at one instant, with equality-solving.
  // Eval errors (nonexistent item, unbound variable) count as false.
  bool PredTrueAt(const GuaranteeAtom& atom, TimePoint t, Binding* binding) {
    ++ctx_.stats.atom_evals;
    if (atom.exists_item.has_value()) {
      auto grounded = atom.exists_item->Ground(*binding);
      if (!grounded.ok()) return false;
      bool exists = timeline().ExistsAt(*grounded, t);
      return atom.negated_exists ? !exists : exists;
    }
    SolveEqualities(*atom.pred, t, binding);
    auto ok = atom.pred->EvalBool(*binding, ReaderAt(t));
    return ok.ok() && *ok;
  }

  // Extends an assignment with one atom, feeding every satisfying extension
  // to `sink`. For kAt atoms with an unbound time variable, enumerates
  // sample instants; otherwise verifies at the determined instant/interval.
  // `existential` selects RHS semantics (pre-origin instants allowed).
  // Returns true when the sink stopped the enumeration.
  bool ExtendWithAtom(const GuaranteeAtom& atom, const Assignment& a,
                      bool existential, const Sink& sink) {
    // Enumerate item-parameter bindings first (e.g. the i in project(i)).
    // When every parameter is already bound, a's binding is the only one.
    if (!options_.use_reference_impl && ParamsBound(atom, a.values)) {
      return ExtendBound(atom, a, existential, sink);
    }
    for (const Binding& pb : ParamBindings(atom, a.values)) {
      Assignment base = a;
      base.values = pb;
      if (ExtendBound(atom, base, existential, sink)) return true;
    }
    return false;
  }

  // ExtendWithAtom for one item-parameter binding (parameters with no
  // matching instance stay unbound; the predicate then reads as false).
  bool ExtendBound(const GuaranteeAtom& atom, const Assignment& base,
                   bool existential, const Sink& sink) {
    switch (atom.mode) {
      case AtomMode::kAt: {
        auto fixed = GroundTime(atom.at, base);
        if (fixed.has_value()) {
          Assignment next = base;
          if (PredTrueAt(atom, *fixed, &next.values) &&
              sink(std::move(next))) {
            return true;
          }
          break;
        }
        // Unbound time variable: enumerate sample points, assigning
        // var = sample - offset.
        SampleSet local;
        const SampleSet& samples = SamplePoints(
            AtomItems(atom, base.values), existential, &local);
        if (existential && !options_.use_reference_impl) {
          if (SearchAt(atom, base, samples, sink)) return true;
          break;
        }
        for (TimePoint t : samples.points) {
          Assignment next = base;
          if (!PredTrueAt(atom, t, &next.values)) continue;
          next.times[atom.at.var] = t - atom.at.offset;
          if (sink(std::move(next))) return true;
        }
        break;
      }
      case AtomMode::kThroughout:
      case AtomMode::kSometimeIn: {
        auto lo = GroundTime(atom.lo, base);
        auto hi = GroundTime(atom.hi, base);
        // An unbound time variable in the lower bound (e.g. the t of
        // E(project(i))@@[t, t+24h]) is enumerated over sample points —
        // on the RHS only those the time constraints leave open.
        if (!lo.has_value() && !atom.lo.var.empty() &&
            base.times.count(atom.lo.var) == 0) {
          SampleSet local;
          const SampleSet& samples = SamplePoints(
              AtomItems(atom, base.values), existential, &local);
          auto first = samples.points.begin();
          auto last = samples.points.end();
          if (existential && !options_.use_reference_impl) {
            SearchBounds b = BoundsFor(atom, atom.lo, base);
            first = std::lower_bound(first, last, b.lo);
            last = std::upper_bound(first, last, b.hi);
          }
          for (auto it = first; it != last; ++it) {
            TimePoint t = *it;
            Assignment enumerated = base;
            enumerated.times[atom.lo.var] = t - atom.lo.offset;
            if (ExtendWithAtom(atom, enumerated, existential, sink)) {
              return true;
            }
          }
          break;
        }
        if (!lo.has_value() || !hi.has_value()) break;  // unresolvable
        if (*hi < *lo) {
          // Empty interval: vacuous for "throughout", false for "in".
          if (atom.mode == AtomMode::kThroughout &&
              sink(Assignment(base))) {
            return true;
          }
          break;
        }
        std::vector<TimePoint> points;
        points.push_back(*lo);
        points.push_back(*hi);
        SampleSet local;
        const std::vector<TimePoint>& samples =
            SamplePoints(AtomItems(atom, base.values), existential, &local)
                .points;
        // The sorted samples strictly inside (lo, hi).
        auto inside = std::upper_bound(samples.begin(), samples.end(), *lo);
        points.insert(points.end(), inside,
                      std::lower_bound(inside, samples.end(), *hi));
        bool all = true;
        bool any = false;
        Assignment next = base;
        for (TimePoint t : points) {
          if (PredTrueAt(atom, t, &next.values)) {
            any = true;
          } else {
            all = false;
            if (atom.mode == AtomMode::kThroughout) break;
          }
        }
        if ((atom.mode == AtomMode::kThroughout && all) ||
            (atom.mode == AtomMode::kSometimeIn && any)) {
          if (sink(std::move(next))) return true;
        }
        break;
      }
    }
    return false;
  }

  bool ParamsBound(const GuaranteeAtom& atom, const Binding& binding) const {
    for (const ItemRef& ref : atom_refs_.at(&atom)) {
      if (!AllVariablesBound(ref, binding)) return false;
    }
    return true;
  }

  static bool AllVariablesBound(const ItemRef& ref, const Binding& binding) {
    for (const auto& t : ref.args) {
      if (t.is_variable() && binding.count(t.var_name()) == 0) return false;
    }
    return true;
  }

  // Bindings for the parameters inside the atom's item references,
  // enumerated from the trace's item instances. Returns at least the input
  // binding when the atom's refs are ground or have no instances.
  std::vector<Binding> ParamBindings(const GuaranteeAtom& atom,
                                     const Binding& binding) {
    const std::vector<ItemRef>* refs = nullptr;
    std::vector<ItemRef> collected;
    if (options_.use_reference_impl) {
      if (atom.exists_item.has_value()) {
        collected.push_back(*atom.exists_item);
      } else if (atom.pred != nullptr) {
        atom.pred->Collect(&collected, nullptr);
      }
      refs = &collected;
    } else {
      refs = &atom_refs_.at(&atom);
    }
    std::vector<Binding> current = {binding};
    for (const auto& ref : *refs) {
      bool has_open_args = false;
      for (const auto& t : ref.args) {
        if (t.is_variable()) has_open_args = true;
      }
      if (!has_open_args) continue;
      std::vector<Binding> next;
      for (const auto& b : current) {
        if (AllVariablesBound(ref, b)) {
          // Unification could only confirm b: no instance adds a binding.
          next.push_back(b);
          continue;
        }
        auto matches = MatchingItems(ref, b);
        if (matches.empty()) {
          // No instance: keep the binding; the predicate will read as
          // false later.
          next.push_back(b);
        } else {
          for (auto& [item, nb] : matches) {
            next.push_back(std::move(nb));
            (void)item;
          }
        }
      }
      // Dedupe (two refs over the same parameter produce duplicates).
      std::sort(next.begin(), next.end());
      next.erase(std::unique(next.begin(), next.end()), next.end());
      current = std::move(next);
    }
    return current;
  }

  // Depth-first existential search over the RHS atoms.
  bool SatisfyRhs(size_t index, const Assignment& a) {
    if (!SatisfiesConstraints(guarantee_.rhs_time, a, /*partial_ok=*/true)) {
      return false;
    }
    if (index == guarantee_.rhs_atoms.size()) {
      return SatisfiesConstraints(guarantee_.rhs_time, a,
                                  /*partial_ok=*/false);
    }
    // Lazy depth-first search: stop at the first satisfying extension.
    return ExtendWithAtom(guarantee_.rhs_atoms[index], a,
                          /*existential=*/true,
                          [this, index](Assignment&& next) {
                            return SatisfyRhs(index + 1, next);
                          });
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

  // The run's memo caches and work counters, shared by the universal
  // enumeration and every witness's existential search.
  struct EvalContext {
    std::unordered_map<std::vector<uint32_t>, SampleSet, SampleKeyHash>
        sample_cache;
    std::vector<uint32_t> sample_key_scratch;
    std::unordered_map<MatchKey, std::vector<CachedMatch>, MatchKeyHash>
        match_cache;
    GuaranteeCheckStats stats;
  };

  const StateTimeline& timeline() const { return *timeline_; }

  const spec::Guarantee& guarantee_;
  const GuaranteeCheckOptions& options_;
  TimePoint horizon_;
  StateTimeline owned_;            // set only by the trace constructor
  const StateTimeline* timeline_;  // &owned_ or the caller's timeline
  std::vector<ItemRef> all_refs_;
  // Item references per atom, collected once (stable storage: node-based
  // map, vectors never resized after construction).
  std::unordered_map<const GuaranteeAtom*, std::vector<ItemRef>> atom_refs_;
  std::vector<TimePoint> universal_extra_points_;
  EvalContext ctx_;
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
