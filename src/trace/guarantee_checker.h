#ifndef HCM_TRACE_GUARANTEE_CHECKER_H_
#define HCM_TRACE_GUARANTEE_CHECKER_H_

#include <map>
#include <string>
#include <vector>

#include "src/spec/guarantee.h"
#include "src/trace/trace.h"

namespace hcm::trace {

struct GuaranteeCheckOptions {
  // LHS witnesses whose latest time falls within this margin of the horizon
  // are skipped: their RHS obligations (e.g. "eventually Y = x") may not
  // have come due when the run ended. Callers set this to at least the
  // expected propagation delay for "leads"-style guarantees.
  Duration settle_margin = Duration::Zero();
  // Stop enumerating after this many LHS witnesses (safety valve; the
  // result is marked truncated).
  size_t max_lhs_witnesses = 2000000;
  // Cap on materialized counterexamples.
  size_t max_counterexamples = 5;
  // Test-only: recompute sample points and item matches on every call
  // instead of memoizing, and let the existential search try every sample
  // instant instead of only those the RHS time constraints leave open (the
  // pre-index reference semantics). The equivalence suites assert both
  // paths produce identical results.
  bool use_reference_impl = false;
};

// Work counters for one CheckGuarantee run (dispatch-stats-style). Not part
// of GuaranteeCheckResult::ToString so indexed and reference runs stay
// byte-comparable; render with DescribeCheckStats.
struct GuaranteeCheckStats {
  size_t items = 0;                  // items the trace timeline knows
  uint64_t sample_cache_hits = 0;    // memoized sample-point reuses
  uint64_t sample_cache_misses = 0;  // sample-point sets computed
  uint64_t match_cache_hits = 0;     // memoized MatchingItems reuses
  uint64_t match_cache_misses = 0;   // MatchingItems walks performed
  uint64_t atom_evals = 0;           // predicate-at-instant evaluations
};

// A universally-quantified assignment for which no existential RHS witness
// exists.
struct Counterexample {
  std::map<std::string, Value> values;          // value-variable bindings
  std::map<std::string, TimePoint> times;       // time-variable bindings
  std::string ToString() const;
};

struct GuaranteeCheckResult {
  bool holds = true;
  bool truncated = false;
  size_t lhs_witnesses = 0;     // universal instances checked
  size_t violations = 0;        // instances with no RHS witness
  std::vector<Counterexample> counterexamples;
  GuaranteeCheckStats stats;

  std::string ToString() const;
  // Human-readable rendering of `stats` (one line per counter).
  std::string DescribeCheckStats() const;
};

// Evaluates a guarantee over a finite recorded execution.
//
// Semantics: data-item predicates are piecewise-constant in time, so the
// checker samples each atom at the state-change points of the items it
// mentions (plus in-segment representatives, the origin, and the horizon).
// Variables on the left of `=>` are enumerated universally; the right side
// is searched existentially per witness. Value variables are bound by
// solving `item = var` equalities against the timeline; parameterized item
// references (e.g. salary1(n)) enumerate the matching item instances seen
// in the trace. The existential search binds an RHS time variable only to
// sample instants the RHS time constraints allow, given the witness.
// `@@[a,b]` checks every change point in the interval;
// `@in[a,b]` any; an empty interval (a > b) is vacuously true for `@@` and
// false for `@in`.
//
// The check runs on the calling thread with one set of memo caches. The
// guarantee is compiled once (variables to binding slots, item reads to
// interned timeline ids); LHS witnesses are enumerated depth-first, in the
// lexicographic order of their per-atom extensions, and each is searched
// existentially as it is found, so counterexamples come out in witness
// order. `max_lhs_witnesses` caps each LHS level's extensions.
//
// Returns an error only for structurally unusable guarantees (e.g. a time
// expression that can never be resolved); an unsatisfied guarantee is a
// normal result with holds = false.
Result<GuaranteeCheckResult> CheckGuarantee(
    const Trace& trace, const spec::Guarantee& guarantee,
    const GuaranteeCheckOptions& options = {});

// Streaming support: restricts a run to universal witnesses whose
// `anchor_var` time falls in [lo, hi). The streaming checker partitions a
// guarantee's anchor axis into disjoint windows, evaluates each over a
// bounded state slice, and merges — the filter is an exact partition of
// the witness set, so summed window results equal one unrestricted run.
struct GuaranteeWindow {
  std::string anchor_var;               // empty = no restriction
  std::vector<std::string> param_vars;  // LHS ref-arg vars, for reporting
  bool has_lo = false;
  TimePoint lo;
  bool has_hi = false;
  TimePoint hi;
};

// One violated universal witness, reported with its merge key: the values
// bound to the LHS item parameters (exactly `param_vars`, in that order —
// not the RHS-extended binding, which may add state-derived variables) and
// the anchor time. Sorting accumulated windows by (param_binding, anchor)
// reconstructs the unrestricted run's item-major counterexample order.
struct WindowedViolation {
  std::vector<std::pair<std::string, Value>> param_binding;
  TimePoint anchor;
  Counterexample ce;
};

// Evaluates a guarantee over an externally assembled timeline instead of a
// trace — `horizon` plus the timeline are the only trace state the checker
// reads. `window`/`violated` support the streaming checker's windowed
// evaluation; pass nullptr for a plain full-range run (byte-identical to
// CheckGuarantee over the trace that produced the timeline).
Result<GuaranteeCheckResult> CheckGuaranteeOverTimeline(
    const StateTimeline& timeline, TimePoint horizon,
    const spec::Guarantee& guarantee, const GuaranteeCheckOptions& options,
    const GuaranteeWindow* window = nullptr,
    std::vector<WindowedViolation>* violated = nullptr);

// Convenience: checks several guarantees, returning name -> result.
Result<std::map<std::string, GuaranteeCheckResult>> CheckGuarantees(
    const Trace& trace, const std::vector<spec::Guarantee>& guarantees,
    const GuaranteeCheckOptions& options = {});

}  // namespace hcm::trace

#endif  // HCM_TRACE_GUARANTEE_CHECKER_H_
