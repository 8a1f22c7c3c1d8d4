#ifndef HCM_RULE_RULE_INDEX_H_
#define HCM_RULE_RULE_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/rule/event.h"

namespace hcm::rule {

// Dispatch statistics accumulated across Lookup calls (for benches and the
// System's deployment stats).
struct RuleIndexStats {
  size_t rules = 0;             // templates registered
  size_t exact_buckets = 0;     // distinct (kind, base) buckets
  size_t wildcard_rules = 0;    // templates in per-kind wildcard buckets
  uint64_t events_dispatched = 0;
  uint64_t candidates_returned = 0;
  // Rules a full linear scan would have visited but the index skipped.
  uint64_t scans_avoided = 0;
  // Bucket-occupancy shape: how evenly the (kind, base) discrimination
  // spreads the rules. A max far above the mean flags a hot bucket that
  // degrades dispatch toward a linear scan for its events.
  size_t max_bucket_size = 0;   // largest exact bucket
  double mean_bucket_size = 0;  // exact rules / exact buckets
  // Lookups whose event kind had a non-empty wildcard bucket (those rules
  // are candidates for every event of the kind, bypassing discrimination).
  uint64_t wildcard_hits = 0;

  // Mean candidate-set size per dispatched event.
  double CandidatesPerEvent() const {
    return events_dispatched == 0
               ? 0.0
               : static_cast<double>(candidates_returned) /
                     static_cast<double>(events_dispatched);
  }

  // Share of dispatched events that consulted a wildcard bucket.
  double WildcardHitRate() const {
    return events_dispatched == 0
               ? 0.0
               : static_cast<double>(wildcard_hits) /
                     static_cast<double>(events_dispatched);
  }
};

// Discrimination index over LHS event templates.
//
// A template `N(salary1(n), b)` can only match events of kind N whose item
// base is `salary1` — template/event unification requires kind equality and
// item-base equality (see EventTemplate::Matches / ItemRef::Unify). The
// index exploits this: templates are bucketed by (EventKind, interned item
// base), and an event consults exactly one exact bucket plus the kind's
// wildcard bucket instead of scanning every installed rule. Templates whose
// kind carries no item (P, and defensively any template with an empty base)
// go to the wildcard bucket of their kind and are candidates for every
// event of that kind.
//
// Bucket keys are interned symbol ids packed into a uint64, so a Lookup
// for a pre-interned event (base_sym stamped) never hashes the base
// string. Events without a stamped base_sym fall back to a symbol-table
// probe; a base that was never interned cannot be in any exact bucket.
//
// The index stores caller-supplied handles (the shell uses positions in its
// rule vector). Handles are returned in insertion order — merged across the
// exact and wildcard buckets — so indexed dispatch visits surviving
// candidates in exactly the order the old linear scan did.
class RuleIndex {
 public:
  // Registers a template under `handle`. Handles must be strictly
  // increasing across Add calls (insertion order doubles as priority).
  void Add(const EventTemplate& tpl, size_t handle);

  // Appends the handles of every template that could match `event` to
  // `out` (cleared first), in insertion order. Returns the number of
  // candidates. Allocation-free once `out` has warmed up its capacity.
  size_t Lookup(const Event& event, std::vector<size_t>* out) const;

  size_t size() const { return total_rules_; }
  bool empty() const { return total_rules_ == 0; }

  // True when at least one registered template has this kind. A false
  // return lets callers skip Lookup (and its bucket-key hash) entirely for
  // event kinds no rule listens to — the common case for write-heavy
  // traces checked against notify-triggered rule programs.
  bool MayMatchKind(EventKind kind) const {
    return kind_rules_[static_cast<size_t>(kind)] > 0;
  }

  // Snapshot of structure + traffic counters.
  RuleIndexStats stats() const;
  void ResetTrafficStats();

 private:
  static constexpr size_t kNumKinds =
      static_cast<size_t>(EventKind::kFalse) + 1;

  static uint64_t BucketKey(EventKind kind, uint32_t base_sym) {
    return (static_cast<uint64_t>(base_sym) << 8) |
           static_cast<uint64_t>(kind);
  }

  const std::vector<size_t>* ExactBucket(const Event& event) const;

  std::unordered_map<uint64_t, std::vector<size_t>> exact_;
  // Per-kind buckets for templates that cannot be discriminated by base.
  std::vector<size_t> wildcard_[kNumKinds];
  size_t total_rules_ = 0;
  size_t wildcard_rules_ = 0;
  size_t kind_rules_[kNumKinds] = {};  // templates registered per kind
  // Traffic counters; mutable so Lookup stays const for callers holding a
  // const shell/index. Not synchronized: an index is used by one thread at
  // a time (a shell's lane, or a trace checker's private copy).
  mutable uint64_t events_dispatched_ = 0;
  mutable uint64_t candidates_returned_ = 0;
  mutable uint64_t scans_avoided_ = 0;
  mutable uint64_t wildcard_hits_ = 0;
};

}  // namespace hcm::rule

#endif  // HCM_RULE_RULE_INDEX_H_
