#ifndef HCM_TRACE_CHECK_WINDOW_H_
#define HCM_TRACE_CHECK_WINDOW_H_

// Shared violation-windowing core for the valid-execution checkers.
//
// Both the offline checker (valid_execution.cc) and the streaming checker
// (streaming_checker.cc) report violations through the same bounded sink /
// ordered-merge machinery, so their final reports agree byte-for-byte: a
// violation is tagged with the ordinal of the event (or channel) that
// produced it plus a per-ordinal emission sequence, each phase writes one
// sink that keeps only the `cap` earliest by that order (a max-heap evicts
// the latest), and the phase merge sorts the kept set back into trace
// order while applying the global cap across phases.

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/trace/valid_execution.h"

namespace hcm::trace::internal {

// A violation tagged with its merge-order key. `ord` is the source event's
// trace index (or a channel counter for property 7); `seq` orders multiple
// violations emitted for the same ordinal.
struct Tagged {
  uint64_t ord = 0;
  uint64_t seq = 0;
  ExecutionViolation v;
};

// "a comes before b" in merged-report order.
struct TaggedEarlier {
  bool operator()(const Tagged& a, const Tagged& b) const {
    if (a.ord != b.ord) return a.ord < b.ord;
    return a.seq < b.seq;
  }
};

// One phase's result collector. Violations are bounded: the sink keeps the
// `cap` earliest (by merge order) it has seen and counts everything found,
// so a pathological trace cannot materialize unbounded violation text while
// the global first `cap` (always a subset of the kept set) stays exact. A
// phase may emit out of trace order (the offline driver walks property 2
// item by item; the streaming driver resolves obligations late): the
// ordinal tag restores the order.
class Sink {
 public:
  explicit Sink(size_t cap) : cap_(cap) {}

  void Add(uint64_t ord, int property, std::vector<int64_t> ids,
           std::string message) {
    AddSeq(ord, next_seq_++, property, std::move(ids), std::move(message));
  }

  // Explicit-sequence variant for property 6, whose streaming resolver
  // discovers violations out of their canonical order: `seq` must reproduce
  // the relative order a sequential scan would emit within `ord`.
  void AddSeq(uint64_t ord, uint64_t seq, int property,
              std::vector<int64_t> ids, std::string message) {
    ++found_;
    if (cap_ == 0) return;
    Tagged t{ord, seq,
             ExecutionViolation{property, std::move(ids), std::move(message)}};
    if (kept_.size() < cap_) {
      kept_.push_back(std::move(t));
      std::push_heap(kept_.begin(), kept_.end(), TaggedEarlier());
      return;
    }
    if (TaggedEarlier()(t, kept_.front())) {
      std::pop_heap(kept_.begin(), kept_.end(), TaggedEarlier());
      kept_.back() = std::move(t);
      std::push_heap(kept_.begin(), kept_.end(), TaggedEarlier());
    }
  }

  // Records violations that were found but never materialized (a bounded
  // upstream buffer already dropped their text). They still count toward
  // found() so extra_violations and `valid` come out right.
  void AddCountOnly(size_t n) { found_ += n; }

  size_t found() const { return found_; }
  std::vector<Tagged>& kept() { return kept_; }

  // Phase-local counters, summed into the report at the merge.
  size_t obligations_checked = 0;
  uint64_t chain_lookups = 0;
  uint64_t chain_events_scanned = 0;
  uint64_t obligation_candidates = 0;
  uint64_t obligation_scans_avoided = 0;
  uint64_t condition_instants = 0;

 private:
  size_t cap_;
  size_t found_ = 0;
  uint64_t next_seq_ = 0;
  std::vector<Tagged> kept_;  // heap, top = latest in merge order
};

// Folds one phase's sink into the report: counters are summed, kept
// violations sorted back into emission order (ordinal, then per-ordinal
// emission sequence), and the global cap applied across phases exactly as
// a sequential checker's running AddViolation cap would. `extra_violations`
// accumulates found-but-not-materialized counts; the caller folds it into
// `report->valid`.
inline void MergePhaseInto(Sink sink, size_t max_violations,
                           ExecutionReport* report,
                           size_t* extra_violations) {
  report->obligations_checked += sink.obligations_checked;
  report->stats.chain_lookups += sink.chain_lookups;
  report->stats.chain_events_scanned += sink.chain_events_scanned;
  report->stats.obligation_candidates += sink.obligation_candidates;
  report->stats.obligation_scans_avoided += sink.obligation_scans_avoided;
  report->stats.condition_instants += sink.condition_instants;
  std::vector<Tagged>& kept = sink.kept();
  std::sort(kept.begin(), kept.end(), TaggedEarlier());
  size_t materialized = 0;
  for (Tagged& t : kept) {
    if (report->violations.size() >= max_violations) break;
    report->violations.push_back(std::move(t.v));
    ++materialized;
  }
  *extra_violations += sink.found() - materialized;
}

}  // namespace hcm::trace::internal

#endif  // HCM_TRACE_CHECK_WINDOW_H_
