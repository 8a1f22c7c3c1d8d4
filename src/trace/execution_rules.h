#ifndef HCM_TRACE_EXECUTION_RULES_H_
#define HCM_TRACE_EXECUTION_RULES_H_

// The Appendix A.2 valid-execution rules, defined once for both checkers.
//
// CheckValidExecution (valid_execution.cc) walks a whole recorded trace in
// indexed passes; StreamingChecker (streaming_checker.cc)
// walks the live feed behind a watermark. Each driver keeps only how it
// walks: where an event's trigger comes from, how a fired RHS step is looked
// up, and how item state is read. Every property's decision and violation
// message lives here, as do the segment rules that StateTimeline::Build and
// the streaming stores share.
//
// The property checks are templates over the driver, so they add no virtual
// call per event. They match and evaluate on the compiled rules RuleTables
// owns (slot-indexed BindingFrames, no name-keyed Binding), and take their
// buffers from the driver's RuleScratch, so once warm they allocate nothing
// unless they report a violation. A driver passed as `state` provides
//
//   rule::DataReader ReaderAt(TimePoint t) const;      // state just after t
//   rule::DataReader ReaderBefore(TimePoint t) const;  // state just before t
//   template <typename F>
//   void WithSegments(const rule::ItemId& item, F&& f) const;
//                          // f(run) over the item's time-ordered segments
//
// An `emit` callable takes (int property, std::vector<int64_t> ids,
// std::string message), called in emission order. Property 6 emitters take
// (uint64_t seq, std::vector<int64_t> ids, std::string message) instead,
// with `seq` from ObligationSeq: the streaming checker resolves obligations
// out of trace order, and the explicit sequence reproduces the in-event
// order of a sequential scan.

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/string_util.h"
#include "src/common/symbols.h"
#include "src/rule/binding.h"
#include "src/rule/event.h"
#include "src/rule/rule.h"
#include "src/rule/rule_index.h"
#include "src/trace/check_window.h"
#include "src/trace/trace.h"
#include "src/trace/valid_execution.h"

namespace hcm::trace::internal {

// ------------------------------------------------------------ segment rules

// Initial values hold for a full second before the origin, so that "X
// previously had this value" obligations — including ones needing two
// ordered instants — are satisfiable for state that was already in place
// when observation began.
inline constexpr TimePoint kInitialSegmentStart = TimePoint::FromMillis(-1000);

// True for event kinds that change item state (and thus open a segment):
// Ws/W set a value, INS establishes existence, DEL ends it. N/R/WR/RR/P
// events change no state (Appendix A.2 property 2).
inline bool ChangesState(rule::EventKind kind) {
  switch (kind) {
    case rule::EventKind::kWriteSpont:
    case rule::EventKind::kWrite:
    case rule::EventKind::kInsert:
    case rule::EventKind::kDelete:
      return true;
    default:
      return false;
  }
}

// The value of the segment a state-changing event opens, given the item's
// previous segment (nullptr when it has none): a write's new value; for an
// insert, the existing value (re-insert is a no-op) or else Null; nullopt
// (no longer exists) for a delete.
std::optional<Value> OpenedValue(const rule::Event& e, const Segment* prev);

// Last segment of a time-ordered run with from <= t, or nullptr when t
// precedes all knowledge of the item.
template <typename Run>
const Segment* SegmentAt(const Run& run, TimePoint t) {
  auto it = std::upper_bound(
      run.begin(), run.end(), t,
      [](TimePoint lhs, const Segment& s) { return lhs < s.from; });
  return it == run.begin() ? nullptr : &*std::prev(it);
}

// Last segment of a time-ordered run with from < t (strict), or nullptr.
template <typename Run>
const Segment* SegmentBefore(const Run& run, TimePoint t) {
  auto it = std::lower_bound(
      run.begin(), run.end(), t,
      [](const Segment& s, TimePoint rhs) { return s.from < rhs; });
  return it == run.begin() ? nullptr : &*std::prev(it);
}

// ------------------------------------------------------------- rule tables

// The lookup tables both checkers build over the rule program: compiled
// copies of the rules (Rule::Compile: slot-indexed variables and interned
// item bases), rules by id (last wins), the (kind, item base) dispatch index
// keyed by rule position, and per RHS step the template with its site
// cleared plus the condition's item references compiled against the rule's
// slots, so provenance matching and condition probing copy nothing per
// event.
class RuleTables {
 public:
  explicit RuleTables(const std::vector<rule::Rule>& rules);
  RuleTables(const RuleTables&) = delete;
  RuleTables& operator=(const RuleTables&) = delete;

  const std::vector<rule::Rule>& rules() const { return rules_; }
  const rule::RuleIndex& index() const { return index_; }
  const rule::Rule* RuleById(int64_t id) const {
    auto it = by_id_.find(id);
    return it == by_id_.end() ? nullptr : it->second;
  }
  // `r` must be an element of rules().
  const rule::EventTemplate& ClearedRhs(const rule::Rule& r,
                                        size_t step) const {
    return steps_[Pos(r)][step].cleared;
  }
  const std::vector<rule::ItemRef>& ConditionItems(const rule::Rule& r,
                                                   size_t step) const {
    return steps_[Pos(r)][step].condition_items;
  }
  // Slots of the largest rule: a frame this size serves every rule.
  size_t max_slots() const { return max_slots_; }
  Duration max_delta() const { return max_delta_; }

 private:
  struct Step {
    rule::EventTemplate cleared;
    std::vector<rule::ItemRef> condition_items;
  };
  size_t Pos(const rule::Rule& r) const {
    return static_cast<size_t>(&r - rules_.data());
  }

  std::vector<rule::Rule> rules_;
  std::unordered_map<int64_t, const rule::Rule*> by_id_;
  rule::RuleIndex index_;
  std::vector<std::vector<Step>> steps_;
  size_t max_slots_ = 0;
  Duration max_delta_ = Duration::Zero();
};

// A driver's reusable buffers for the rules below: the binding frame, the
// candidate list of an obligation scan, and a condition probe's instants
// and grounded item. One per driver; never shared between threads.
struct RuleScratch {
  explicit RuleScratch(const RuleTables& tables) : frame(tables.max_slots()) {}

  rule::BindingFrame frame;
  std::vector<size_t> candidates;
  std::vector<TimePoint> instants;
  rule::ItemId item;
};

// The event's interned site / item base, stamped by the runtime; unstamped
// events (hand-built or deserialized) are interned on the spot. The base is
// kNoSymbol for events without an item.
inline uint32_t SiteSymOf(const rule::Event& e) {
  return e.site_sym != kNoSymbol ? e.site_sym : Symbols().Intern(e.site);
}
inline uint32_t BaseSymOf(const rule::Event& e) {
  if (e.base_sym != kNoSymbol) return e.base_sym;
  return e.item.base.empty() ? kNoSymbol : Symbols().Intern(e.item.base);
}

// ---------------------------------------------------------------- property 1

// Events are sorted by nondecreasing time: checked per adjacent pair.
template <typename Emit>
void CheckTimeOrder(TimePoint prev_time, int64_t prev_id, const rule::Event& e,
                    Emit&& emit) {
  if (e.time < prev_time) emit(1, {prev_id, e.id}, "events out of time order");
}

// ------------------------------------------------------------ properties 2+3

// A Ws event's recorded old value must equal the item's state just before
// it (`before`). Several writes can share a timestamp, and the state just
// before then shows only the pre-batch value, so an earlier same-instant
// write that produced the old value also passes: `chain_matches()` answers
// that, and is asked only when the prior state disagrees. A Null old value
// stands for "unknown" and always passes. (Property 3, chained
// interpretations, holds by construction of the segment representation;
// this is its residual check.)
template <typename ChainMatches, typename Emit>
void CheckWsOldValue(const rule::Event& e, const std::optional<Value>& before,
                     ChainMatches&& chain_matches, Emit&& emit) {
  Value expected = before.has_value() ? *before : Value::Null();
  if (e.old_value() == expected || e.old_value().is_null()) return;
  if (chain_matches()) return;
  emit(2, {e.id},
       StrFormat("Ws old value %s != prior state %s",
                 e.old_value().ToString().c_str(),
                 expected.ToString().c_str()));
}

// ------------------------------------------------------------ properties 4+5

// `tpl` must already have its site cleared. A read request over a
// parameterized item with unbound arguments is implemented as one
// whole-base request (the translator fans out to every instance), recorded
// with an argument-free item; accept it as matching the parameterized RR
// template. Otherwise a compiled match that extends `frame` on success and
// leaves it unchanged on failure.
bool TemplateMatchesIgnoringSite(const rule::EventTemplate& tpl,
                                 const rule::Event& event,
                                 rule::BindingFrame* frame);

// `trigger` is the event with id e.trigger_event_id, or nullptr when the
// driver does not know it.
template <typename State, typename Emit>
void CheckProvenance(const RuleTables& tables, const rule::Event& e,
                     const rule::Event* trigger, const State& state,
                     RuleScratch* scratch, Emit&& emit) {
  // (4) spontaneous events carry no rule or trigger.
  if (e.spontaneous()) {
    if (e.trigger_event_id >= 0) {
      emit(4, {e.id}, "spontaneous event carries a trigger reference");
    }
    return;
  }
  // (5a) a generated event names a known rule whose LHS its trigger matches.
  const rule::Rule* rule_ptr = tables.RuleById(e.rule_id);
  if (rule_ptr == nullptr) {
    emit(5, {e.id},
         StrFormat("generated event names unknown rule %lld",
                   static_cast<long long>(e.rule_id)));
    return;
  }
  const rule::Rule& r = *rule_ptr;
  if (trigger == nullptr) {
    emit(5, {e.id}, "generated event names unknown trigger");
    return;
  }
  rule::BindingFrame& frame = scratch->frame;
  frame.Clear();
  if (!r.lhs.MatchesCompiled(*trigger, &frame)) {
    emit(5, {e.id, trigger->id},
         "trigger does not match the rule's LHS template");
    return;
  }
  frame.Set(static_cast<uint16_t>(r.now_slot), Value::Int(e.time.millis()));
  // (5c) LHS condition satisfied at trigger time (new interpretation).
  if (r.lhs_condition != nullptr) {
    auto ok = r.lhs_condition->EvalBoolFrame(frame, r.slots,
                                             state.ReaderAt(trigger->time));
    if (!ok.ok() || !*ok) {
      emit(5, {e.id, trigger->id},
           "rule LHS condition not satisfied at trigger time");
    }
  }
  // (5b) the event matches an RHS template under the extended binding.
  if (e.rhs_step < 0 || e.rhs_step >= static_cast<int>(r.rhs.size())) {
    emit(5, {e.id}, "generated event has no valid RHS step");
    return;
  }
  const rule::RhsStep& step = r.rhs[static_cast<size_t>(e.rhs_step)];
  // Unify the concrete event against the step template, extending the LHS
  // binding with RHS-only existential variables (e.g. `now`).
  if (!TemplateMatchesIgnoringSite(
          tables.ClearedRhs(r, static_cast<size_t>(e.rhs_step)), e, &frame)) {
    emit(5, {e.id, trigger->id},
         "generated event does not match its RHS template");
    return;
  }
  // (5d) RHS condition satisfied at the event's old interpretation.
  if (step.condition != nullptr) {
    auto ok = step.condition->EvalBoolFrame(frame, r.slots,
                                            state.ReaderBefore(e.time));
    if (!ok.ok() || !*ok) {
      emit(5, {e.id}, "rule RHS condition not satisfied before the event");
    }
  }
  // (5e) timing: within [trigger.time, trigger.time + delta].
  if (e.time < trigger->time || trigger->time + r.delta < e.time) {
    emit(5, {e.id, trigger->id},
         StrFormat("event outside rule window (delta %s)",
                   r.delta.ToString().c_str()));
  }
}

// ---------------------------------------------------------------- property 6

// Merge sequence of a property-6 violation within its trigger event: the
// candidate's position in the rule scan, then the slot (0 = prohibition,
// step + 1 = RHS step).
inline uint64_t ObligationSeq(size_t cand, int slot) {
  return (static_cast<uint64_t>(cand) << 32) | static_cast<uint32_t>(slot);
}

// Where the trace places each item base: write-shaped events (Ws/W/WR/INS/
// DEL) execute at the item's home site, so they are authoritative; any
// other event fills remaining gaps. First sighting wins in each tier.
// Needed because strategy rules carry no "@site" pins — the System resolves
// placement at install time, after the specs are generated. Keyed by
// interned base and site, so learning an already-placed base touches no
// string.
class SiteOfBase {
 public:
  void Learn(const rule::Event& e);
  // Site of the event that placed `base_sym` (possibly an endpoint such as
  // "B#tr"), or nullptr when the trace has not placed it.
  const std::string* Find(uint32_t base_sym) const;

 private:
  // Interned base -> interned site of its first sighting, or kNoSymbol.
  std::vector<uint32_t> write_site_;
  std::vector<uint32_t> any_site_;
};

// The deadline of an obligation `r` opened by a trigger at (interned site,
// time): time + delta, extended across outages. A down site holds its messages, so
// an obligation whose window overlaps an outage of an involved site — the
// trigger's, the rule's LHS site, or a site an RHS step fires at — is
// granted a fresh delta from the restart instant, iterated to a fixed point
// so that back-to-back outages chain.
TimePoint ObligationDeadline(const rule::Rule& r, uint32_t trigger_site,
                             TimePoint trigger_time,
                             const std::vector<SiteOutage>& outages,
                             const SiteOfBase& sites);

// Property 6, creation side. Visits the rules `e` may trigger — every rule
// with `all_rules` (the reference scan), else the index candidates — and
// for each whose LHS and LHS condition hold at e.time either reports the
// prohibition (an F right-hand side) or calls open(cand, rule, frame) for a
// firing obligation, `frame` holding the LHS binding (valid for the call
// only). Scan counters go to `counters`.
template <typename State, typename Emit, typename Open>
void ScanObligations(const RuleTables& tables, const rule::Event& e,
                     bool all_rules, RuleScratch* scratch, Sink* counters,
                     const State& state, Emit&& emit, Open&& open) {
  const std::vector<rule::Rule>& rules = tables.rules();
  size_t n;
  if (all_rules) {
    n = rules.size();
  } else if (!tables.index().MayMatchKind(e.kind)) {
    // No rule listens to this kind at all (e.g. plain writes under a
    // notify-triggered program): skip the bucket lookup entirely.
    counters->obligation_scans_avoided += rules.size();
    return;
  } else {
    n = tables.index().Lookup(e, &scratch->candidates);
    counters->obligation_scans_avoided += rules.size() - n;
  }
  counters->obligation_candidates += n;
  rule::BindingFrame& frame = scratch->frame;
  for (size_t c = 0; c < n; ++c) {
    const rule::Rule& r = rules[all_rules ? c : scratch->candidates[c]];
    frame.Clear();
    if (!r.lhs.MatchesCompiled(e, &frame)) continue;
    if (r.lhs_condition != nullptr) {
      auto ok =
          r.lhs_condition->EvalBoolFrame(frame, r.slots, state.ReaderAt(e.time));
      if (!ok.ok() || !*ok) continue;
    }
    if (r.forbids()) {
      emit(ObligationSeq(c, 0), {e.id},
           "event matches a prohibition rule (RHS is F): " + r.ToString());
      continue;
    }
    open(c, r, static_cast<const rule::BindingFrame&>(frame));
  }
}

// Grounds `ref` (compiled against the frame's rule) into `out`, reusing its
// buffers. False when an argument is unbound or a wildcard.
bool GroundInto(const rule::ItemRef& ref, const rule::BindingFrame& frame,
                rule::ItemId* out);

// True when RHS step `step` of `r`, whose condition is non-null, has that
// condition false at some instant of [lo, hi] the CM could have evaluated
// it at. Candidate instants are the window bounds plus every state change
// of the condition's items in (lo, hi]. Each is tried just before and just
// after: the CM chooses the evaluation instant, and either side of a change
// is a legal choice.
template <typename State>
bool ConditionFalseSomewhere(const RuleTables& tables, const rule::Rule& r,
                             size_t step, const rule::BindingFrame& frame,
                             TimePoint lo, TimePoint hi, const State& state,
                             RuleScratch* scratch, Sink* counters) {
  std::vector<TimePoint>& candidates = scratch->instants;
  candidates.clear();
  candidates.push_back(lo);
  candidates.push_back(hi);
  for (const rule::ItemRef& ref : tables.ConditionItems(r, step)) {
    if (!GroundInto(ref, frame, &scratch->item)) continue;
    state.WithSegments(scratch->item, [&](const auto& run) {
      auto it = std::upper_bound(
          run.begin(), run.end(), lo,
          [](TimePoint t, const Segment& s) { return t < s.from; });
      for (; it != run.end() && it->from <= hi; ++it) {
        candidates.push_back(it->from);
      }
    });
  }
  counters->condition_instants += candidates.size();
  const rule::Expr& condition = *r.rhs[step].condition;
  for (TimePoint t : candidates) {
    auto before = condition.EvalBoolFrame(frame, r.slots, state.ReaderBefore(t));
    if (before.ok() && !*before) return true;
    auto after = condition.EvalBoolFrame(frame, r.slots, state.ReaderAt(t));
    if (after.ok() && !*after) return true;
  }
  return false;
}

// What a driver knows about a fired RHS step.
struct FiredStep {
  TimePoint time;
  int64_t id;
};

// The fired-step index: (trigger id, rule id, RHS step) -> the step's
// FiredStep, last write wins. Open addressing with linear probing over one
// flat array, so recording a fire allocates nothing once the table has
// grown to the live population.
class FiredIndex {
 public:
  void Put(int64_t trigger_id, int64_t rule_id, int step, FiredStep fired);
  const FiredStep* Find(int64_t trigger_id, int64_t rule_id, int step) const;
  size_t size() const { return size_; }
  void Reserve(size_t n);
  // Drops every entry fired before `cut`.
  void EraseBefore(TimePoint cut);

 private:
  struct Slot {
    int64_t trigger_id = -1;
    int64_t rule_id = -1;
    int step = -1;
    bool used = false;
    FiredStep fired{};
  };
  static size_t Hash(int64_t trigger_id, int64_t rule_id, int step);
  // Re-inserts the entries fired at or after `keep_from` into a fresh
  // array of `capacity` slots, so probe chains stay gap-free without
  // tombstones.
  void Refill(size_t capacity, TimePoint keep_from);

  std::vector<Slot> slots_;  // capacity is zero or a power of two
  size_t size_ = 0;
};

// Property 6, resolution side: walks the RHS steps of the obligation `r`
// opened by trigger (trigger_id, trigger_time) as scan candidate `cand`
// with LHS binding `frame`, once every fire up to `deadline` is known.
// fired(step) returns the step's FiredStep, or nullptr when it did not
// fire. A fired step must not precede the previous one; an unfired step is
// acceptable only if its condition could have been false somewhere in its
// window.
template <typename Fired, typename State, typename Emit>
void CheckObligation(const RuleTables& tables, const rule::Rule& r,
                     size_t cand, int64_t trigger_id, TimePoint trigger_time,
                     const rule::BindingFrame& frame, TimePoint deadline,
                     Fired&& fired, const State& state, RuleScratch* scratch,
                     Sink* counters, Emit&& emit) {
  ++counters->obligations_checked;
  TimePoint prev = trigger_time;
  for (int step = 0; step < static_cast<int>(r.rhs.size()); ++step) {
    if (const FiredStep* g = fired(step)) {
      if (g->time < prev) {
        emit(ObligationSeq(cand, step + 1), {trigger_id, g->id},
             "RHS steps fired out of sequence");
      }
      prev = g->time;
      continue;
    }
    const rule::RhsStep& rhs = r.rhs[static_cast<size_t>(step)];
    if (rhs.condition == nullptr) {
      emit(ObligationSeq(cand, step + 1), {trigger_id},
           StrFormat("unconditional RHS step %d of rule '%s' never "
                     "fired within %s",
                     step, r.ToString().c_str(), r.delta.ToString().c_str()));
      continue;
    }
    if (!ConditionFalseSomewhere(tables, r, static_cast<size_t>(step), frame,
                                 prev, deadline, state, scratch, counters)) {
      emit(ObligationSeq(cand, step + 1), {trigger_id},
           StrFormat("RHS step %d of rule '%s' did not fire although "
                     "its condition held throughout the window",
                     step, r.ToString().c_str()));
    }
  }
}

// ---------------------------------------------------------------- property 7

// A generated event and its trigger on the channel (trigger site, event
// site).
struct ChannelPair {
  TimePoint trigger_time;
  TimePoint event_time;
  int64_t trigger_id;
  int64_t event_id;
};

// Channel order: by trigger time, then by event time. Both drivers break
// ties by arrival (trace) order, so they see the same adjacencies.
struct ChannelOrderLess {
  bool operator()(const ChannelPair& a, const ChannelPair& b) const {
    if (a.trigger_time != b.trigger_time) {
      return a.trigger_time < b.trigger_time;
    }
    return a.event_time < b.event_time;
  }
};

// Related rules preserve trigger order in firing order: of two adjacent
// pairs in channel order on (trigger_site, event_site), a strictly earlier
// trigger must not fire strictly later.
template <typename Emit>
void CheckChannelAdjacent(const std::string& trigger_site,
                          const std::string& event_site,
                          const ChannelPair& prev, const ChannelPair& cur,
                          Emit&& emit) {
  if (prev.trigger_time < cur.trigger_time &&
      cur.event_time < prev.event_time) {
    emit(7, {prev.event_id, cur.event_id},
         StrFormat("out-of-order processing on channel %s -> %s",
                   trigger_site.c_str(), event_site.c_str()));
  }
}

}  // namespace hcm::trace::internal

#endif  // HCM_TRACE_EXECUTION_RULES_H_
