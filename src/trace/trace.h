#ifndef HCM_TRACE_TRACE_H_
#define HCM_TRACE_TRACE_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/common/sim_time.h"
#include "src/rule/event.h"
#include "src/trace/item_interner.h"

namespace hcm::trace {

// The recorded execution of a run: all events in (time, id) order, the
// initial state of the constraint-relevant items, and the observation
// horizon. This is the toolkit's concrete representation of an "execution"
// in the sense of Appendix A.2; ValidExecutionChecker verifies it and
// GuaranteeChecker evaluates guarantees over it.
struct Trace {
  std::vector<rule::Event> events;
  // Items that exist at time 0 with their initial values.
  std::map<rule::ItemId, Value> initial_values;
  // End of observation; predicates are evaluated over [0, horizon].
  TimePoint horizon;

  // Dense per-trace item ids, stamped by the recorders at Finish (see
  // InternTraceItems): `interner` replicates exactly the intern order
  // StateTimeline::Build performs — initial values in map order, then
  // state-changing events in trace order — and each state-changing event
  // carries its id in item_iid. Checkers then skip the whole re-interning
  // pass. Traces built by hand or parsed from text leave items_interned
  // false and take the original string-keyed path.
  ItemInterner interner;
  bool items_interned = false;

  std::string ToString(size_t max_events = 50) const;
};

// Stamps `interner`/item_iid/items_interned on a finalized trace. The id
// assignment is the recorders' id-stability contract: it depends only on
// the final (merged, time-ordered) event sequence and the initial-value
// map, never on how recording was sharded, so single-threaded and sharded
// runs that produce identical event logs produce identical ids.
void InternTraceItems(Trace* trace);

// Receives the canonical trace incrementally, while the run executes.
// Events arrive in exactly the order (and with exactly the ids) the
// recorder's Finish would produce — the sharded recorder merges and
// renumbers its shards' safe prefix before delivery — so a sink observing
// the whole feed sees the final trace, event for event. All callbacks run
// on one thread, the one driving the run (the caller of RunFor), so sinks
// need no internal locking. With the parallel engine that thread delivers
// while the lanes execute the next superstep: a sink must not touch the
// simulation (System, shells, executor) from its callbacks.
class TraceSink {
 public:
  virtual ~TraceSink() = default;

  // An item's declared time-0 value, forwarded at declaration time (before
  // any event). Re-declaring an item overrides the earlier value, matching
  // Trace::initial_values map semantics.
  virtual void OnInitialValue(const rule::ItemId& item, const Value& value) {
    (void)item;
    (void)value;
  }

  // The next event of the canonical trace. `event.id` is final and dense;
  // `event.trigger_event_id` refers to final ids (or stays stale for
  // triggers that never reached the trace, as in Finish).
  virtual void OnEvent(const rule::Event& event) = 0;

  // Every event with time < `watermark` has been delivered; no later
  // OnEvent will carry an earlier time. Watermarks are nondecreasing.
  virtual void OnWatermark(TimePoint watermark) { (void)watermark; }

  // Recording is complete: all events delivered, `horizon` is the value
  // passed to Finish. Called exactly once, from inside Finish.
  virtual void OnFinish(TimePoint horizon) { (void)horizon; }
};

// Assigns event ids and accumulates the trace. The CM-Shells and workload
// generators all record through one recorder so ids are globally unique and
// the order is the executor's total order.
//
// This base implementation is the single-threaded path: one event log in
// record order. ShardedTraceRecorder (sharded_recorder.h) overrides the
// virtual surface with per-site shards for parallel runs.
class TraceRecorder {
 public:
  TraceRecorder() = default;
  virtual ~TraceRecorder() = default;
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  // Declares an item's value at time 0. Call before the run starts.
  virtual void SetInitialValue(const rule::ItemId& item, Value value);

  // Declares a recording site up front (optional hint; lets sharded
  // recorders build their shards before concurrent recording begins). The
  // single-threaded recorder ignores it.
  virtual void DeclareSite(const std::string& site) { (void)site; }

  // Records the event, assigning its id. Returns the assigned id. Sharded
  // recorders return a *provisional* id, only unique within the run and
  // replaced by the final dense id at Finish; treat it as opaque.
  virtual int64_t Record(rule::Event event);

  // Finalizes and returns the trace, *moving* the accumulated event log out
  // (large traces must not be duplicated here). The recorder is spent
  // afterwards: a second Finish aborts the process — it could only hand
  // back a silently empty trace, which downstream checkers would happily
  // declare valid.
  virtual Trace Finish(TimePoint horizon);

  // Attaches a streaming sink (at most one; call before recording starts).
  // In drain mode the recorder sheds events once delivered — memory stays
  // bounded by the undelivered window, but Finish then returns a trace
  // without events (initial values + horizon only). Without drain (tee
  // mode) Finish still returns the full canonical trace.
  virtual void AttachSink(TraceSink* sink, bool drain);

  // Streaming delivery, split in two halves so the parallel engine can
  // overlap the second with the next superstep:
  //   DetachReady(W) — only where recording is quiescent (a superstep
  //     barrier, or between runs): takes every event known to precede W
  //     out of the recording buffers. Delivers a still-pending batch first.
  //   DeliverDetached() — hands the detached batch to the sink in canonical
  //     order with final ids, then forwards W. It touches nothing Record
  //     writes, so it may run while lanes record.
  // The single-threaded recorder records in final order and feeds the sink
  // inside Record already, so its DetachReady only forwards the watermark
  // and DeliverDetached has nothing to do. Callers must pass nondecreasing
  // watermarks ≤ the earliest still-unrecorded instant.
  virtual void DetachReady(TimePoint watermark);
  virtual void DeliverDetached() {}
  // Both halves back to back (System::RunFor's end-of-run flush).
  void FlushSink(TimePoint watermark) {
    DetachReady(watermark);
    DeliverDetached();
  }

  // Count of events recorded (not reduced by drain-mode shedding).
  virtual size_t num_events() const { return num_recorded_; }

  // Single-threaded recorder only: the accumulated trace so far.
  const Trace& trace() const { return trace_; }

 protected:
  // Aborts on a repeated Finish (shared by the sharded recorder).
  void GuardFinish(const char* recorder_name);

  TraceSink* sink_ = nullptr;
  bool drain_ = false;
  TimePoint last_watermark_;  // nondecreasing guard for DetachReady

 private:
  Trace trace_;
  int64_t next_id_ = 0;
  size_t num_recorded_ = 0;
  bool finished_ = false;
};

// One segment of an item's history: from `from` (inclusive) the item has
// value `value`; nullopt value = the item does not exist.
struct Segment {
  TimePoint from;
  std::optional<Value> value;
};

// A borrowed, contiguous run of segments inside the timeline's flat store.
// Valid as long as the owning StateTimeline is alive and unmodified.
class SegmentSpan {
 public:
  SegmentSpan() = default;
  SegmentSpan(const Segment* data, size_t size) : data_(data), size_(size) {}

  const Segment* begin() const { return data_; }
  const Segment* end() const { return data_ + size_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const Segment& operator[](size_t i) const { return data_[i]; }
  const Segment& back() const { return data_[size_ - 1]; }

 private:
  const Segment* data_ = nullptr;
  size_t size_ = 0;
};

// Piecewise-constant state reconstruction for every item touched by a
// trace. State changes at Ws/W events (value), INS events (existence, value
// null until written) and DEL events (non-existence). N/R/WR/RR/P events do
// not change state (Appendix A.2 property 2).
//
// Internally every touched item is interned to a dense uint32_t id and all
// segments live in one flat contiguous store, partitioned into per-item
// spans. The ItemId-keyed entry points below are thin wrappers over the
// id-indexed ones; sequential checkers should intern once (IdOf) and use
// the id overloads, or walk a SegmentCursor.
class StateTimeline {
 public:
  // Builds from a trace. Events must be time-ordered. When the trace
  // carries recorder-stamped ids (items_interned) the interner is cloned
  // and per-event interning is skipped; pass use_interned_ids = false to
  // force the string-keyed reference path (the use_reference_impl flag of
  // the checkers routes here, keeping both paths equivalence-testable).
  static StateTimeline Build(const Trace& trace, bool use_interned_ids = true);

  // Streaming support: assembles a timeline directly from per-item segment
  // runs, indexed by `interner`'s dense ids (per_item[id] = that item's
  // time-ordered segments). Bypasses trace replay entirely — the streaming
  // guarantee collector maintains the runs incrementally and snapshots them
  // here per evaluation window. event_state_ids_ stays empty (only the
  // valid-execution checker uses StateIdOfEvent, never this path).
  static StateTimeline FromParts(ItemInterner interner,
                                 std::vector<std::vector<Segment>> per_item);

  StateTimeline() = default;
  StateTimeline(StateTimeline&&) = default;
  StateTimeline& operator=(StateTimeline&&) = default;

  // Dense id of an item, or ItemInterner::kNoId when the trace never
  // touched it.
  uint32_t IdOf(const rule::ItemId& item) const {
    return interner_.Find(item);
  }

  const ItemInterner& items() const { return interner_; }

  // Value of the item at instant t (state *after* events at exactly t, i.e.
  // the "new" interpretation — matching Appendix A.2 property 3 chaining).
  // nullopt when the item does not exist at t.
  std::optional<Value> ValueAt(const rule::ItemId& item, TimePoint t) const;
  std::optional<Value> ValueAt(uint32_t id, TimePoint t) const;

  // Existence test at instant t. Pure segment lookup: never materializes
  // the stored value.
  bool ExistsAt(const rule::ItemId& item, TimePoint t) const;
  bool ExistsAt(uint32_t id, TimePoint t) const;

  // Value of the item just *before* instant t (the "old" interpretation).
  std::optional<Value> ValueBefore(const rule::ItemId& item,
                                   TimePoint t) const;
  std::optional<Value> ValueBefore(uint32_t id, TimePoint t) const;

  // The item's full segment run (empty if never seen).
  SegmentSpan SegmentsOf(const rule::ItemId& item) const;
  SegmentSpan SegmentsOf(uint32_t id) const;

  // Interned ids of all item instances with the given base name (in ItemId
  // order).
  const std::vector<uint32_t>& ItemIdsWithBase(const std::string& base) const {
    return interner_.IdsWithBase(base);
  }

  // All items known to the timeline (in ItemId order).
  std::vector<rule::ItemId> AllItems() const;

  // Interned id of the item whose state event `event_index` (an index into
  // the source trace's event vector) changed, or ItemInterner::kNoId for
  // events that change no state. Build already interned every state event's
  // item, so checkers walking the event log can reuse the id instead of
  // re-hashing the ItemId per event.
  uint32_t StateIdOfEvent(size_t event_index) const {
    return event_index < event_state_ids_.size()
               ? event_state_ids_[event_index]
               : ItemInterner::kNoId;
  }

 private:
  const Segment* FindSegmentAt(uint32_t id, TimePoint t) const;
  const Segment* FindSegmentBefore(uint32_t id, TimePoint t) const;

  ItemInterner interner_;
  // Flat segment store: item `id` owns segments_[spans_[id].first ..
  // .first + .second).
  std::vector<Segment> segments_;
  std::vector<std::pair<uint32_t, uint32_t>> spans_;
  // Event index -> interned id of the changed item (kNoId: no state change).
  std::vector<uint32_t> event_state_ids_;
};

// Amortized-O(1) segment lookup for a checker advancing through a trace in
// time order: instead of re-binary-searching the span on every query, the
// cursor walks forward from its previous position. Queries at earlier
// instants fall back to a binary search, so non-monotone use is still
// correct, just not faster.
class SegmentCursor {
 public:
  SegmentCursor() = default;
  explicit SegmentCursor(SegmentSpan span) : span_(span) {}

  // Last segment with from <= t, or nullptr when t precedes all knowledge.
  const Segment* SeekAt(TimePoint t);

  // Last segment with from < t (strict), or nullptr.
  const Segment* SeekBefore(TimePoint t);

 private:
  // Position the cursor so pos_ = count of segments with from <= t.
  void Advance(TimePoint t);

  SegmentSpan span_;
  size_t pos_ = 0;  // segments known to start at or before the last query
};

}  // namespace hcm::trace

#endif  // HCM_TRACE_TRACE_H_
