#include "src/trace/trace.h"

#include <algorithm>
#include <cstdlib>

#include "src/common/logging.h"
#include "src/common/string_util.h"
#include "src/trace/execution_rules.h"

namespace hcm::trace {

using internal::ChangesState;

std::string Trace::ToString(size_t max_events) const {
  std::string out = StrFormat("trace: %zu events, horizon %s\n",
                              events.size(), horizon.ToString().c_str());
  size_t shown = 0;
  for (const auto& e : events) {
    if (shown++ >= max_events) {
      out += StrFormat("  ... (%zu more)\n", events.size() - max_events);
      break;
    }
    out += "  " + e.ToString() + "\n";
  }
  return out;
}

void TraceRecorder::SetInitialValue(const rule::ItemId& item, Value value) {
  if (sink_ != nullptr) sink_->OnInitialValue(item, value);
  trace_.initial_values[item] = std::move(value);
}

int64_t TraceRecorder::Record(rule::Event event) {
  event.id = next_id_++;
  int64_t id = event.id;
  ++num_recorded_;
  if (sink_ != nullptr) {
    // Single-threaded recording is already in canonical (time, id) order
    // with final ids, so the sink sees each event the moment it happens.
    // Everything strictly before this event's time is final: advance the
    // watermark first so the sink can retire state before absorbing the
    // event.
    if (last_watermark_ < event.time) {
      last_watermark_ = event.time;
      sink_->OnWatermark(last_watermark_);
    }
    sink_->OnEvent(event);
    if (drain_) return id;  // sink consumed it; keep no copy
  }
  // Every event of a run funnels through here; pre-size the log so early
  // growth doesn't repeatedly move the (string-heavy) recorded events.
  if (trace_.events.capacity() == trace_.events.size()) {
    trace_.events.reserve(
        std::max<size_t>(1024, trace_.events.capacity() * 2));
  }
  trace_.events.push_back(std::move(event));
  return id;
}

void TraceRecorder::AttachSink(TraceSink* sink, bool drain) {
  sink_ = sink;
  drain_ = drain;
  // Initial values declared before the attach still reach the sink.
  if (sink_ != nullptr) {
    for (const auto& [item, value] : trace_.initial_values) {
      sink_->OnInitialValue(item, value);
    }
  }
}

void TraceRecorder::DetachReady(TimePoint watermark) {
  if (sink_ == nullptr || watermark <= last_watermark_) return;
  last_watermark_ = watermark;
  sink_->OnWatermark(watermark);
}

void TraceRecorder::GuardFinish(const char* recorder_name) {
  if (finished_) {
    // A second Finish could only return a moved-from (empty) trace, and an
    // empty trace sails through every downstream check. Fail loudly.
    HCM_LOG(Error) << recorder_name
                   << "::Finish called twice; the trace was already moved "
                      "out by the first call";
    std::abort();
  }
  finished_ = true;
}

Trace TraceRecorder::Finish(TimePoint horizon) {
  GuardFinish("TraceRecorder");
  if (sink_ != nullptr) sink_->OnFinish(horizon);
  trace_.horizon = horizon;
  Trace out = std::move(trace_);
  trace_ = Trace{};
  num_recorded_ = 0;  // spent: a drained total must be read before Finish
  InternTraceItems(&out);
  return out;
}

void InternTraceItems(Trace* trace) {
  trace->interner = ItemInterner();
  // Exactly StateTimeline::Build's pass-1 intern order, so a timeline that
  // clones this interner assigns the same ids the string path would.
  for (const auto& [item, value] : trace->initial_values) {
    trace->interner.Intern(item);
    (void)value;
  }
  for (rule::Event& e : trace->events) {
    e.item_iid = ChangesState(e.kind) ? trace->interner.Intern(e.item)
                                      : ItemInterner::kNoId;
  }
  trace->items_interned = true;
}

StateTimeline StateTimeline::Build(const Trace& trace,
                                   bool use_interned_ids) {
  StateTimeline tl;
  const bool pre_interned = use_interned_ids && trace.items_interned;
  if (pre_interned) {
    tl.interner_ = trace.interner;
    tl.spans_.assign(tl.interner_.size(), {0, 0});
  }
  // Pass 1: intern every state-bearing item and count its segments, so the
  // flat store can be laid out contiguously per item up front. With a
  // recorder-stamped trace the interner arrives pre-built and per-event
  // interning collapses to reading item_iid.
  for (const auto& [item, value] : trace.initial_values) {
    uint32_t id =
        pre_interned ? tl.interner_.Find(item) : tl.interner_.Intern(item);
    if (id >= tl.spans_.size()) tl.spans_.resize(id + 1, {0, 0});
    ++tl.spans_[id].second;
    (void)value;
  }
  tl.event_state_ids_.assign(trace.events.size(), ItemInterner::kNoId);
  for (size_t i = 0; i < trace.events.size(); ++i) {
    const rule::Event& e = trace.events[i];
    if (!ChangesState(e.kind)) continue;
    uint32_t id = pre_interned ? e.item_iid : tl.interner_.Intern(e.item);
    if (id >= tl.spans_.size()) tl.spans_.resize(id + 1, {0, 0});
    ++tl.spans_[id].second;
    tl.event_state_ids_[i] = id;
  }
  uint32_t offset = 0;
  for (auto& [start, count] : tl.spans_) {
    start = offset;
    offset += count;
    count = 0;  // reused as fill cursor in pass 2
  }
  tl.segments_.resize(offset);
  // Pass 2: emit segments in trace order into each item's span.
  auto emit = [&tl](uint32_t id, TimePoint from, std::optional<Value> value) {
    auto& [start, filled] = tl.spans_[id];
    tl.segments_[start + filled] = Segment{from, std::move(value)};
    ++filled;
  };
  for (const auto& [item, value] : trace.initial_values) {
    emit(tl.interner_.Find(item), internal::kInitialSegmentStart, value);
  }
  for (size_t i = 0; i < trace.events.size(); ++i) {
    uint32_t id = tl.event_state_ids_[i];
    if (id == ItemInterner::kNoId) continue;
    const auto& [start, filled] = tl.spans_[id];
    const Segment* prev =
        filled > 0 ? &tl.segments_[start + filled - 1] : nullptr;
    const rule::Event& e = trace.events[i];
    emit(id, e.time, internal::OpenedValue(e, prev));
  }
  return tl;
}

StateTimeline StateTimeline::FromParts(
    ItemInterner interner, std::vector<std::vector<Segment>> per_item) {
  StateTimeline tl;
  tl.interner_ = std::move(interner);
  tl.spans_.assign(tl.interner_.size(), {0, 0});
  size_t total = 0;
  for (size_t id = 0; id < per_item.size() && id < tl.spans_.size(); ++id) {
    total += per_item[id].size();
  }
  tl.segments_.reserve(total);
  for (size_t id = 0; id < per_item.size() && id < tl.spans_.size(); ++id) {
    tl.spans_[id].first = static_cast<uint32_t>(tl.segments_.size());
    tl.spans_[id].second = static_cast<uint32_t>(per_item[id].size());
    for (Segment& s : per_item[id]) tl.segments_.push_back(std::move(s));
  }
  return tl;
}

SegmentSpan StateTimeline::SegmentsOf(uint32_t id) const {
  if (id >= spans_.size()) return SegmentSpan();
  const auto& [start, count] = spans_[id];
  return SegmentSpan(segments_.data() + start, count);
}

SegmentSpan StateTimeline::SegmentsOf(const rule::ItemId& item) const {
  return SegmentsOf(interner_.Find(item));
}

const Segment* StateTimeline::FindSegmentAt(uint32_t id, TimePoint t) const {
  return internal::SegmentAt(SegmentsOf(id), t);
}

const Segment* StateTimeline::FindSegmentBefore(uint32_t id,
                                                TimePoint t) const {
  return internal::SegmentBefore(SegmentsOf(id), t);
}

std::optional<Value> StateTimeline::ValueAt(uint32_t id, TimePoint t) const {
  const Segment* seg = FindSegmentAt(id, t);
  return seg == nullptr ? std::nullopt : seg->value;
}

std::optional<Value> StateTimeline::ValueAt(const rule::ItemId& item,
                                            TimePoint t) const {
  return ValueAt(interner_.Find(item), t);
}

bool StateTimeline::ExistsAt(uint32_t id, TimePoint t) const {
  const Segment* seg = FindSegmentAt(id, t);
  return seg != nullptr && seg->value.has_value();
}

bool StateTimeline::ExistsAt(const rule::ItemId& item, TimePoint t) const {
  return ExistsAt(interner_.Find(item), t);
}

std::optional<Value> StateTimeline::ValueBefore(uint32_t id,
                                                TimePoint t) const {
  const Segment* seg = FindSegmentBefore(id, t);
  return seg == nullptr ? std::nullopt : seg->value;
}

std::optional<Value> StateTimeline::ValueBefore(const rule::ItemId& item,
                                                TimePoint t) const {
  return ValueBefore(interner_.Find(item), t);
}

std::vector<rule::ItemId> StateTimeline::AllItems() const {
  std::vector<rule::ItemId> out;
  out.reserve(interner_.size());
  for (uint32_t id : interner_.SortedIds()) out.push_back(interner_.item(id));
  return out;
}

void SegmentCursor::Advance(TimePoint t) {
  if (pos_ > 0 && span_[pos_ - 1].from > t) {
    // Query went backwards: re-establish the invariant by binary search.
    auto it = std::upper_bound(
        span_.begin(), span_.end(), t,
        [](TimePoint lhs, const Segment& s) { return lhs < s.from; });
    pos_ = static_cast<size_t>(it - span_.begin());
    return;
  }
  while (pos_ < span_.size() && span_[pos_].from <= t) ++pos_;
}

const Segment* SegmentCursor::SeekAt(TimePoint t) {
  Advance(t);
  return pos_ == 0 ? nullptr : &span_[pos_ - 1];
}

const Segment* SegmentCursor::SeekBefore(TimePoint t) {
  Advance(t);
  size_t p = pos_;
  while (p > 0 && !(span_[p - 1].from < t)) --p;
  return p == 0 ? nullptr : &span_[p - 1];
}

}  // namespace hcm::trace
