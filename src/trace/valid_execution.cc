#include "src/trace/valid_execution.h"

#include <algorithm>
#include <optional>
#include <tuple>
#include <unordered_map>

#include "src/common/string_util.h"
#include "src/trace/check_window.h"
#include "src/trace/execution_rules.h"

namespace hcm::trace {

std::string ExecutionViolation::ToString() const {
  std::string ids;
  for (size_t i = 0; i < event_ids.size(); ++i) {
    if (i > 0) ids += ",";
    ids += std::to_string(event_ids[i]);
  }
  return StrFormat("property %d [events %s]: %s", property, ids.c_str(),
                   message.c_str());
}

std::string ExecutionReport::ToString() const {
  std::string out = StrFormat(
      "%s (%zu events, %zu obligations checked, %zu violations)\n",
      valid ? "VALID" : "INVALID", events_checked, obligations_checked,
      violations.size());
  for (const auto& v : violations) out += "  " + v.ToString() + "\n";
  return out;
}

std::string ExecutionReport::DescribeCheckStats() const {
  double cand_per_event =
      events_checked == 0
          ? 0.0
          : static_cast<double>(stats.obligation_candidates) /
                static_cast<double>(events_checked);
  double scanned_per_chain =
      stats.chain_lookups == 0
          ? 0.0
          : static_cast<double>(stats.chain_events_scanned) /
                static_cast<double>(stats.chain_lookups);
  return StrFormat(
      "valid-execution check stats:\n"
      "  events %zu, items indexed %zu, write events indexed %zu\n"
      "  same-instant chain lookups %llu (%.1f events scanned each)\n"
      "  obligation candidates/event %.2f, rule scans avoided %llu\n"
      "  condition instants sampled %llu\n",
      events_checked, stats.items_indexed, stats.write_events_indexed,
      static_cast<unsigned long long>(stats.chain_lookups), scanned_per_chain,
      cand_per_event,
      static_cast<unsigned long long>(stats.obligation_scans_avoided),
      static_cast<unsigned long long>(stats.condition_instants));
}

namespace {

// The ordinal-tagged bounded sink and ordered phase merge live in
// check_window.h and the property rules in execution_rules.h, both shared
// with the streaming checker; this file is only the offline driver: indexes
// over the whole trace and one pass per phase, each writing one sink.
using internal::Sink;

// Emits into `sink` at trace ordinal `ord`, in call order.
auto EmitAt(Sink* sink, uint64_t ord) {
  return [sink, ord](int property, std::vector<int64_t> ids,
                     std::string message) {
    sink->Add(ord, property, std::move(ids), std::move(message));
  };
}

class Checker {
 public:
  Checker(const Trace& trace, const std::vector<rule::Rule>& rules,
          const ValidExecutionOptions& options)
      : trace_(trace),
        options_(options),
        tables_(rules),
        scratch_(tables_),
        timeline_(StateTimeline::Build(trace, !options.use_reference_impl)) {
    // Recorder-assigned ids are dense, so id lookup is normally a plain
    // vector index; sparse ids (hand-built traces) fall back to a map.
    int64_t max_id = -1;
    for (const auto& e : trace_.events) max_id = std::max(max_id, e.id);
    if (max_id >= 0 &&
        static_cast<size_t>(max_id) < 2 * trace_.events.size() + 64) {
      events_dense_.resize(static_cast<size_t>(max_id) + 1, nullptr);
      for (const auto& e : trace_.events) {
        events_dense_[static_cast<size_t>(e.id)] = &e;
      }
    } else {
      events_by_id_.reserve(trace_.events.size());
      for (const auto& e : trace_.events) events_by_id_[e.id] = &e;
    }
    if (!options_.use_reference_impl) BuildWriteIndex();
    if (!options_.outages.empty()) {
      for (const auto& e : trace_.events) sites_.Learn(e);
    }
  }

  ExecutionReport Run() {
    report_.events_checked = trace_.events.size();
    RunPhase([this](Sink* sink) { CheckOrdering(sink); });
    RunPhase([this](Sink* sink) { CheckWriteConsistency(sink); });
    RunPhase([this](Sink* sink) { CheckProvenance(sink); });
    RunPhase([this](Sink* sink) { CheckObligations(sink); });
    RunPhase([this](Sink* sink) { CheckInOrderProcessing(sink); });
    report_.valid = report_.violations.empty() && extra_violations_ == 0;
    report_.stats.items_indexed = timeline_.items().size();
    return std::move(report_);
  }

  // State readers for the shared rules: condition evaluation at state
  // "just after instant t" / "just before t". CM-private items default to
  // Null before their first write.
  rule::DataReader ReaderAt(TimePoint t) const {
    return [this, t](const rule::ItemId& item) -> Result<Value> {
      auto v = timeline_.ValueAt(item, t);
      return v.has_value() ? *v : Value::Null();
    };
  }

  rule::DataReader ReaderBefore(TimePoint t) const {
    return [this, t](const rule::ItemId& item) -> Result<Value> {
      auto v = timeline_.ValueBefore(item, t);
      return v.has_value() ? *v : Value::Null();
    };
  }

  template <typename F>
  void WithSegments(const rule::ItemId& item, F&& f) const {
    f(timeline_.SegmentsOf(item));
  }

 private:
  // Per interned item, the indexes of its W/Ws events sorted by (time, id),
  // so same-instant chain lookups never rescan the trace.
  void BuildWriteIndex() {
    writes_by_item_.resize(timeline_.items().size());
    for (size_t i = 0; i < trace_.events.size(); ++i) {
      const rule::Event& e = trace_.events[i];
      if (e.kind != rule::EventKind::kWrite &&
          e.kind != rule::EventKind::kWriteSpont) {
        continue;
      }
      // Writes always change state, so their items are always interned.
      uint32_t id = timeline_.StateIdOfEvent(i);
      if (id == ItemInterner::kNoId) continue;  // defensive
      writes_by_item_[id].push_back(static_cast<uint32_t>(i));
      ++report_.stats.write_events_indexed;
    }
    // Traces are normally already (time, id)-ordered; sorting keeps the
    // same-instant range lookup correct even on property-1-violating input.
    for (auto& run : writes_by_item_) {
      std::sort(run.begin(), run.end(), [this](uint32_t a, uint32_t b) {
        const rule::Event& ea = trace_.events[a];
        const rule::Event& eb = trace_.events[b];
        if (ea.time != eb.time) return ea.time < eb.time;
        return ea.id < eb.id;
      });
    }
  }

  // Runs one phase into a fresh sink and merges it into the report, so the
  // per-phase cap and ordering match the streaming driver's.
  template <typename Phase>
  void RunPhase(const Phase& phase) {
    Sink sink(options_.max_violations);
    phase(&sink);
    internal::MergePhaseInto(std::move(sink), options_.max_violations,
                             &report_, &extra_violations_);
  }

  const rule::Event* EventById(int64_t id) const {
    if (!events_dense_.empty()) {
      return (id >= 0 && static_cast<size_t>(id) < events_dense_.size())
                 ? events_dense_[static_cast<size_t>(id)]
                 : nullptr;
    }
    auto it = events_by_id_.find(id);
    return it == events_by_id_.end() ? nullptr : it->second;
  }

  // Property 1. Sequential: one compare per adjacent pair.
  void CheckOrdering(Sink* sink) {
    for (size_t i = 1; i < trace_.events.size(); ++i) {
      const rule::Event& prev = trace_.events[i - 1];
      internal::CheckTimeOrder(prev.time, prev.id, trace_.events[i],
                               EmitAt(sink, i));
    }
  }

  // Same-instant write chains: did an earlier write at exactly `e.time` on
  // the same item produce the old value `e` claims? Indexed path: a sorted
  // range lookup in the item's write run. Reference: whole-trace scan.
  bool SameInstantChainMatches(const rule::Event& e, uint32_t id,
                               Sink* sink) const {
    if (options_.use_reference_impl) {
      for (const auto& other : trace_.events) {
        if (other.time != e.time || other.id >= e.id) continue;
        if (other.item == e.item &&
            (other.kind == rule::EventKind::kWrite ||
             other.kind == rule::EventKind::kWriteSpont) &&
            other.written_value() == e.old_value()) {
          return true;
        }
      }
      return false;
    }
    ++sink->chain_lookups;
    if (id == ItemInterner::kNoId) return false;
    const std::vector<uint32_t>& run = writes_by_item_[id];
    auto lo = std::lower_bound(run.begin(), run.end(), e.time,
                               [this](uint32_t idx, TimePoint t) {
                                 return trace_.events[idx].time < t;
                               });
    for (auto it = lo; it != run.end(); ++it) {
      const rule::Event& other = trace_.events[*it];
      if (other.time != e.time) break;
      ++sink->chain_events_scanned;
      if (other.id >= e.id) continue;
      if (other.written_value() == e.old_value()) return true;
    }
    return false;
  }

  // Properties 2+3. Indexed path: item by item — an item's sorted write
  // run plus a SegmentCursor give amortized-O(1) prior-state lookups.
  // Reference path: the whole-trace scan.
  void CheckWriteConsistency(Sink* sink) const {
    if (options_.use_reference_impl) {
      WriteConsistencyReference(sink);
      return;
    }
    for (uint32_t id = 0; id < timeline_.items().size(); ++id) {
      WriteConsistencyForItem(id, sink);
    }
  }

  void WriteConsistencyForItem(uint32_t id, Sink* sink) const {
    SegmentCursor cursor(timeline_.SegmentsOf(id));
    for (uint32_t idx : writes_by_item_[id]) {
      const rule::Event& e = trace_.events[idx];
      if (e.kind != rule::EventKind::kWriteSpont) continue;
      const Segment* seg = cursor.SeekBefore(e.time);
      std::optional<Value> before;
      if (seg != nullptr) before = seg->value;
      CheckWsOldValue(e, idx, id, before, sink);
    }
  }

  void WriteConsistencyReference(Sink* sink) const {
    for (size_t i = 0; i < trace_.events.size(); ++i) {
      const rule::Event& e = trace_.events[i];
      if (e.kind != rule::EventKind::kWriteSpont) continue;
      CheckWsOldValue(e, i, ItemInterner::kNoId,
                      timeline_.ValueBefore(e.item, e.time), sink);
    }
  }

  void CheckWsOldValue(const rule::Event& e, size_t event_index, uint32_t id,
                       const std::optional<Value>& before, Sink* sink) const {
    internal::CheckWsOldValue(
        e, before, [&] { return SameInstantChainMatches(e, id, sink); },
        EmitAt(sink, event_index));
  }

  // Properties 4+5: each event's provenance against the event table, the
  // rule tables and the timeline.
  void CheckProvenance(Sink* sink) const {
    for (size_t i = 0; i < trace_.events.size(); ++i) {
      const rule::Event& e = trace_.events[i];
      internal::CheckProvenance(tables_, e, EventById(e.trigger_event_id),
                                *this, &scratch_, EmitAt(sink, i));
    }
  }

  // Property 6: firing obligations. Rules a given event could trigger come
  // from the (kind, item base) rule index — the same pruning the live
  // dispatcher uses — instead of re-unifying every rule against every event.
  void CheckObligations(Sink* sink) {
    size_t generated = 0;
    for (const auto& e : trace_.events) generated += !e.spontaneous();
    fired_.Reserve(generated);
    for (const auto& e : trace_.events) {
      if (!e.spontaneous()) {
        fired_.Put(e.trigger_event_id, e.rule_id, e.rhs_step,
                   internal::FiredStep{e.time, e.id});
      }
    }
    for (size_t i = 0; i < trace_.events.size(); ++i) {
      ObligationsForEvent(i, sink);
    }
  }

  void ObligationsForEvent(size_t i, Sink* sink) const {
    const rule::Event& e = trace_.events[i];
    auto emit = [sink, i](uint64_t seq, std::vector<int64_t> ids,
                          std::string message) {
      sink->AddSeq(i, seq, 6, std::move(ids), std::move(message));
    };
    internal::ScanObligations(
        tables_, e, options_.use_reference_impl, &scratch_, sink, *this, emit,
        [&](size_t cand, const rule::Rule& r, const rule::BindingFrame& frame) {
          TimePoint deadline = internal::ObligationDeadline(
              r, internal::SiteSymOf(e), e.time, options_.outages, sites_);
          if (options_.skip_obligations_past_horizon &&
              trace_.horizon < deadline) {
            return;  // not yet due when the run ended
          }
          auto fired = [&](int step) { return fired_.Find(e.id, r.id, step); };
          internal::CheckObligation(tables_, r, cand, e.id, e.time, frame,
                                    deadline, fired, *this, &scratch_, sink,
                                    emit);
        });
  }

  // Property 7: related rules preserve trigger order in firing order.
  void CheckInOrderProcessing(Sink* sink) {
    uint64_t ord = 0;
    auto emit = [sink, &ord](int property, std::vector<int64_t> ids,
                             std::string message) {
      sink->Add(ord++, property, std::move(ids), std::move(message));
    };
    // Group generated events by (trigger site, event site) symbols, then
    // emit channels in site-name order so the report is deterministic.
    std::unordered_map<uint64_t, std::vector<internal::ChannelPair>> groups;
    for (const auto& e : trace_.events) {
      if (e.spontaneous()) continue;
      const rule::Event* trigger = EventById(e.trigger_event_id);
      if (trigger == nullptr) continue;
      uint64_t key = (uint64_t{internal::SiteSymOf(*trigger)} << 32) |
                     internal::SiteSymOf(e);
      groups[key].push_back(
          internal::ChannelPair{trigger->time, e.time, trigger->id, e.id});
    }
    struct Channel {
      const std::string* trigger_site;
      const std::string* event_site;
      std::vector<internal::ChannelPair>* pairs;
    };
    std::vector<Channel> ordered;
    ordered.reserve(groups.size());
    for (auto& [key, pairs] : groups) {
      ordered.push_back(Channel{&Symbols().name(static_cast<uint32_t>(key >> 32)),
                                &Symbols().name(static_cast<uint32_t>(key)),
                                &pairs});
    }
    std::sort(ordered.begin(), ordered.end(),
              [](const Channel& a, const Channel& b) {
                return std::tie(*a.trigger_site, *a.event_site) <
                       std::tie(*b.trigger_site, *b.event_site);
              });
    for (Channel& ch : ordered) {
      std::vector<internal::ChannelPair>& pairs = *ch.pairs;
      // stable_sort: ties keep insertion (trace) order.
      std::stable_sort(pairs.begin(), pairs.end(),
                       internal::ChannelOrderLess());
      for (size_t i = 1; i < pairs.size(); ++i) {
        internal::CheckChannelAdjacent(*ch.trigger_site, *ch.event_site,
                                       pairs[i - 1], pairs[i], emit);
      }
    }
  }

  const Trace& trace_;
  const ValidExecutionOptions& options_;
  internal::RuleTables tables_;
  // Matching and condition-probe buffers; mutable so the const passes can
  // reuse them (the checker is single-threaded).
  mutable internal::RuleScratch scratch_;
  StateTimeline timeline_;
  std::vector<const rule::Event*> events_dense_;  // id -> event (dense ids)
  std::unordered_map<int64_t, const rule::Event*> events_by_id_;
  // Per interned item: indexes into trace_.events of its W/Ws events,
  // sorted by (time, id). Empty when use_reference_impl.
  std::vector<std::vector<uint32_t>> writes_by_item_;
  // Item base -> home site, for outage coverage (learned only with outages).
  internal::SiteOfBase sites_;
  // Generated events by (trigger, rule, step); built by CheckObligations.
  internal::FiredIndex fired_;
  ExecutionReport report_;
  size_t extra_violations_ = 0;
};

}  // namespace

ExecutionReport CheckValidExecution(const Trace& trace,
                                    const std::vector<rule::Rule>& rules,
                                    const ValidExecutionOptions& options) {
  Checker checker(trace, rules, options);
  return checker.Run();
}

}  // namespace hcm::trace
