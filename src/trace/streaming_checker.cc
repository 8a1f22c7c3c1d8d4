#include "src/trace/streaming_checker.h"

#include <algorithm>
#include <deque>
#include <limits>
#include <memory>
#include <optional>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "src/common/string_util.h"
#include "src/trace/check_window.h"
#include "src/trace/execution_rules.h"

namespace hcm::trace {

namespace {

using internal::Sink;

constexpr TimePoint kFarFuture =
    TimePoint::FromMillis(std::numeric_limits<int64_t>::max() / 4);
constexpr TimePoint kFarPast =
    TimePoint::FromMillis(std::numeric_limits<int64_t>::min() / 4);

Duration AbsDuration(Duration d) {
  return d < Duration::Zero() ? Duration::Zero() - d : d;
}

// Merge key of a windowed guarantee violation: the LHS parameter values (in
// param_vars order) then the anchor instant. Global ascending order over
// this key is exactly the unrestricted run's representative order.
struct VKey {
  std::vector<std::pair<std::string, Value>> pb;
  TimePoint anchor;
};

struct VKeyLess {
  bool operator()(const VKey& a, const VKey& b) const {
    size_t n = std::min(a.pb.size(), b.pb.size());
    for (size_t i = 0; i < n; ++i) {
      const Value& va = a.pb[i].second;
      const Value& vb = b.pb[i].second;
      if (va < vb) return true;
      if (vb < va) return false;
    }
    if (a.pb.size() != b.pb.size()) return a.pb.size() < b.pb.size();
    return a.anchor < b.anchor;
  }
};

// A FIFO of reused slots in fixed-size chunks. A pushed element is
// assigned into a slot a popped one left, so elements owning heap buffers
// (an event's strings and vectors, an obligation's binding) keep their
// capacity and steady-state pushes allocate nothing. A drained chunk is
// recycled to the back: the ring grows a chunk at a time, never copies,
// and holds at most its peak occupancy plus two chunks.
template <typename T>
class Ring {
 public:
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  T& operator[](size_t i) {
    size_t j = head_ + i;
    return chunks_[j / kChunk][j % kChunk];
  }
  const T& operator[](size_t i) const {
    size_t j = head_ + i;
    return chunks_[j / kChunk][j % kChunk];
  }
  T& front() { return (*this)[0]; }
  const T& front() const { return (*this)[0]; }

  // Appends a slot and returns it. It holds whatever element last used it:
  // the caller assigns every field.
  T& push_back() {
    if (head_ + size_ == chunks_.size() * kChunk) {
      if (spare_.empty()) spare_.push_back(std::make_unique<T[]>(kChunk));
      chunks_.push_back(std::move(spare_.back()));
      spare_.pop_back();
    }
    ++size_;
    return (*this)[size_ - 1];
  }
  void pop_front() {
    --size_;
    if (++head_ == kChunk) {
      spare_.push_back(std::move(chunks_.front()));
      chunks_.pop_front();
      head_ = 0;
    }
  }

 private:
  static constexpr size_t kChunk = 256;
  std::deque<std::unique_ptr<T[]>> chunks_;
  std::vector<std::unique_ptr<T[]>> spare_;  // drained, kept for reuse
  size_t head_ = 0;  // front()'s index in chunks_.front()
  size_t size_ = 0;
};

// One item's live segment run, retired from the front.
struct LiveRun {
  std::deque<Segment> segs;
  bool has_initial = false;  // segs.front() is the declared initial value

  // Returns true when a segment was added (a re-declaration overrides).
  bool SetInitial(const Value& value) {
    if (has_initial) {
      segs.front().value = value;
      return false;
    }
    segs.push_front(Segment{internal::kInitialSegmentStart, value});
    has_initial = true;
    return true;
  }

  void Apply(const rule::Event& e) {
    const Segment* prev = segs.empty() ? nullptr : &segs.back();
    segs.push_back(Segment{e.time, internal::OpenedValue(e, prev)});
  }

  // Drops segments superseded before `cut`, keeping the last one that
  // starts before it (with its true start) so reads at instants >= cut
  // stay exact. Returns the number dropped.
  size_t RetireBefore(TimePoint cut) {
    size_t dropped = 0;
    while (segs.size() >= 2 && segs[1].from < cut) {
      segs.pop_front();
      has_initial = false;
      ++dropped;
    }
    return dropped;
  }
};

}  // namespace

struct StreamingChecker::Impl {
  // ---- configuration ----
  std::vector<spec::Guarantee> guarantees;
  StreamingCheckOptions options;
  std::vector<SiteOutage> outages;
  Duration retention;  // max rule delta + 1ms: ring / store / pair horizon
  Duration stride;     // maintenance cadence

  // ---- feed state ----
  uint64_t seen = 0;                // == next event's trace ordinal
  bool have_prev = false;           // property-1 adjacency state
  TimePoint prev_time;
  int64_t prev_id = -1;
  TimePoint watermark = kFarPast;
  TimePoint next_maintenance = kFarPast;
  TimePoint horizon;
  bool finished = false;

  // ---- live events (dense final ids, contiguous) ----
  // events[0, absorbed) is the checked ring, the rest is pending: arrived,
  // its instant not yet complete.
  Ring<rule::Event> events;
  size_t absorbed = 0;
  int64_t ring_base = 0;    // id of events.front()
  uint64_t ring_ord = 0;    // trace ordinal of events.front()

  // ---- live item store (valid-execution state) ----
  struct ChainEntry {
    TimePoint time;
    int64_t id;
    Value written;
  };
  struct ItemState : LiveRun {
    // Same-instant write chains (property 2) for the current batch. A
    // batch never splits an instant but may span several; entries from
    // prior batches are dead (their instants are fully checked) and are
    // dropped lazily via the generation stamp.
    uint64_t chain_gen = 0;
    std::vector<ChainEntry> chain;
  };
  ItemInterner interner;
  std::vector<ItemState> items;
  uint64_t batch_gen = 0;

  // ---- rule tables (properties 4-6) ----
  internal::RuleTables tables;
  internal::RuleScratch scratch;

  // ---- obligations (property 6) ----
  struct Obligation {
    uint64_t ord = 0;  // trace ordinal of the trigger event
    size_t cand = 0;   // candidate position in the trigger's rule scan
    int64_t event_id = -1;
    TimePoint event_time;
    uint32_t event_site = kNoSymbol;
    const rule::Rule* rule = nullptr;
    // The LHS binding: each bound slot of the rule's frame with its value.
    std::vector<std::pair<uint16_t, Value>> binding;
    bool open = false;
  };
  // Indexed by creation sequence: obligations[seq - first_oblig]. Resolved
  // entries stay in place until everything before them is resolved too, so
  // front() is always the oldest open obligation.
  Ring<Obligation> obligations;
  uint64_t first_oblig = 0;
  size_t open_count = 0;
  struct Due {
    TimePoint deadline;  // as computed when (re)queued
    uint64_t seq;
  };
  struct DueLater {
    bool operator()(const Due& a, const Due& b) const {
      if (a.deadline != b.deadline) return b.deadline < a.deadline;
      return b.seq < a.seq;
    }
  };
  std::vector<Due> due;  // min-heap by (deadline, seq)
  internal::FiredIndex fired;
  size_t fired_sweep_at = 4096;
  // Learned incrementally for outage coverage; an obligation's deadline is
  // recomputed when it comes due, once the map has seen more of the trace.
  internal::SiteOfBase sites;

  // ---- property 7 ----
  struct P7Channel {
    const std::string* trigger_site;
    const std::string* event_site;
    // Sorted in channel order, ties in arrival order. Arrivals are nearly
    // sorted, so an insert walks back from the end a step or two.
    Ring<internal::ChannelPair> pairs;
    std::vector<ExecutionViolation> kept;
    size_t found = 0;
  };
  std::deque<P7Channel> channels;
  // (trigger site << 32 | event site), interned -> index into channels.
  std::unordered_map<uint64_t, uint32_t> channel_of;

  // ---- per-phase sinks, merged at Finish in offline phase order ----
  Sink sink_p1, sink_p2, sink_p45, sink_p6, sink_p7;

  // ---- results ----
  ExecutionReport report;
  size_t extra_violations = 0;
  std::map<std::string, GuaranteeCheckResult> results;
  StreamingCheckStats stats;

  // ---- guarantee collector ----
  bool collect_all = false;
  std::vector<uint8_t> guarantee_base;  // by interned item base
  ItemInterner g_interner;
  std::vector<LiveRun> g_items;
  struct GState {
    const spec::Guarantee* g;
    bool windowed = false;
    bool failed = false;  // a region run returned a structural error
    std::string anchor;
    Duration lag = Duration::Zero();
    std::vector<std::string> param_vars;
    TimePoint region_lo = kFarPast;
    size_t lhs_witnesses = 0;
    size_t violation_count = 0;
    bool truncated = false;
    GuaranteeCheckStats gstats;
    std::map<VKey, Counterexample, VKeyLess> worst;  // smallest cap keys
  };
  std::vector<GState> gstates;

  explicit Impl(std::vector<rule::Rule> rules_in,
                std::vector<spec::Guarantee> guarantees_in,
                StreamingCheckOptions options_in)
      : guarantees(std::move(guarantees_in)),
        options(std::move(options_in)),
        outages(options.valid.outages),
        tables(rules_in),
        scratch(tables),
        sink_p1(options.valid.max_violations),
        sink_p2(options.valid.max_violations),
        sink_p45(options.valid.max_violations),
        sink_p6(options.valid.max_violations),
        sink_p7(options.valid.max_violations) {
    retention = tables.max_delta() + Duration::Millis(1);
    stride = std::max(Duration::Seconds(1),
                      std::min(retention, Duration::Seconds(60)));
    SetUpGuarantees();
  }

  // ---------------------------------------------------------------- setup

  static void CollectAtomRefs(const spec::GuaranteeAtom& a,
                              std::vector<rule::ItemRef>* refs) {
    if (a.pred != nullptr) a.pred->Collect(refs, nullptr);
    if (a.exists_item.has_value()) refs->push_back(*a.exists_item);
  }

  void SetUpGuarantees() {
    gstates.reserve(guarantees.size());
    for (const auto& g : guarantees) {
      std::vector<rule::ItemRef> refs;
      for (const auto& a : g.lhs_atoms) CollectAtomRefs(a, &refs);
      for (const auto& a : g.rhs_atoms) CollectAtomRefs(a, &refs);
      if (refs.empty()) {
        // A guarantee with no item references samples over *all* items.
        collect_all = true;
      }
      for (const auto& ref : refs) {
        uint32_t sym = Symbols().Intern(ref.base);
        if (sym >= guarantee_base.size()) guarantee_base.resize(sym + 1, 0);
        guarantee_base[sym] = 1;
      }
      GState gs;
      gs.g = &g;
      ClassifyWindowed(&gs);
      gstates.push_back(std::move(gs));
    }
  }

  // A guarantee is windowable when all its probes stay within a bounded lag
  // of one anchor time variable: single non-negated kAt LHS atom anchored
  // at a variable, every RHS atom time anchored at that same variable (no
  // negated existence — an open-parameter `not E` can flip for items born
  // after the window closes), and every time constraint comparing only the
  // anchor and absolute instants. `lag` collects the settle margin plus
  // every offset plus slack for the sample-point epsilons.
  void ClassifyWindowed(GState* gs) {
    const spec::Guarantee& g = *gs->g;
    if (g.lhs_atoms.size() != 1 || g.rhs_atoms.empty()) return;
    const spec::GuaranteeAtom& a = g.lhs_atoms[0];
    if (a.mode != spec::AtomMode::kAt || a.negated_exists) return;
    if (a.at.var.empty()) return;
    const std::string& anchor = a.at.var;
    Duration total = options.guarantee.settle_margin + AbsDuration(a.at.offset) +
                     Duration::Millis(20);
    auto absorb = [&](const spec::TimeExpr& te) {
      if (te.var != anchor) return false;
      total = total + AbsDuration(te.offset);
      return true;
    };
    for (const auto& ra : g.rhs_atoms) {
      if (ra.negated_exists) return;
      if (ra.mode == spec::AtomMode::kAt) {
        if (!absorb(ra.at)) return;
      } else {
        if (!absorb(ra.lo) || !absorb(ra.hi)) return;
      }
    }
    auto constraint_ok = [&](const spec::TimeConstraint& c) {
      for (const spec::TimeExpr* te : {&c.lhs, &c.rhs}) {
        if (te->var.empty()) continue;  // absolute bound: pure anchor filter
        if (te->var != anchor) return false;
        total = total + AbsDuration(te->offset);
      }
      return true;
    };
    for (const auto& c : g.lhs_time) {
      if (!constraint_ok(c)) return;
    }
    for (const auto& c : g.rhs_time) {
      if (!constraint_ok(c)) return;
    }
    gs->windowed = true;
    gs->anchor = anchor;
    gs->lag = total;
    std::vector<rule::ItemRef> lhs_refs;
    CollectAtomRefs(a, &lhs_refs);
    for (const auto& ref : lhs_refs) {
      for (const auto& term : ref.args) {
        if (!term.is_variable()) continue;
        const std::string& v = term.var_name();
        if (std::find(gs->param_vars.begin(), gs->param_vars.end(), v) ==
            gs->param_vars.end()) {
          gs->param_vars.push_back(v);
        }
      }
    }
  }

  // ------------------------------------------------------------ live store

  void ApplyInitial(const rule::ItemId& item, const Value& value) {
    uint32_t id = interner.Intern(item);
    if (id >= items.size()) items.resize(id + 1);
    if (items[id].SetInitial(value)) ++stats.segments_live;
    if (CollectsBase(Symbols().Intern(item.base))) {
      uint32_t gid = g_interner.Intern(item);
      if (gid >= g_items.size()) g_items.resize(gid + 1);
      if (g_items[gid].SetInitial(value)) ++stats.guarantee_segments_live;
    }
  }

  bool CollectsBase(uint32_t base_sym) const {
    return collect_all ||
           (base_sym < guarantee_base.size() && guarantee_base[base_sym] != 0);
  }

  // State readers for the shared rules, over the live store (exact within
  // one rule window of the watermark). Items never seen read as Null.
  const std::deque<Segment>* RunOf(const rule::ItemId& item) const {
    uint32_t id = interner.Find(item);
    return id < items.size() ? &items[id].segs : nullptr;
  }

  rule::DataReader ReaderAt(TimePoint t) const {
    return [this, t](const rule::ItemId& item) -> Result<Value> {
      const auto* run = RunOf(item);
      const Segment* seg = run ? internal::SegmentAt(*run, t) : nullptr;
      return seg && seg->value.has_value() ? *seg->value : Value::Null();
    };
  }

  rule::DataReader ReaderBefore(TimePoint t) const {
    return [this, t](const rule::ItemId& item) -> Result<Value> {
      const auto* run = RunOf(item);
      const Segment* seg = run ? internal::SegmentBefore(*run, t) : nullptr;
      return seg && seg->value.has_value() ? *seg->value : Value::Null();
    };
  }

  template <typename F>
  void WithSegments(const rule::ItemId& item, F&& f) const {
    if (const auto* run = RunOf(item)) f(*run);
  }

  const rule::Event* EventInRing(int64_t id) const {
    if (id < ring_base ||
        id >= ring_base + static_cast<int64_t>(absorbed)) {
      return nullptr;
    }
    return &events[static_cast<size_t>(id - ring_base)];
  }

  // --------------------------------------------------------- live reporting

  void Report(Sink* sink, uint64_t ord, std::optional<uint64_t> seq,
              int property, std::vector<int64_t> ids, std::string message) {
    ++stats.live_violations;
    if (options.on_violation) {
      options.on_violation(ExecutionViolation{property, ids, message});
    }
    if (seq.has_value()) {
      sink->AddSeq(ord, *seq, property, std::move(ids), std::move(message));
    } else {
      sink->Add(ord, property, std::move(ids), std::move(message));
    }
  }

  // Emitters for the shared rules: properties 1-5 in call order, and
  // property 6 with its explicit (candidate, step) sequence.
  auto EmitAt(Sink* sink, uint64_t ord) {
    return [this, sink, ord](int property, std::vector<int64_t> ids,
                             std::string message) {
      Report(sink, ord, std::nullopt, property, std::move(ids),
             std::move(message));
    };
  }

  auto EmitObligation(uint64_t ord) {
    return [this, ord](uint64_t seq, std::vector<int64_t> ids,
                       std::string message) {
      Report(&sink_p6, ord, seq, 6, std::move(ids), std::move(message));
    };
  }

  // ------------------------------------------------------- event processing

  // Absorbs every pending event with time < `bound` into the live state
  // (pass A), then checks each (pass B). Two passes so same-instant state
  // — which the offline checker reads from the full timeline — is complete
  // before any check of that instant runs.
  void ProcessBatch(TimePoint bound) {
    size_t batch_start = absorbed;
    ++batch_gen;
    for (; absorbed < events.size() && events[absorbed].time < bound;
         ++absorbed) {
      rule::Event& e = events[absorbed];
      // Pass A, step 1: property 1 against the previous absorbed event.
      if (have_prev) {
        internal::CheckTimeOrder(prev_time, prev_id, e,
                                 EmitAt(&sink_p1, ring_ord + absorbed));
      }
      have_prev = true;
      prev_time = e.time;
      prev_id = e.id;
      e.site_sym = internal::SiteSymOf(e);
      e.base_sym = internal::BaseSymOf(e);
      sites.Learn(e);
      // State change + same-instant write chain.
      const bool changes_state = internal::ChangesState(e.kind);
      if (changes_state) {
        uint32_t id = interner.Intern(e.item);
        if (id >= items.size()) items.resize(id + 1);
        e.item_iid = id;
        ItemState& st = items[id];
        st.Apply(e);
        ++stats.segments_live;
        if (e.kind == rule::EventKind::kWriteSpont ||
            e.kind == rule::EventKind::kWrite) {
          ++report.stats.write_events_indexed;
          if (st.chain_gen != batch_gen) {
            st.chain.clear();
            st.chain_gen = batch_gen;
          }
          st.chain.push_back(ChainEntry{e.time, e.id, e.written_value()});
        }
      } else {
        e.item_iid = ItemInterner::kNoId;
      }
      // Guarantee collector.
      if (changes_state && CollectsBase(e.base_sym)) {
        uint32_t gid = g_interner.Intern(e.item);
        if (gid >= g_items.size()) g_items.resize(gid + 1);
        g_items[gid].Apply(e);
        ++stats.guarantee_segments_live;
      }
      // Fired-step index (last write wins, like the offline map build).
      if (!e.spontaneous()) {
        fired.Put(e.trigger_event_id, e.rule_id, e.rhs_step,
                  internal::FiredStep{e.time, e.id});
      }
      ++seen;
    }
    stats.events_seen = seen;
    // Pass B: the instants in [batch_start, absorbed) are complete — check
    // them.
    for (size_t k = batch_start; k < absorbed; ++k) {
      CheckEvent(events[k], ring_ord + k);
    }
    TrackPeaks();
  }

  void CheckEvent(const rule::Event& e, uint64_t ord) {
    if (e.kind == rule::EventKind::kWriteSpont) CheckWsOldValue(e, ord);
    internal::CheckProvenance(tables, e, EventInRing(e.trigger_event_id),
                              *this, &scratch, EmitAt(&sink_p45, ord));
    OpenObligations(e, ord);
    if (!e.spontaneous()) RecordP7Pair(e);
  }

  // Properties 2+3, with the same-instant chain read from the item's
  // current-batch write chain.
  void CheckWsOldValue(const rule::Event& e, uint64_t ord) {
    const ItemState& st = items[e.item_iid];
    const Segment* seg = internal::SegmentBefore(st.segs, e.time);
    std::optional<Value> before;
    if (seg != nullptr) before = seg->value;
    auto chain_matches = [&] {
      ++sink_p2.chain_lookups;
      if (st.chain_gen != batch_gen) return false;
      for (const ChainEntry& c : st.chain) {
        if (c.time != e.time) continue;
        ++sink_p2.chain_events_scanned;
        if (c.id < e.id && c.written == e.old_value()) return true;
      }
      return false;
    };
    internal::CheckWsOldValue(e, before, chain_matches, EmitAt(&sink_p2, ord));
  }

  // Property 6, creation side: the shared candidate scan, but instead of
  // walking steps immediately (the full trace is not here yet), real
  // obligations open until the watermark passes their deadline.
  void OpenObligations(const rule::Event& e, uint64_t ord) {
    internal::ScanObligations(
        tables, e, /*all_rules=*/false, &scratch, &sink_p6, *this,
        EmitObligation(ord),
        [&](size_t cand, const rule::Rule& r, const rule::BindingFrame& lhs) {
          uint64_t seq = first_oblig + obligations.size();
          Obligation& ob = obligations.push_back();
          ob.ord = ord;
          ob.cand = cand;
          ob.event_id = e.id;
          ob.event_time = e.time;
          ob.event_site = e.site_sym;
          ob.rule = &r;
          ob.binding.clear();
          for (uint16_t slot : lhs.bound_slots()) {
            ob.binding.emplace_back(slot, lhs.Get(slot));
          }
          ob.open = true;
          ++open_count;
          due.push_back(Due{Deadline(ob), seq});
          std::push_heap(due.begin(), due.end(), DueLater());
        });
  }

  TimePoint Deadline(const Obligation& ob) const {
    return internal::ObligationDeadline(*ob.rule, ob.event_site,
                                        ob.event_time, outages, sites);
  }

  // Pops the earliest-due obligation off the heap.
  Obligation& PopDue() {
    std::pop_heap(due.begin(), due.end(), DueLater());
    uint64_t seq = due.back().seq;
    due.pop_back();
    return obligations[static_cast<size_t>(seq - first_oblig)];
  }

  // Marks `ob` resolved and drops the resolved prefix of the store.
  void Close(Obligation& ob) {
    ob.open = false;
    --open_count;
    while (!obligations.empty() && !obligations.front().open) {
      obligations.pop_front();
      ++first_oblig;
    }
  }

  // Property 6, resolution side, once the watermark proves all in-window
  // fires arrived.
  void ResolveObligation(const Obligation& ob, TimePoint deadline) {
    const rule::Rule& r = *ob.rule;
    auto fired_step = [&](int step) {
      return fired.Find(ob.event_id, r.id, step);
    };
    scratch.frame.Clear();
    for (const auto& [slot, value] : ob.binding) scratch.frame.Set(slot, value);
    internal::CheckObligation(tables, r, ob.cand, ob.event_id, ob.event_time,
                              scratch.frame, deadline, fired_step, *this,
                              &scratch, &sink_p6, EmitObligation(ob.ord));
    ++stats.obligations_resolved;
  }

  // Resolves every obligation whose deadline the watermark has passed. The
  // deadline is recomputed on pop: the site map may have learned more bases
  // since creation, which can move an outage extension either way; an
  // obligation whose recomputed deadline is not yet past is re-queued.
  void ResolveDueObligations(TimePoint w) {
    while (!due.empty() && due.front().deadline < w) {
      uint64_t seq = due.front().seq;
      Obligation& ob = PopDue();
      TimePoint deadline = Deadline(ob);
      if (deadline >= w) {
        due.push_back(Due{deadline, seq});
        std::push_heap(due.begin(), due.end(), DueLater());
        continue;
      }
      ResolveObligation(ob, deadline);
      Close(ob);
    }
  }

  // ------------------------------------------------------------- property 7

  void RecordP7Pair(const rule::Event& e) {
    const rule::Event* trig = EventInRing(e.trigger_event_id);
    if (trig == nullptr) return;
    uint64_t key = (uint64_t{trig->site_sym} << 32) | e.site_sym;
    auto [it, added] =
        channel_of.try_emplace(key, static_cast<uint32_t>(channels.size()));
    if (added) {
      channels.push_back(P7Channel{&Symbols().name(trig->site_sym),
                                   &Symbols().name(e.site_sym), {}, {}, 0});
    }
    Ring<internal::ChannelPair>& pairs = channels[it->second].pairs;
    pairs.push_back() =
        internal::ChannelPair{trig->time, e.time, trig->id, e.id};
    // Walk the new pair back past every pair it sorts strictly before;
    // equal pairs keep arrival order.
    internal::ChannelOrderLess less;
    for (size_t i = pairs.size() - 1; i > 0 && less(pairs[i], pairs[i - 1]);
         --i) {
      std::swap(pairs[i], pairs[i - 1]);
    }
    ++stats.pairs_live;
  }

  void CheckP7Adjacent(P7Channel* ch, const internal::ChannelPair& prev,
                       const internal::ChannelPair& cur) {
    internal::CheckChannelAdjacent(
        *ch->trigger_site, *ch->event_site, prev, cur,
        [&](int property, std::vector<int64_t> ids, std::string message) {
          ExecutionViolation v{property, std::move(ids), std::move(message)};
          ++ch->found;
          ++stats.live_violations;
          if (options.on_violation) options.on_violation(v);
          if (ch->kept.size() < options.valid.max_violations) {
            ch->kept.push_back(std::move(v));
          }
        });
  }

  // Drops each channel's sorted prefix once no future pair (whose trigger
  // is at most one rule window back from the watermark) can sort into it.
  // An adjacency is final — and checked — exactly when its left pair
  // retires with its right neighbour already below the bound.
  void RetireP7(TimePoint bound) {
    for (P7Channel& ch : channels) {
      while (ch.pairs.size() >= 2 && ch.pairs[1].trigger_time < bound) {
        CheckP7Adjacent(&ch, ch.pairs[0], ch.pairs[1]);
        ch.pairs.pop_front();
        --stats.pairs_live;
        ++stats.pairs_retired;
      }
    }
  }

  // --------------------------------------------------------- state retiring

  void RetireValidState(TimePoint w) {
    TimePoint floor =
        open_count == 0 ? kFarFuture : obligations.front().event_time;
    TimePoint cut = std::min(w - retention, floor);
    // Event ring: property 5/7 trigger lookups reach at most `retention`
    // back from any future event's time (>= w).
    while (absorbed > 0 && events.front().time < cut) {
      events.pop_front();
      --absorbed;
      ++ring_base;
      ++ring_ord;
      ++stats.events_retired;
    }
    // Item segments: keep the last segment starting before the cut (with
    // its true start) so reads at instants >= cut stay exact.
    for (ItemState& st : items) {
      size_t dropped = st.RetireBefore(cut);
      stats.segments_live -= dropped;
      stats.segments_retired += dropped;
    }
    // Fired-step index: any still-relevant fire belongs to an open
    // obligation, and fires at or after their trigger's time >= floor.
    if (fired.size() > fired_sweep_at) {
      fired.EraseBefore(cut);
      fired_sweep_at = std::max<size_t>(4096, fired.size() * 2);
    }
    RetireP7(w - retention);
  }

  void RetireGuaranteeState() {
    TimePoint cut = kFarFuture;
    for (const GState& gs : gstates) {
      if (!gs.windowed || gs.failed) return;  // full replay needed at Finish
      cut = std::min(cut, gs.region_lo - gs.lag);
    }
    if (gstates.empty() || cut <= kFarPast) return;
    for (LiveRun& gi : g_items) {
      size_t dropped = gi.RetireBefore(cut);
      stats.guarantee_segments_live -= dropped;
      stats.guarantee_segments_retired += dropped;
    }
  }

  // ------------------------------------------------------ guarantee windows

  StateTimeline SnapshotGuaranteeStore() const {
    std::vector<std::vector<Segment>> per(g_items.size());
    for (size_t i = 0; i < g_items.size(); ++i) {
      per[i].assign(g_items[i].segs.begin(), g_items[i].segs.end());
    }
    return StateTimeline::FromParts(g_interner, std::move(per));
  }

  void RunRegion(GState* gs, const StateTimeline& snap, TimePoint lo,
                 std::optional<TimePoint> hi, TimePoint region_horizon) {
    GuaranteeCheckOptions opts = options.guarantee;
    opts.use_reference_impl = false;
    GuaranteeWindow win;
    win.anchor_var = gs->anchor;
    win.param_vars = gs->param_vars;
    win.has_lo = true;
    win.lo = lo;
    if (hi.has_value()) {
      win.has_hi = true;
      win.hi = *hi;
    }
    std::vector<WindowedViolation> violated;
    auto r = CheckGuaranteeOverTimeline(snap, region_horizon, *gs->g, opts,
                                        &win, &violated);
    if (!r.ok()) {
      gs->failed = true;
      return;
    }
    ++stats.guarantee_windows_evaluated;
    gs->lhs_witnesses += r->lhs_witnesses;
    gs->violation_count += r->violations;
    gs->truncated = gs->truncated || r->truncated;
    gs->gstats.sample_cache_hits += r->stats.sample_cache_hits;
    gs->gstats.sample_cache_misses += r->stats.sample_cache_misses;
    gs->gstats.match_cache_hits += r->stats.match_cache_hits;
    gs->gstats.match_cache_misses += r->stats.match_cache_misses;
    gs->gstats.atom_evals += r->stats.atom_evals;
    for (auto& v : violated) {
      if (options.on_guarantee_violation) {
        options.on_guarantee_violation(gs->g->name, v.ce);
      }
      gs->worst.emplace(VKey{std::move(v.param_binding), v.anchor},
                        std::move(v.ce));
      while (gs->worst.size() > options.guarantee.max_counterexamples) {
        gs->worst.erase(std::prev(gs->worst.end()));
      }
    }
  }

  void EvaluateGuaranteeWindows(TimePoint w) {
    if (g_interner.empty()) return;
    // An anchor window [lo, B) is closed once the watermark AND every
    // collected item's last change are at least `lag` past B: beyond that
    // no probe, sample point or settle filter of an anchor below B can be
    // affected by future events.
    TimePoint min_last_change = kFarFuture;
    for (const LiveRun& gi : g_items) {
      if (!gi.segs.empty()) {
        min_last_change = std::min(min_last_change, gi.segs.back().from);
      }
    }
    struct Eval {
      GState* gs;
      TimePoint b;
    };
    std::vector<Eval> evals;
    for (GState& gs : gstates) {
      if (!gs.windowed || gs.failed) continue;
      TimePoint cap = std::min(w, min_last_change);
      if (cap <= TimePoint::Origin() + gs.lag) continue;
      TimePoint b = cap - gs.lag;
      TimePoint effective_lo =
          std::max(gs.region_lo, internal::kInitialSegmentStart);
      Duration chunk = std::max(gs.lag * 2, Duration::Seconds(10));
      if (b <= effective_lo || b - effective_lo < chunk) continue;
      evals.push_back({&gs, b});
    }
    if (evals.empty()) return;
    StateTimeline snap = SnapshotGuaranteeStore();
    for (Eval& ev : evals) {
      RunRegion(ev.gs, snap, ev.gs->region_lo, ev.b, w);
      if (!ev.gs->failed) ev.gs->region_lo = ev.b;
    }
    RetireGuaranteeState();
  }

  // ------------------------------------------------------------ maintenance

  void TrackPeaks() {
    stats.events_live = events.size();
    stats.obligations_open = open_count;
    stats.fired_index_live = fired.size();
    stats.events_live_peak = std::max(stats.events_live_peak, stats.events_live);
    stats.segments_live_peak =
        std::max(stats.segments_live_peak, stats.segments_live);
    stats.obligations_open_peak =
        std::max(stats.obligations_open_peak, stats.obligations_open);
    stats.pairs_live_peak = std::max(stats.pairs_live_peak, stats.pairs_live);
    stats.fired_index_peak =
        std::max(stats.fired_index_peak, stats.fired_index_live);
    stats.guarantee_segments_live_peak = std::max(
        stats.guarantee_segments_live_peak, stats.guarantee_segments_live);
    stats.live_footprint_peak =
        std::max(stats.live_footprint_peak, stats.LiveFootprint());
  }

  void OnWatermark(TimePoint w) {
    if (w <= watermark && watermark != kFarPast) return;
    watermark = w;
    ProcessBatch(w);
    if (w >= next_maintenance) {
      ResolveDueObligations(w);
      RetireValidState(w);
      EvaluateGuaranteeWindows(w);
      TrackPeaks();
      next_maintenance = w + stride;
    }
  }

  // ----------------------------------------------------------------- finish

  void Finish(TimePoint h) {
    horizon = h;
    ProcessBatch(kFarFuture);
    // Resolve or drop every remaining obligation against the final horizon
    // (same skip rule the offline checker applies per obligation).
    while (!due.empty()) {
      Obligation& ob = PopDue();
      TimePoint deadline = Deadline(ob);
      if (!(options.valid.skip_obligations_past_horizon &&
            horizon < deadline)) {
        ResolveObligation(ob, deadline);
      }
      Close(ob);
    }
    RetireP7(kFarFuture);
    // Emit property-7 violations channel-major in (trigger site, event
    // site) name order, like the offline pass.
    std::vector<P7Channel*> ordered;
    ordered.reserve(channels.size());
    for (P7Channel& ch : channels) ordered.push_back(&ch);
    std::sort(ordered.begin(), ordered.end(),
              [](const P7Channel* a, const P7Channel* b) {
                return std::tie(*a->trigger_site, *a->event_site) <
                       std::tie(*b->trigger_site, *b->event_site);
              });
    uint64_t ord = 0;
    for (P7Channel* chp : ordered) {
      P7Channel& ch = *chp;
      size_t materialized = ch.kept.size();
      for (ExecutionViolation& v : ch.kept) {
        sink_p7.Add(ord++, 7, std::move(v.event_ids), std::move(v.message));
      }
      sink_p7.AddCountOnly(ch.found - materialized);
    }
    // Assemble the report through the shared merge, in offline phase order.
    report.events_checked = seen;
    for (Sink* phase : {&sink_p1, &sink_p2, &sink_p45, &sink_p6, &sink_p7}) {
      internal::MergePhaseInto(std::move(*phase),
                               options.valid.max_violations, &report,
                               &extra_violations);
    }
    report.valid = report.violations.empty() && extra_violations == 0;
    report.stats.items_indexed = interner.size();
    FinishGuarantees();
    TrackPeaks();
    finished = true;
    // Nothing reads the live stores once the reports exist. Free them: the
    // rings keep their peak chunks (and every slot's buffers) for reuse,
    // which a finished checker no longer needs. (Assigning `{}` would keep a
    // vector's capacity.)
    events = decltype(events)();
    obligations = decltype(obligations)();
    due = decltype(due)();
    fired = decltype(fired)();
    channels = decltype(channels)();
    channel_of = decltype(channel_of)();
    items = decltype(items)();
    interner = decltype(interner)();
    g_items = decltype(g_items)();
    g_interner = decltype(g_interner)();
  }

  void FinishGuarantees() {
    if (gstates.empty()) return;
    StateTimeline snap = SnapshotGuaranteeStore();
    for (GState& gs : gstates) {
      if (gs.windowed && !gs.failed) {
        RunRegion(&gs, snap, gs.region_lo, std::nullopt, horizon);
      }
      if (gs.windowed && !gs.failed) {
        GuaranteeCheckResult out;
        out.holds = gs.violation_count == 0;
        out.truncated = gs.truncated;
        out.lhs_witnesses = gs.lhs_witnesses;
        out.violations = gs.violation_count;
        out.counterexamples.reserve(gs.worst.size());
        for (auto& [k, ce] : gs.worst) {
          (void)k;
          out.counterexamples.push_back(std::move(ce));
        }
        out.stats = gs.gstats;
        out.stats.items = g_interner.size();
        results[gs.g->name] = std::move(out);
        continue;
      }
      // Non-windowable (or structurally failed) guarantee: its items'
      // history was never retired, so one full-range run at the horizon is
      // byte-identical to the offline checker. Structural errors leave no
      // entry — callers validate guarantee specs offline.
      GuaranteeCheckOptions opts = options.guarantee;
      opts.use_reference_impl = false;
      auto r = CheckGuaranteeOverTimeline(snap, horizon, *gs.g, opts, nullptr,
                                          nullptr);
      if (r.ok()) results[gs.g->name] = std::move(*r);
    }
  }

  std::string DescribeCheckStats() const {
    return StrFormat(
        "streaming check stats:\n"
        "  events seen %zu, live %zu (peak %zu, retired %zu)\n"
        "  segments live %zu (peak %zu, retired %zu)\n"
        "  obligations open %zu (peak %zu, resolved %zu)\n"
        "  pairs live %zu (peak %zu, retired %zu), fired index %zu (peak "
        "%zu)\n"
        "  guarantee segments live %zu (peak %zu, retired %zu), windows "
        "evaluated %zu\n"
        "  live footprint %zu (peak %zu), live violations %zu\n",
        stats.events_seen, stats.events_live, stats.events_live_peak,
        stats.events_retired, stats.segments_live, stats.segments_live_peak,
        stats.segments_retired, stats.obligations_open,
        stats.obligations_open_peak, stats.obligations_resolved,
        stats.pairs_live, stats.pairs_live_peak, stats.pairs_retired,
        stats.fired_index_live, stats.fired_index_peak,
        stats.guarantee_segments_live, stats.guarantee_segments_live_peak,
        stats.guarantee_segments_retired, stats.guarantee_windows_evaluated,
        stats.LiveFootprint(), stats.live_footprint_peak,
        stats.live_violations);
  }
};

StreamingChecker::StreamingChecker(std::vector<rule::Rule> rules,
                                   std::vector<spec::Guarantee> guarantees,
                                   StreamingCheckOptions options)
    : impl_(std::make_unique<Impl>(std::move(rules), std::move(guarantees),
                                   std::move(options))) {}

StreamingChecker::~StreamingChecker() = default;

void StreamingChecker::NoteOutage(const SiteOutage& outage) {
  impl_->outages.push_back(outage);
}

void StreamingChecker::OnInitialValue(const rule::ItemId& item,
                                      const Value& value) {
  impl_->ApplyInitial(item, value);
}

void StreamingChecker::OnEvent(const rule::Event& event) {
  impl_->events.push_back() = event;
}

void StreamingChecker::OnWatermark(TimePoint watermark) {
  impl_->OnWatermark(watermark);
}

void StreamingChecker::OnFinish(TimePoint horizon) {
  if (finished_) return;
  impl_->Finish(horizon);
  finished_ = true;
}

const ExecutionReport& StreamingChecker::execution_report() const {
  return impl_->report;
}

const std::map<std::string, GuaranteeCheckResult>&
StreamingChecker::guarantee_results() const {
  return impl_->results;
}

const StreamingCheckStats& StreamingChecker::stats() const {
  return impl_->stats;
}

Duration StreamingChecker::retention() const { return impl_->retention; }

std::string StreamingChecker::DescribeCheckStats() const {
  return impl_->DescribeCheckStats();
}

}  // namespace hcm::trace
