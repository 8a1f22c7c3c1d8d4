#include "src/trace/sharded_recorder.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <utility>

#include "src/common/symbols.h"

namespace hcm::trace {

namespace {

// Base site of an endpoint / event site ("B#tr" -> "B"). Mirrors
// sim::BaseSiteOf; duplicated so the trace layer stays independent of sim.
std::string BaseSite(const std::string& site) {
  auto pos = site.find('#');
  return pos == std::string::npos ? site : site.substr(0, pos);
}

// Provisional ids pack (shard index + 1, local index); the +1 keeps every
// provisional id disjoint from the dense final ids a prior Finish may have
// put into still-live messages, and well away from -1 (= no trigger).
constexpr int kShardShift = 40;
constexpr int64_t kLocalMask = (int64_t{1} << kShardShift) - 1;

int64_t ProvisionalId(uint32_t shard_index, size_t local_index) {
  return (static_cast<int64_t>(shard_index) + 1) << kShardShift |
         static_cast<int64_t>(local_index);
}

}  // namespace

void ShardedTraceRecorder::SetInitialValue(const rule::ItemId& item,
                                           Value value) {
  if (sink_ != nullptr) sink_->OnInitialValue(item, value);
  initial_values_[item] = std::move(value);
}

void ShardedTraceRecorder::DeclareSite(const std::string& site) {
  Shard* shard = ShardFor(BaseSite(site));
  uint32_t sym = Symbols().Intern(site);
  if (sym >= shard_by_sym_.size()) shard_by_sym_.resize(sym + 1, nullptr);
  shard_by_sym_[sym] = shard;
}

void ShardedTraceRecorder::AttachSink(TraceSink* sink, bool drain) {
  sink_ = sink;
  drain_ = drain;
  if (sink_ != nullptr) {
    for (const auto& [item, value] : initial_values_) {
      sink_->OnInitialValue(item, value);
    }
  }
}

ShardedTraceRecorder::Shard* ShardedTraceRecorder::ShardFor(
    const std::string& base_site) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = shards_.find(base_site);
  if (it == shards_.end()) {
    auto shard = std::make_unique<Shard>();
    shard->index = static_cast<uint32_t>(shards_.size());
    it = shards_.emplace(base_site, std::move(shard)).first;
  }
  return it->second.get();
}

int64_t ShardedTraceRecorder::Record(rule::Event event) {
  Shard* shard = event.site_sym < shard_by_sym_.size()
                     ? shard_by_sym_[event.site_sym]
                     : nullptr;
  if (shard == nullptr) {
    // Undeclared site or unstamped event: the locked by-name path. The
    // stamp lets delivery rank the site without a string compare.
    event.site_sym = Symbols().Intern(event.site);
    shard = ShardFor(BaseSite(event.site));
  }
  assert(Symbols().name(event.site_sym) == event.site);
  // Single writer per shard: only the site's lane (or the main thread
  // between windows) records events stamped with this site, so the append
  // itself needs no lock. Local indices keep counting across flushes so
  // provisional ids stay unique for the whole run.
  event.id = ProvisionalId(shard->index, shard->recorded);
  ++shard->recorded;
  int64_t id = event.id;
  // A shard usually holds one superstep's events and trades buffers with
  // the detached batch (see Detach), so both stay small; start modestly.
  if (shard->events.capacity() == shard->events.size()) {
    shard->events.reserve(std::max<size_t>(64, shard->events.capacity() * 2));
  }
  shard->events.push_back(std::move(event));
  return id;
}

void ShardedTraceRecorder::Detach(TimePoint watermark) {
  const auto ready = [watermark](const rule::Event& e) {
    return e.time < watermark;
  };
  size_t part = 0;
  for (auto& [site, shard] : shards_) {
    if (part == detached_.size()) detached_.emplace_back();
    std::vector<rule::Event>& out = detached_[part++];
    assert(out.empty());  // emptied by the previous EmitDetached
    auto& pending = shard->events;
    // Usually every pending event is ready: trade buffers instead of
    // moving events (the shard gets back an emptied one from an earlier
    // batch, capacity intact).
    if (std::all_of(pending.begin(), pending.end(), ready)) {
      out.swap(pending);
      continue;
    }
    // Stable in-place compaction: ready events leave in append order (the
    // merge's tie-break key), the rest close ranks behind them.
    size_t kept = 0;
    for (size_t i = 0; i < pending.size(); ++i) {
      if (ready(pending[i])) {
        out.push_back(std::move(pending[i]));
      } else {
        if (kept != i) pending[kept] = std::move(pending[i]);
        ++kept;
      }
    }
    pending.erase(pending.begin() + static_cast<ptrdiff_t>(kept),
                  pending.end());
  }
}

uint32_t ShardedTraceRecorder::SiteRank(uint32_t site_sym) {
  if (site_sym < rank_by_sym_.size() && rank_by_sym_[site_sym] != kNoSymbol) {
    return rank_by_sym_[site_sym];
  }
  // A site not seen before (rare: once per site per run): insert it in
  // name order and renumber every rank.
  const std::string& name = Symbols().name(site_sym);
  auto pos = std::lower_bound(
      ranked_syms_.begin(), ranked_syms_.end(), name,
      [](uint32_t sym, const std::string& n) { return Symbols().name(sym) < n; });
  ranked_syms_.insert(pos, site_sym);
  if (site_sym >= rank_by_sym_.size()) {
    rank_by_sym_.resize(site_sym + 1, kNoSymbol);
  }
  for (size_t r = 0; r < ranked_syms_.size(); ++r) {
    rank_by_sym_[ranked_syms_[r]] = static_cast<uint32_t>(r);
  }
  return rank_by_sym_[site_sym];
}

int64_t ShardedTraceRecorder::FinalIdOf(int64_t provisional) const {
  // Anything below the first shard's range is not a provisional id (-1, or
  // a final id a prior Finish put into a still-live message).
  if (provisional < (int64_t{1} << kShardShift)) return -1;
  size_t shard = static_cast<size_t>(provisional >> kShardShift) - 1;
  if (shard >= final_ids_.size()) return -1;
  const FinalIds& table = final_ids_[shard];
  size_t local = static_cast<size_t>(provisional & kLocalMask);
  if (local < table.base + table.head) return -1;
  local -= table.base;
  return local < table.ids.size() ? table.ids[local] : -1;
}

void ShardedTraceRecorder::EmitDetached() {
  // Same order as the offline merge: (time, site) with the detach order as
  // the tie-break, i.e. a stable sort — on integer keys instead of moving
  // events and comparing site strings. The strict watermark guarantees an
  // equal-time group is never split across batches, so concatenated
  // per-flush sorts equal one global stable sort.
  order_.clear();
  for (std::vector<rule::Event>& part : detached_) {
    for (rule::Event& event : part) {
      order_.push_back(SortKey{event.time, SiteRank(event.site_sym),
                               static_cast<uint32_t>(order_.size()), &event});
    }
  }
  if (order_.empty()) return;
  std::sort(order_.begin(), order_.end(),
            [](const SortKey& a, const SortKey& b) {
              if (a.time != b.time) return a.time < b.time;
              if (a.site_rank != b.site_rank) return a.site_rank < b.site_rank;
              return a.seq < b.seq;
            });
  if (drain_) batch_marks_.emplace_back(order_.front().time, next_final_id_);
  // Two passes: a same-instant fire can sort *before* its trigger (site
  // order), so all final ids must exist before any trigger is remapped.
  for (const SortKey& key : order_) {
    rule::Event& event = *key.event;
    size_t shard = static_cast<size_t>(event.id >> kShardShift) - 1;
    if (shard >= final_ids_.size()) final_ids_.resize(shard + 1);
    FinalIds& table = final_ids_[shard];
    size_t local = static_cast<size_t>(event.id & kLocalMask) - table.base;
    if (local >= table.ids.size()) table.ids.resize(local + 1, -1);
    table.ids[local] = next_final_id_;
    event.id = next_final_id_++;
  }
  for (const SortKey& key : order_) {
    rule::Event& event = *key.event;
    if (event.trigger_event_id < 0) continue;
    // A trigger recorded before a previous Finish is no longer in the
    // log; leave the stale reference alone rather than inventing one.
    int64_t final_id = FinalIdOf(event.trigger_event_id);
    if (final_id >= 0) event.trigger_event_id = final_id;
  }
  // Grow the archive once per batch instead of reallocating inside the
  // move loop, doubling as push_back would (the same capacities, so the
  // same peak memory).
  size_t need = emitted_.size() + order_.size();
  if (!drain_ && need > emitted_.capacity()) {
    size_t capacity = std::max<size_t>(emitted_.capacity(), 1);
    while (capacity < need) capacity *= 2;
    emitted_.reserve(capacity);
  }
  for (const SortKey& key : order_) {
    if (sink_ != nullptr) sink_->OnEvent(*key.event);
    if (!drain_) emitted_.push_back(std::move(*key.event));
  }
  for (std::vector<rule::Event>& part : detached_) part.clear();
}

void ShardedTraceRecorder::PruneFinalIds(TimePoint watermark) {
  // Final ids grow with event time. Once a batch's earliest event is at or
  // before `watermark - retention`, every id below that batch's first id
  // belongs to an earlier instant and retires. Trigger refs reach at most
  // one rule window back; the caller sizes the retention accordingly.
  int64_t cutoff = -1;
  while (!batch_marks_.empty() &&
         batch_marks_.front().first + remap_retention_ <= watermark) {
    cutoff = batch_marks_.front().second;
    batch_marks_.pop_front();
  }
  if (cutoff < 0) return;
  for (FinalIds& table : final_ids_) {
    while (table.head < table.ids.size() && table.ids[table.head] >= 0 &&
           table.ids[table.head] < cutoff) {
      ++table.head;
    }
    if (table.head * 2 > table.ids.size()) {
      table.ids.erase(table.ids.begin(),
                      table.ids.begin() + static_cast<ptrdiff_t>(table.head));
      table.base += table.head;
      table.head = 0;
    }
  }
}

void ShardedTraceRecorder::DetachReady(TimePoint watermark) {
  if (watermark <= last_watermark_) return;
  DeliverDetached();
  Detach(watermark);
  last_watermark_ = watermark;
  watermark_pending_ = true;
}

void ShardedTraceRecorder::DeliverDetached() {
  if (!watermark_pending_) return;
  watermark_pending_ = false;
  EmitDetached();
  if (drain_) PruneFinalIds(last_watermark_);
  if (sink_ != nullptr) sink_->OnWatermark(last_watermark_);
}

Trace ShardedTraceRecorder::Finish(TimePoint horizon) {
  GuardFinish("ShardedTraceRecorder");
  // Emit everything still pending; the merge machinery is the same one the
  // streaming flushes use, so a run that was never flushed degenerates to
  // exactly the old single-batch merge.
  DeliverDetached();
  Detach(TimePoint::FromMillis(std::numeric_limits<int64_t>::max()));
  EmitDetached();
  if (sink_ != nullptr) sink_->OnFinish(horizon);
  Trace out;
  out.horizon = horizon;
  out.initial_values = std::move(initial_values_);
  initial_values_.clear();
  out.events = std::move(emitted_);
  emitted_.clear();
  // Spent, like TraceRecorder: drained totals must be read before Finish.
  for (auto& [site, shard] : shards_) shard->recorded = 0;
  // Stamp dense item ids against the final merged order — the same pass
  // the single-threaded recorder runs, so id assignment is identical for
  // identical event logs regardless of sharding.
  InternTraceItems(&out);
  return out;
}

size_t ShardedTraceRecorder::num_events() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t total = 0;
  for (const auto& [site, shard] : shards_) total += shard->recorded;
  return total;
}

}  // namespace hcm::trace
