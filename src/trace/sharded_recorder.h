#ifndef HCM_TRACE_SHARDED_RECORDER_H_
#define HCM_TRACE_SHARDED_RECORDER_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/trace/trace.h"

namespace hcm::trace {

// Trace recorder for parallel runs: one event shard per base site, so each
// of ParallelExecutor's execution lanes appends to its own shard without
// synchronization (single writer per shard — only the site's lane records
// events stamped with that site).
//
// Record() assigns *provisional* ids — (shard index, local index) packed
// into an int64 — unique across the run so rule firing can thread trigger
// provenance through messages as usual. Finish() merges the shards into one
// canonical log ordered by (time, site, shard order), assigns dense final
// ids in that order, and rewrites both `id` and `trigger_event_id` through
// the provisional→final map. Because per-shard append order and the merge
// key are functions of the simulation (not of worker interleaving), the
// finished trace is byte-identical at any thread count — and, between
// events of equal (time, site), canonical even against a 1-thread run.
//
// With a sink attached (AttachSink), the same merge runs incrementally over
// the *safe prefix*, in the two halves TraceRecorder describes:
//   DetachReady(W) (a superstep barrier: no lane records) moves every
//     pending event with time < W out of the shards. Shard append order is
//     not time-monotone (elided cross-lane posts step a lane's clock
//     backwards), so the ready set is a stable in-place compaction of each
//     shard, not a prefix slice.
//   DeliverDetached() (the driver thread, overlapping the next superstep)
//     sorts the batch, assigns final ids, remaps triggers and feeds the
//     sink. It reads only the detached batch and its own id tables, never a
//     shard.
// The watermark is strict, so an equal-time group is never split across
// flushes and the per-flush sort reproduces the offline merge batch for
// batch; final ids are assigned as batches emit, which makes the streamed
// feed literally the Finish log, delivered early.
class ShardedTraceRecorder : public TraceRecorder {
 public:
  ShardedTraceRecorder() = default;

  // Main thread only (setup / between runs).
  void SetInitialValue(const rule::ItemId& item, Value value) override;

  // Pre-creates the shard for `site`'s base site and routes events whose
  // site_sym is `site`'s symbol to it without a lock. Main thread only;
  // called during deployment wiring so concurrent Record() never has to
  // create a shard.
  void DeclareSite(const std::string& site) override;

  // Safe to call from any execution lane. Events recorded by a lane must be
  // stamped with a site on that lane (the toolkit's shells/translators do
  // this by construction). A stamped site_sym must be the symbol of
  // `event.site`; declared sites then take the lock-free path, anything
  // else the locked by-name path.
  int64_t Record(rule::Event event) override;

  // Main thread only, after the run.
  Trace Finish(TimePoint horizon) override;

  // Main thread only. See TraceRecorder; in drain mode emitted events are
  // shed (bounded memory) and Finish returns a trace without events.
  void AttachSink(TraceSink* sink, bool drain) override;

  // Only while lanes are quiescent (the executor's superstep barrier / end
  // of RunFor).
  void DetachReady(TimePoint watermark) override;
  // On the thread that detached; may overlap lanes that Record().
  void DeliverDetached() override;

  // Drain mode retires final-id table entries once their events fall
  // `retention` behind the watermark (a generated event references a
  // trigger at most one rule window back, so the System sizes this from
  // the installed rules' max delta). Tee mode never prunes.
  void SetRemapRetention(Duration retention) { remap_retention_ = retention; }

  // Main thread only (between runs): total events recorded.
  size_t num_events() const override;

  size_t num_shards() const { return shards_.size(); }

 private:
  // Written only by Record (the shard's lane) and the quiescent halves.
  struct Shard {
    uint32_t index;  // fixed at creation; part of provisional ids
    std::vector<rule::Event> events;  // pending (not yet detached)
    size_t recorded = 0;              // lifetime count, single-writer
  };
  // Provisional -> final ids of one shard, dense by local index; written
  // and read only by the delivering half. ids[i] is the final id of local
  // event base + i, or -1 while that event is still pending; entries before
  // `head` are retired (drain mode) and compacted away in bulk.
  struct FinalIds {
    size_t base = 0;
    size_t head = 0;
    std::vector<int64_t> ids;
  };
  struct SortKey {
    TimePoint time;
    uint32_t site_rank;
    uint32_t seq;  // position in the detached batch: the stable tie-break
    rule::Event* event;
  };

  // Locked by-name shard lookup, creating the shard on first sight.
  Shard* ShardFor(const std::string& base_site);

  // Moves every pending event with time < `watermark` into detached_, one
  // part per shard in shard (base-site name) order, each part in append
  // order. A shard whose events are all ready hands over its whole buffer.
  void Detach(TimePoint watermark);
  // Sorts the detached batch canonically, assigns final ids, remaps
  // triggers, delivers to the sink (if any) and archives into emitted_
  // (unless draining).
  void EmitDetached();
  // Rank of a site symbol in site-name order, extended on first sight.
  uint32_t SiteRank(uint32_t site_sym);
  // Final id of a provisional id, or -1 when it is not (or no longer)
  // known.
  int64_t FinalIdOf(int64_t provisional) const;
  // Drain mode: retires id-table entries `remap_retention_` behind
  // `watermark`.
  void PruneFinalIds(TimePoint watermark);

  // Guards the shard map structure; shard contents are single-writer.
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Shard>> shards_;  // by base site
  // Site symbol -> shard for declared sites; written by DeclareSite only,
  // so lanes read it without the lock.
  std::vector<Shard*> shard_by_sym_;
  std::map<rule::ItemId, Value> initial_values_;

  // --- Delivery state: detached batch and what only delivery touches. ---
  // The detached batch, one part per shard. Emptied parts keep their
  // capacity and are swapped back into shards by later detaches.
  std::vector<std::vector<rule::Event>> detached_;
  bool watermark_pending_ = false;  // DetachReady ran, delivery has not
  std::vector<SortKey> order_;      // sort scratch, reused per batch
  std::vector<uint32_t> rank_by_sym_;  // kNoSymbol = not ranked yet
  std::vector<uint32_t> ranked_syms_;  // site symbols in site-name order
  std::vector<FinalIds> final_ids_;    // by shard index
  // Drain-mode pruning marks: (earliest time, first final id) per batch.
  std::deque<std::pair<TimePoint, int64_t>> batch_marks_;

  // Canonical emitted prefix (final ids, merge order). Drained instead when
  // drain mode is on; Finish then returns no events.
  std::vector<rule::Event> emitted_;
  int64_t next_final_id_ = 0;
  Duration remap_retention_ = Duration::Seconds(600);
};

}  // namespace hcm::trace

#endif  // HCM_TRACE_SHARDED_RECORDER_H_
