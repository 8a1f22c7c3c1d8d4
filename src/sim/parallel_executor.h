#ifndef HCM_SIM_PARALLEL_EXECUTOR_H_
#define HCM_SIM_PARALLEL_EXECUTOR_H_

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/common/sim_time.h"
#include "src/common/symbols.h"
#include "src/sim/executor.h"

namespace hcm::sim {

struct ParallelExecutorConfig {
  // Worker count, including the calling thread: num_threads = 1 runs every
  // superstep inline (no pool), num_threads = N spawns N-1 workers and the
  // driving thread participates. num_threads = 0 is the one-lane case:
  // every site shares a single lane, so callbacks run in one global
  // (time, schedule-seq) order, the classic sequential schedule.
  size_t num_threads = 0;

  // Conservative lookahead L: the minimum latency of any cross-site
  // message. Epochs are L wide; within an epoch each site's callbacks are
  // causally independent of the other sites' (a cross-site effect sent at t
  // arrives no earlier than t + L >= epoch end), so sites execute
  // concurrently. For toolkit deployments L is the network's base cross-
  // site latency. Must be positive.
  Duration lookahead = Duration::Millis(20);

  // Adaptive synchronization widening: the driver barrier is placed every
  // `depth` epochs, where depth doubles (up to this cap) after a superstep
  // whose cross-lane traffic needed no clamping and no deferred first-
  // contact deliveries, and halves otherwise. 1 = a barrier per epoch (the
  // pre-epoch engine's cadence). Clamped to [1, kMaxEpochsPerSuperstep].
  size_t max_epochs_per_superstep = 16;
};

// The discrete-event executor with a virtual clock, a conservative-time-
// window PDES engine behind SystemOptions::num_threads. Every component of
// the simulated system (raw sources, CM-Translators, CM-Shells, workload
// generators, the network) schedules callbacks here, and each lane runs
// them in (time, sequence) order, which gives Appendix A.2 property 1 a
// deterministic total order by construction.
//
// Every callback is tagged (via the site-tagged ScheduleAt/PostAt variants)
// with the site whose work it performs; each site gets a *lane* — its own
// queue, clock, sequence counter, and timer pool. Time is diced into
// lookahead-wide *epochs* grouped into *supersteps* of `depth` epochs:
//
//   plan    (driver): anchor the superstep at the earliest pending
//           callback, pick the epoch grid, and compute the participant set
//           — lanes with due work plus every lane reachable from them over
//           the cross-lane channel graph. Unreachable idle lanes pay
//           nothing for the superstep.
//   run     (workers): the participants split into the connected
//           components of their channel graph. A worker claims a whole
//           component (an atomic index) and runs its lanes epoch by epoch,
//           each epoch's lanes in canonical site order; no two workers
//           ever touch the same component, so nothing inside a superstep
//           is synchronized. Cross-lane posts are batched into per-
//           (src,dst) channel segment buffers and drained by the
//           destination at the start of its next epoch, in canonical
//           (source-site-name, emission) order. The price: the heaviest
//           component bounds the superstep, however many workers idle.
//   barrier (driver): once per superstep — not per epoch — the driver
//           drains final-epoch segments, merges deferred posts (first
//           messages on brand-new channels, and messages to lanes outside
//           the participant set) in site-name order, folds the per-lane
//           worker-local step counters into the global stats, and adapts
//           the superstep depth. A streaming hook (SetBarrierHook) detaches
//           the trace's safe prefix here; its delivery runs on the driver
//           during the next superstep's run phase.
//
// Every scheduling decision above (participation, epoch grid, clamping,
// drain order, sequence assignment) is a pure function of the simulation,
// never of worker interleaving, so a run with N workers executes callbacks
// in exactly the per-lane orders a 1-worker run does — traces and results
// are bit-identical for any num_threads >= 1 (the parallel-equivalence
// suite enforces this).
//
// Conservativeness: a cross-lane post due inside the epoch it was emitted
// in would have raced that epoch; it is clamped to the epoch end and
// counted (clamped_cross_posts()). Posts declared *elidable* via
// PostElidableAt — messages fired by statically monotone rules, which per
// CALM need no coordination — skip the clamp and keep their natural
// delivery time (elided_cross_posts()); the destination lane's clock may
// step backwards over them, which the sharded trace recorder's stable sort
// absorbs. Untagged scheduling from inside a lane callback stays on that
// lane; untagged scheduling from outside any superstep (e.g. main-thread
// setup) lands on a control lane named "".
//
// The one-lane case (num_threads = 0) routes every tag to a single lane
// and runs each superstep as one epoch up to the run's deadline: with no
// cross-lane traffic there is nothing to synchronize, and the schedule is
// the classic single-queue order.
//
// Limitations (documented, asserted where cheap): Timers for cross-lane
// schedules cannot be cancelled; Timer::Cancel must be called from the
// owning lane or between runs.
class ParallelExecutor {
 public:
  // Upper bound on epochs per superstep (sizes the per-channel segment
  // ring, which is why it is a compile-time constant).
  static constexpr size_t kMaxEpochsPerSuperstep = 16;

  explicit ParallelExecutor(ParallelExecutorConfig config = {});
  ~ParallelExecutor();

  // The running callback's time inside a lane, the global clock outside.
  TimePoint now() const;

  // Untagged scheduling: from inside a lane callback the entry stays on
  // that lane; from outside any run it lands on the control lane "".
  // Times before now() are clamped to it; the Timer cancels the entry.
  Timer ScheduleAt(TimePoint when, std::function<void()> fn);
  Timer ScheduleAfter(Duration delay, std::function<void()> fn) {
    return ScheduleAt(now() + ClampDelay(delay), std::move(fn));
  }
  // Fire-and-forget variants: no Timer handle, so no cancellation ticket.
  // The hot event path (network deliveries, RHS step chains) uses these.
  void PostAt(TimePoint when, std::function<void()> fn);
  void PostAfter(Duration delay, std::function<void()> fn) {
    PostAt(now() + ClampDelay(delay), std::move(fn));
  }

  // Site-tagged variants: `site` is the endpoint or site whose work the
  // callback performs (suffixes after '#' are ignored); it picks the lane.
  Timer ScheduleAt(const SiteId& site, TimePoint when,
                   std::function<void()> fn);
  Timer ScheduleAfter(const SiteId& site, Duration delay,
                      std::function<void()> fn) {
    return ScheduleAt(site, now() + ClampDelay(delay), std::move(fn));
  }
  void PostAt(const SiteId& site, TimePoint when, std::function<void()> fn);
  void PostAfter(const SiteId& site, Duration delay,
                 std::function<void()> fn) {
    PostAt(site, now() + ClampDelay(delay), std::move(fn));
  }

  // Symbol-tagged fast path: `site_sym` is the interned id of the *base*
  // site name (callers strip any '#' suffix before interning; see
  // BaseSiteOf). Lane routing is an integer compare on the same-lane check
  // and a hash-map probe otherwise; the string-tagged variants above intern
  // and delegate here.
  Timer ScheduleAt(uint32_t site_sym, TimePoint when,
                   std::function<void()> fn);
  Timer ScheduleAfter(uint32_t site_sym, Duration delay,
                      std::function<void()> fn) {
    return ScheduleAt(site_sym, now() + ClampDelay(delay), std::move(fn));
  }
  void PostAt(uint32_t site_sym, TimePoint when, std::function<void()> fn);
  void PostAfter(uint32_t site_sym, Duration delay,
                 std::function<void()> fn) {
    PostAt(site_sym, now() + ClampDelay(delay), std::move(fn));
  }
  // Like PostAt(site_sym, ...), but the callback is declared *elidable*: it
  // carries the effect of a statically monotone rule (CALM), so a cross-
  // lane delivery skips the window clamp (see the class comment).
  void PostElidableAt(uint32_t site_sym, TimePoint when,
                      std::function<void()> fn);

  // Runs callbacks with scheduled time <= `deadline`, then sets the clock to
  // `deadline`. Periodic self-rescheduling tasks (e.g. polling strategies)
  // make the queue never-empty, so bounded runs are the normal mode.
  // Returns the number of callbacks executed.
  size_t RunUntil(TimePoint deadline);
  // Runs for `d` of virtual time from now().
  size_t RunFor(Duration d) { return RunUntil(now() + d); }
  // Runs callbacks until every lane is empty.
  size_t RunUntilIdle();
  size_t pending_count() const;

  // --- Introspection (benches, tests; call between runs) ---
  size_t num_lanes() const { return lanes_.size(); }
  size_t num_threads() const { return config_.num_threads; }
  // Epochs executed (the unit the pre-epoch engine called a "window").
  uint64_t windows_executed() const { return windows_; }
  // Driver barriers: each superstep costs one plan + one barrier phase
  // regardless of how many epochs it spans.
  uint64_t supersteps() const { return supersteps_; }
  uint64_t cross_posts() const { return cross_posts_; }
  uint64_t clamped_cross_posts() const { return clamped_cross_posts_; }
  // Cross-lane posts that skipped the window clamp because their sender
  // declared them monotone (CALM elision).
  uint64_t elided_cross_posts() const { return elided_cross_posts_; }
  // Critical-path parallelism of the run so far: total callbacks executed
  // divided by the sum over epochs of the busiest lane's callbacks — the
  // speedup an unbounded worker pool could reach on this workload,
  // independent of the host's core count.
  double parallelism() const;
  // The human-readable stats block examples and benches print.
  std::string DescribeStats() const;

  // Streaming-check support, split around the superstep barrier:
  //   `detach` runs on the driver thread after every superstep barrier,
  //     while no lane executes, with an instant `safe` such that every
  //     event the run will ever produce strictly before `safe` has already
  //     been recorded: the next pending callback, and at the end of
  //     RunUntil the deadline itself. The System uses it to take the
  //     recorder's safe prefix out of the lanes' reach.
  //   `deliver` is the work on that prefix that needs no quiescence. The
  //     driver runs it after releasing the workers into the next superstep,
  //     so it overlaps that superstep, and in any case before RunUntil /
  //     RunUntilIdle return. With no worker threads it runs right after
  //     `detach`.
  // Both run on the thread that called RunUntil/RunUntilIdle. `deliver`
  // runs concurrently with lane callbacks: it must not touch the state they
  // use (lanes, shells, the executor itself).
  void SetBarrierHook(std::function<void(TimePoint safe)> detach,
                      std::function<void()> deliver) {
    detach_hook_ = std::move(detach);
    deliver_hook_ = std::move(deliver);
  }

 private:
  // Yields a worker spins through for the next superstep before sleeping.
  static constexpr int kSpinsBeforeSleep = 200;
  static Duration ClampDelay(Duration d) {
    return d < Duration::Zero() ? Duration::Zero() : d;
  }
  struct Entry {
    TimePoint when;
    uint64_t seq;
    std::function<void()> fn;
    TimerPool::Ticket ticket;
  };
  struct EntryLater {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.when != b.when) return b.when < a.when;
      return b.seq < a.seq;
    }
  };
  // A cross-lane callback buffered in a channel segment; drained by the
  // destination at the start of the following epoch.
  struct CrossPost {
    TimePoint when;
    std::function<void()> fn;
    bool elided;
  };
  // A cross-lane callback that cannot use the segment protocol this
  // superstep (first message on a brand-new channel, or destination not in
  // the participant set); merged by the driver at the superstep barrier.
  struct DeferredPost {
    uint32_t dst_sym;
    uint32_t epoch;  // emission epoch (clamp reference)
    TimePoint when;
    std::function<void()> fn;
    bool elided;
  };
  struct Lane;
  // Per-(src,dst) cross-lane channel with one reusable segment vector per
  // epoch. The source lane appends during its epoch e; the destination
  // drains segment e at its epoch e+1. Both lanes sit in one component, so
  // one worker runs them and the segment is never touched concurrently.
  struct LaneChannel {
    Lane* src = nullptr;
    Lane* dst = nullptr;
    // Channels created mid-superstep stay dormant (posts deferred) until
    // the next plan phase links them into the lane lists.
    bool live = false;
    std::array<std::vector<CrossPost>, kMaxEpochsPerSuperstep> segments;
  };
  struct Lane {
    Lane(ParallelExecutor* owner, SiteId site)
        : owner(owner),
          site(std::move(site)),
          sym(Symbols().Intern(this->site)) {}
    ParallelExecutor* const owner;
    const SiteId site;
    const uint32_t sym;  // interned id of `site`
    TimePoint now;
    uint64_t next_seq = 0;
    std::vector<Entry> queue;  // heap ordered by EntryLater
    TimerPool timers;

    // --- Epoch machinery.
    bool participating = false;
    size_t current_epoch = 0;  // epoch being run (set by the runner)
    // Channel lists, rebuilt by the plan phase when the graph changed.
    // inbound is kept in canonical source-site-name order — it is the
    // drain order and therefore a determinism anchor.
    std::vector<LaneChannel*> inbound;
    std::vector<LaneChannel*> outbound;
    std::unordered_map<uint32_t, LaneChannel*> out_by_sym;
    std::vector<DeferredPost> deferred;
    // Worker-local counters, merged (and zeroed) by the driver at the
    // superstep barrier — no shared atomics on the execution path.
    std::array<size_t, kMaxEpochsPerSuperstep> steps_by_epoch{};
    uint64_t ep_cross = 0;
    uint64_t ep_clamped = 0;
    uint64_t ep_elided = 0;
    bool planned = false;  // plan-phase walk mark
  };

  Lane* EnsureLane(const SiteId& base_site);  // outside supersteps only
  Lane* EnsureLaneSym(uint32_t base_sym);     // outside supersteps only
  void PushLane(Lane* lane, TimePoint when, std::function<void()> fn,
                TimerPool::Ticket ticket, bool elided = false);
  // Drops cancelled entries off the lane's heap top.
  static void SweepLaneTop(Lane* lane);
  // Earliest pending callback across all lanes; false when idle.
  bool EarliestPending(TimePoint* out);
  // Routes a cross-lane post emitted from inside `src`'s epoch.
  void EmitCrossPost(Lane* src, uint32_t dst_sym, TimePoint when,
                     std::function<void()> fn, bool elide);
  // Returns (creating if needed) the channel src -> dst_sym; driver only.
  LaneChannel* EnsureChannel(Lane* src, Lane* dst);
  void RebuildChannelListsIfDirty();

  // One superstep anchored at `anchor`; epochs never extend past `cap`
  // when `has_cap`. Returns callbacks executed.
  size_t RunSuperstep(TimePoint anchor, bool has_cap, TimePoint cap);
  void PlanParticipants();
  // Splits participants_ into the connected components of their channel
  // graph (component_lanes_/component_begin_).
  void PlanComponents();
  void RunOneEpoch(Lane* lane, size_t epoch);
  // Claims components until none is left, running each one's lanes epoch
  // by epoch.
  void RunComponents();
  // Claims one of the superstep's seats; false when none is left.
  bool TakeSeat();
  void WorkerLoop();
  // Superstep barrier: final-segment drain, deferred merge, stats fold,
  // depth adaptation. Returns callbacks executed this superstep.
  size_t CloseSuperstep();
  // Barrier half of the streaming hook; the deliver half is left pending
  // (or run at once when there are no workers).
  void DetachAtBarrier(TimePoint safe);
  // Runs the pending deliver half, if any.
  void RunPendingDelivery();

  ParallelExecutorConfig config_;
  // The only lane when num_threads = 0 (every tag resolves to it), else
  // null.
  Lane* one_lane_ = nullptr;
  size_t depth_ = 1;  // current epochs-per-superstep (adaptive)
  TimePoint global_now_;
  std::function<void(TimePoint)> detach_hook_;
  std::function<void()> deliver_hook_;
  bool delivery_pending_ = false;  // driver thread only
  // Lanes in site-NAME order: plan-phase iteration, deferred merging, and
  // clock propagation all walk this map, and name order is the determinism
  // anchor (symbol ids vary with intern order; names do not).
  std::map<SiteId, std::unique_ptr<Lane>> lanes_;
  // Interned base-site id -> lane; the hot routing index.
  std::unordered_map<uint32_t, Lane*> lane_by_sym_;
  // Channel registry keyed (dst-site, src-site): iterating it yields each
  // destination's inbound channels in canonical source order, which is how
  // the plan phase builds the drain lists.
  std::map<std::pair<SiteId, SiteId>, std::unique_ptr<LaneChannel>> channels_;
  bool channels_dirty_ = false;

  // --- Superstep state (written by the driver in the plan phase, read by
  // workers during the run phase). ---
  std::vector<Lane*> participants_;  // canonical site-name order
  std::array<TimePoint, kMaxEpochsPerSuperstep> epoch_end_{};
  size_t epochs_this_superstep_ = 0;
  TimePoint superstep_end_;
  std::vector<Lane*> plan_stack_;  // BFS scratch
  // Participants grouped by component, each group in canonical site-name
  // order; component c is [component_begin_[c], component_begin_[c + 1]).
  std::vector<Lane*> component_lanes_;
  std::vector<size_t> component_begin_;
  std::atomic<size_t> next_component_{0};  // the claim index

  // Worker pool (empty when num_threads <= 1). A superstep offers only as
  // many seats as it has components to hand out; a worker takes one (spin,
  // then sleep on work_cv_) and the driver spins until every seat is done.
  std::vector<std::thread> workers_;
  std::mutex pool_mu_;
  std::condition_variable work_cv_;
  std::atomic<size_t> seats_{0};
  std::atomic<size_t> workers_busy_{0};  // seats offered and not yet done
  bool shutdown_ = false;  // guarded by pool_mu_

  uint64_t windows_ = 0;
  uint64_t supersteps_ = 0;
  uint64_t cross_posts_ = 0;
  uint64_t clamped_cross_posts_ = 0;
  uint64_t elided_cross_posts_ = 0;
  uint64_t critical_steps_ = 0;
  uint64_t total_steps_ = 0;
  // Per-superstep deltas the depth adaptation consults.
  uint64_t superstep_clamped_ = 0;
  uint64_t superstep_hard_deferred_ = 0;

  static thread_local Lane* current_lane_;
};

}  // namespace hcm::sim

#endif  // HCM_SIM_PARALLEL_EXECUTOR_H_
