#ifndef HCM_SIM_EXECUTOR_H_
#define HCM_SIM_EXECUTOR_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/common/sim_time.h"
#include "src/common/symbols.h"

namespace hcm::sim {

// Endpoint / site name. Endpoints may carry a component suffix after '#'
// (e.g. "B#tr" for the CM-Translator at site B); the part before '#' is the
// *base site*, which is the unit of scheduling affinity (one site = one
// simulated machine = one execution lane in the parallel executor).
using SiteId = std::string;

// Base site of an endpoint id ("B#tr" -> "B", "B" -> "B").
inline SiteId BaseSiteOf(const SiteId& endpoint) {
  auto pos = endpoint.find('#');
  return pos == std::string::npos ? endpoint : endpoint.substr(0, pos);
}

// Slot-based cancellation tokens for scheduled callbacks. Each cancellable
// schedule acquires a pooled (slot, generation) ticket instead of
// allocating a std::shared_ptr<bool>; the slot returns to the free list
// when the entry runs or is swept, and the generation bump makes any
// outstanding ticket for it stale. Steady-state scheduling is
// allocation-free once the pool has grown to the peak number of
// simultaneously pending cancellable entries.
class TimerPool {
 public:
  static constexpr uint32_t kNoSlot = 0xffffffffu;

  struct Ticket {
    uint32_t slot = kNoSlot;
    uint32_t gen = 0;

    bool valid() const { return slot != kNoSlot; }
  };

  Ticket Acquire();

  // Marks the ticket cancelled. Stale tickets (entry already ran or was
  // swept) are ignored.
  void Cancel(const Ticket& t);

  // True iff the ticket is still live and has been cancelled.
  bool IsCancelled(const Ticket& t) const;

  // Recycles the slot (the entry ran or was dropped from the queue).
  void Release(const Ticket& t);

  size_t capacity() const { return slots_.size(); }

 private:
  struct Slot {
    uint32_t gen = 0;
    bool cancelled = false;
  };
  bool Live(const Ticket& t) const {
    return t.valid() && t.slot < slots_.size() && slots_[t.slot].gen == t.gen;
  }
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_;
};

// Handle to a scheduled callback; lets the owner cancel it before it runs.
// Cancellation is cooperative: the entry stays in the queue but is skipped.
// The handle must not outlive the executor (its pool) that issued it.
class Timer {
 public:
  void Cancel() {
    cancel_issued_ = true;
    if (pool_ != nullptr) pool_->Cancel(ticket_);
  }
  bool cancelled() const {
    return cancel_issued_ ||
           (pool_ != nullptr && pool_->IsCancelled(ticket_));
  }

 private:
  friend class Executor;
  friend class ParallelExecutor;
  Timer(TimerPool* pool, TimerPool::Ticket ticket)
      : pool_(pool), ticket_(ticket) {}
  TimerPool* pool_;
  TimerPool::Ticket ticket_;
  // Remembers a Cancel() issued through this handle, so cancelled() stays
  // true after the queue entry is swept and the pool slot recycled.
  bool cancel_issued_ = false;
};

// Single-threaded discrete-event executor with a virtual clock.
//
// All components of the simulated distributed system (raw information
// sources, CM-Translators, CM-Shells, workload generators, the network)
// schedule callbacks here. Events run in (time, sequence) order, giving a
// deterministic total order over the whole system — Appendix A.2 property 1
// holds by construction.
//
// Every scheduling entry point has a site-tagged variant declaring which
// site's work the callback is: this executor ignores the tag (one global
// queue), while sim::ParallelExecutor routes each callback to the tagged
// site's execution lane. Components always tag their scheduling so the same
// wiring runs on either engine.
//
// The queue is a binary heap over a plain vector: the winning entry is
// moved out (never copied), so std::function payloads with captured
// events/messages cross the queue without allocation churn.
class Executor {
 public:
  Executor() = default;
  virtual ~Executor() = default;
  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  virtual TimePoint now() const { return now_; }

  // Schedules `fn` at absolute virtual time `when` (clamped to now()).
  virtual Timer ScheduleAt(TimePoint when, std::function<void()> fn);

  // Schedules `fn` after `delay` (clamped to Zero).
  Timer ScheduleAfter(Duration delay, std::function<void()> fn) {
    return ScheduleAt(now() + ClampDelay(delay), std::move(fn));
  }

  // Fire-and-forget variants: no Timer handle, so no cancellation ticket.
  // The hot event path (network deliveries, RHS step chains) uses these.
  virtual void PostAt(TimePoint when, std::function<void()> fn);
  void PostAfter(Duration delay, std::function<void()> fn) {
    PostAt(now() + ClampDelay(delay), std::move(fn));
  }

  // --- Site-tagged variants: `site` is the endpoint or site whose work the
  // callback performs (suffixes after '#' are ignored). The base executor
  // runs everything on one queue; ParallelExecutor routes to the site's
  // lane. ---
  virtual Timer ScheduleAt(const SiteId& site, TimePoint when,
                           std::function<void()> fn) {
    (void)site;
    return ScheduleAt(when, std::move(fn));
  }
  Timer ScheduleAfter(const SiteId& site, Duration delay,
                      std::function<void()> fn) {
    return ScheduleAt(site, now() + ClampDelay(delay), std::move(fn));
  }
  virtual void PostAt(const SiteId& site, TimePoint when,
                      std::function<void()> fn) {
    (void)site;
    PostAt(when, std::move(fn));
  }
  void PostAfter(const SiteId& site, Duration delay,
                 std::function<void()> fn) {
    PostAt(site, now() + ClampDelay(delay), std::move(fn));
  }

  // --- Symbol-tagged variants: `site_sym` is the interned id of the *base*
  // site name (callers strip any '#' endpoint suffix before interning; see
  // BaseSiteOf). Hot senders that already carry an interned destination
  // (Network deliveries, shell step chains) use these to skip the per-call
  // string hash/substr. The base executor ignores the tag. ---
  virtual Timer ScheduleAt(uint32_t site_sym, TimePoint when,
                           std::function<void()> fn) {
    (void)site_sym;
    return ScheduleAt(when, std::move(fn));
  }
  Timer ScheduleAfter(uint32_t site_sym, Duration delay,
                      std::function<void()> fn) {
    return ScheduleAt(site_sym, now() + ClampDelay(delay), std::move(fn));
  }
  virtual void PostAt(uint32_t site_sym, TimePoint when,
                      std::function<void()> fn) {
    (void)site_sym;
    PostAt(when, std::move(fn));
  }
  void PostAfter(uint32_t site_sym, Duration delay,
                 std::function<void()> fn) {
    PostAt(site_sym, now() + ClampDelay(delay), std::move(fn));
  }

  // Like PostAt(site_sym, ...), but the callback is declared *elidable*:
  // it carries the effect of a statically monotone rule (CALM), so a
  // conservative parallel engine may deliver it without clamping it to its
  // synchronization window. The single-queue engine runs everything in one
  // total order and ignores the hint.
  virtual void PostElidableAt(uint32_t site_sym, TimePoint when,
                              std::function<void()> fn) {
    PostAt(site_sym, when, std::move(fn));
  }

  // Runs the earliest pending callback, advancing the clock. Returns false
  // when the queue is empty (cancelled entries are drained silently).
  // Single-queue engine only; ParallelExecutor callers use RunUntil.
  bool Step();

  // Runs callbacks until the queue is empty. Returns the number executed.
  // `max_steps` bounds runaway self-rescheduling loops (0 = unlimited).
  virtual size_t RunUntilIdle(size_t max_steps = 0);

  // Runs callbacks with scheduled time <= `deadline`, then sets the clock to
  // `deadline`. Periodic self-rescheduling tasks (e.g. polling strategies)
  // make the queue never-empty, so bounded runs are the normal mode.
  virtual size_t RunUntil(TimePoint deadline);

  // Runs for `d` of virtual time from now().
  size_t RunFor(Duration d) { return RunUntil(now() + d); }

  virtual size_t pending_count() const { return queue_.size(); }

 protected:
  static Duration ClampDelay(Duration d) {
    return d < Duration::Zero() ? Duration::Zero() : d;
  }

 private:
  struct Entry {
    TimePoint when;
    uint64_t seq;
    std::function<void()> fn;
    // Invalid for Post* entries (never cancellable).
    TimerPool::Ticket ticket;
  };
  struct EntryLater {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.when != b.when) return b.when < a.when;
      return b.seq < a.seq;
    }
  };

  void Push(TimePoint when, std::function<void()> fn,
            TimerPool::Ticket ticket);
  // Moves the earliest entry out of the heap (caller checked non-empty),
  // releasing its cancellation ticket.
  Entry PopTop();

  TimePoint now_;
  uint64_t next_seq_ = 0;
  std::vector<Entry> queue_;  // heap ordered by EntryLater
  TimerPool timers_;
};

}  // namespace hcm::sim

#endif  // HCM_SIM_EXECUTOR_H_
