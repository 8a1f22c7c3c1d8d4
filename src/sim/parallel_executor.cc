#include "src/sim/parallel_executor.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <utility>

namespace hcm::sim {

thread_local ParallelExecutor::Lane* ParallelExecutor::current_lane_ = nullptr;

ParallelExecutor::ParallelExecutor(ParallelExecutorConfig config)
    : config_(config) {
  assert(config_.lookahead > Duration::Zero());
  if (config_.num_threads < 1) config_.num_threads = 1;
  if (config_.max_epochs_per_superstep < 1) {
    config_.max_epochs_per_superstep = 1;
  }
  if (config_.max_epochs_per_superstep > kMaxEpochsPerSuperstep) {
    config_.max_epochs_per_superstep = kMaxEpochsPerSuperstep;
  }
  for (size_t i = 1; i < config_.num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ParallelExecutor::~ParallelExecutor() {
  if (!workers_.empty()) {
    {
      std::lock_guard<std::mutex> lock(pool_mu_);
      shutdown_ = true;
    }
    work_cv_.notify_all();
    for (auto& w : workers_) w.join();
  }
}

TimePoint ParallelExecutor::now() const {
  Lane* lane = current_lane_;
  if (lane != nullptr && lane->owner == this) return lane->now;
  return global_now_;
}

ParallelExecutor::Lane* ParallelExecutor::EnsureLane(const SiteId& base_site) {
  auto it = lanes_.find(base_site);
  if (it == lanes_.end()) {
    auto lane = std::make_unique<Lane>(this, base_site);
    lane->now = global_now_;
    it = lanes_.emplace(base_site, std::move(lane)).first;
    lane_by_sym_.emplace(it->second->sym, it->second.get());
  }
  return it->second.get();
}

ParallelExecutor::Lane* ParallelExecutor::EnsureLaneSym(uint32_t base_sym) {
  auto it = lane_by_sym_.find(base_sym);
  if (it != lane_by_sym_.end()) return it->second;
  return EnsureLane(Symbols().name(base_sym));
}

void ParallelExecutor::PushLane(Lane* lane, TimePoint when,
                                std::function<void()> fn,
                                TimerPool::Ticket ticket, bool elided) {
  // Elided deliveries keep their natural (possibly past) time: the lane's
  // clock steps backwards over them and the trace recorder's stable sort
  // restores time order. Everything else is clamped monotone.
  if (!elided && when < lane->now) when = lane->now;
  lane->queue.push_back(Entry{when, lane->next_seq++, std::move(fn), ticket});
  std::push_heap(lane->queue.begin(), lane->queue.end(), EntryLater());
}

void ParallelExecutor::SweepLaneTop(Lane* lane) {
  while (!lane->queue.empty() &&
         lane->timers.IsCancelled(lane->queue.front().ticket)) {
    std::pop_heap(lane->queue.begin(), lane->queue.end(), EntryLater());
    lane->timers.Release(lane->queue.back().ticket);
    lane->queue.pop_back();
  }
}

Timer ParallelExecutor::ScheduleAt(TimePoint when, std::function<void()> fn) {
  Lane* lane = current_lane_;
  if (lane == nullptr || lane->owner != this) lane = EnsureLane(SiteId());
  TimerPool::Ticket ticket = lane->timers.Acquire();
  PushLane(lane, when, std::move(fn), ticket);
  return Timer(&lane->timers, ticket);
}

void ParallelExecutor::PostAt(TimePoint when, std::function<void()> fn) {
  Lane* lane = current_lane_;
  if (lane == nullptr || lane->owner != this) lane = EnsureLane(SiteId());
  PushLane(lane, when, std::move(fn), TimerPool::Ticket{});
}

Timer ParallelExecutor::ScheduleAt(const SiteId& site, TimePoint when,
                                   std::function<void()> fn) {
  return ScheduleAt(Symbols().Intern(BaseSiteOf(site)), when, std::move(fn));
}

void ParallelExecutor::PostAt(const SiteId& site, TimePoint when,
                              std::function<void()> fn) {
  PostAt(Symbols().Intern(BaseSiteOf(site)), when, std::move(fn));
}

Timer ParallelExecutor::ScheduleAt(uint32_t site_sym, TimePoint when,
                                   std::function<void()> fn) {
  Lane* current = current_lane_;
  if (current != nullptr && current->owner == this) {
    if (current->sym == site_sym) {
      TimerPool::Ticket ticket = current->timers.Acquire();
      PushLane(current, when, std::move(fn), ticket);
      return Timer(&current->timers, ticket);
    }
    // Cross-lane schedule from inside a superstep: routed through the
    // channel protocol. No cancellation handle — the ticket would live in
    // another lane's pool, which this thread must not touch.
    EmitCrossPost(current, site_sym, when, std::move(fn), /*elidable=*/false);
    return Timer(nullptr, TimerPool::Ticket{});
  }
  Lane* lane = EnsureLaneSym(site_sym);
  TimerPool::Ticket ticket = lane->timers.Acquire();
  PushLane(lane, when, std::move(fn), ticket);
  return Timer(&lane->timers, ticket);
}

void ParallelExecutor::PostAt(uint32_t site_sym, TimePoint when,
                              std::function<void()> fn) {
  Lane* current = current_lane_;
  if (current != nullptr && current->owner == this) {
    if (current->sym == site_sym) {
      PushLane(current, when, std::move(fn), TimerPool::Ticket{});
    } else {
      EmitCrossPost(current, site_sym, when, std::move(fn),
                    /*elidable=*/false);
    }
    return;
  }
  PushLane(EnsureLaneSym(site_sym), when, std::move(fn), TimerPool::Ticket{});
}

void ParallelExecutor::PostElidableAt(uint32_t site_sym, TimePoint when,
                                      std::function<void()> fn) {
  Lane* current = current_lane_;
  if (current != nullptr && current->owner == this) {
    if (current->sym == site_sym) {
      PushLane(current, when, std::move(fn), TimerPool::Ticket{});
    } else {
      EmitCrossPost(current, site_sym, when, std::move(fn),
                    /*elidable=*/true);
    }
    return;
  }
  PushLane(EnsureLaneSym(site_sym), when, std::move(fn), TimerPool::Ticket{});
}

void ParallelExecutor::EmitCrossPost(Lane* src, uint32_t dst_sym,
                                     TimePoint when, std::function<void()> fn,
                                     bool elide) {
  ++src->ep_cross;
  auto it = src->out_by_sym.find(dst_sym);
  LaneChannel* ch = it != src->out_by_sym.end() ? it->second : nullptr;
  if (ch != nullptr && ch->dst->participating) {
    size_t e = src->current_epoch;
    if (elide) {
      ++src->ep_elided;
    } else if (when < epoch_end_[e]) {
      // Arriving inside the epoch it was sent in would have raced that
      // epoch: the lookahead under-estimates this channel's latency.
      // Clamping is applied identically at any thread count, so runs stay
      // deterministic; fix the lookahead to avoid the added latency.
      when = epoch_end_[e];
      ++src->ep_clamped;
    }
    ch->segments[e].push_back(CrossPost{when, std::move(fn), elide});
    return;
  }
  // First contact on this channel, or the destination sat out the
  // superstep: held on the emitting lane and merged by the driver at the
  // superstep barrier, in site-name order.
  src->deferred.push_back(DeferredPost{dst_sym,
                                       static_cast<uint32_t>(src->current_epoch),
                                       when, std::move(fn), elide});
}

ParallelExecutor::LaneChannel* ParallelExecutor::EnsureChannel(Lane* src,
                                                               Lane* dst) {
  auto key = std::make_pair(dst->site, src->site);
  auto it = channels_.find(key);
  if (it == channels_.end()) {
    auto ch = std::make_unique<LaneChannel>();
    ch->src = src;
    ch->dst = dst;
    it = channels_.emplace(std::move(key), std::move(ch)).first;
    channels_dirty_ = true;
  }
  return it->second.get();
}

void ParallelExecutor::RebuildChannelListsIfDirty() {
  if (!channels_dirty_) return;
  channels_dirty_ = false;
  for (auto& [name, lane] : lanes_) {
    lane->inbound.clear();
    lane->outbound.clear();
    lane->out_by_sym.clear();
  }
  // Map order is (dst-site, src-site): each destination's inbound list
  // comes out in canonical source order — the drain order.
  for (auto& [key, ch] : channels_) {
    ch->live = true;
    ch->dst->inbound.push_back(ch.get());
    ch->src->outbound.push_back(ch.get());
    ch->src->out_by_sym.emplace(ch->dst->sym, ch.get());
  }
}

bool ParallelExecutor::EarliestPending(TimePoint* out) {
  bool any = false;
  TimePoint earliest;
  for (auto& [name, lane] : lanes_) {
    SweepLaneTop(lane.get());
    if (lane->queue.empty()) continue;
    if (!any || lane->queue.front().when < earliest) {
      earliest = lane->queue.front().when;
      any = true;
    }
  }
  if (any) *out = earliest;
  return any;
}

void ParallelExecutor::PlanParticipants() {
  RebuildChannelListsIfDirty();
  participants_.clear();
  plan_stack_.clear();
  // Seed: lanes with work due inside the superstep span.
  for (auto& [name, lane] : lanes_) {
    SweepLaneTop(lane.get());
    lane->planned = !lane->queue.empty() &&
                    lane->queue.front().when < superstep_end_;
    if (lane->planned) plan_stack_.push_back(lane.get());
  }
  // Close over the channel graph: anything a participant can send to must
  // also run (it drains the segments). Lanes outside the closure cost this
  // superstep nothing; posts that nevertheless reach them (first contact)
  // are merged at the barrier.
  while (!plan_stack_.empty()) {
    Lane* lane = plan_stack_.back();
    plan_stack_.pop_back();
    for (LaneChannel* ch : lane->outbound) {
      if (!ch->dst->planned) {
        ch->dst->planned = true;
        plan_stack_.push_back(ch->dst);
      }
    }
  }
  for (auto& [name, lane] : lanes_) {
    lane->participating = lane->planned;
    if (!lane->planned) continue;
    lane->planned = false;
    participants_.push_back(lane.get());
  }
}

void ParallelExecutor::PlanComponents() {
  // Undirected walk over channels between participants, with each
  // component's slice of component_lanes_ as its own queue. A channel whose
  // source participates has a participating destination (the plan closure);
  // one whose source sat out carries nothing this superstep. `planned` is
  // the visited mark (PlanParticipants left it clear).
  component_lanes_.clear();
  component_begin_.clear();
  for (Lane* seed : participants_) {
    if (seed->planned) continue;
    const size_t begin = component_lanes_.size();
    component_begin_.push_back(begin);
    seed->planned = true;
    component_lanes_.push_back(seed);
    for (size_t i = begin; i < component_lanes_.size(); ++i) {
      Lane* lane = component_lanes_[i];
      for (LaneChannel* ch : lane->outbound) {
        if (!ch->dst->planned) {
          ch->dst->planned = true;
          component_lanes_.push_back(ch->dst);
        }
      }
      for (LaneChannel* ch : lane->inbound) {
        if (ch->src->participating && !ch->src->planned) {
          ch->src->planned = true;
          component_lanes_.push_back(ch->src);
        }
      }
    }
    std::sort(component_lanes_.begin() + static_cast<ptrdiff_t>(begin),
              component_lanes_.end(),
              [](const Lane* a, const Lane* b) { return a->site < b->site; });
  }
  component_begin_.push_back(component_lanes_.size());
  for (Lane* lane : participants_) lane->planned = false;
}

void ParallelExecutor::RunOneEpoch(Lane* lane, size_t epoch) {
  current_lane_ = lane;
  lane->current_epoch = epoch;
  if (epoch > 0) {
    // Drain inbound segments filled in the previous epoch, in canonical
    // source order (the inbound list's order).
    for (LaneChannel* ch : lane->inbound) {
      if (!ch->src->participating) continue;
      auto& seg = ch->segments[epoch - 1];
      for (CrossPost& post : seg) {
        PushLane(lane, post.when, std::move(post.fn), TimerPool::Ticket{},
                 post.elided);
      }
      seg.clear();
    }
  }
  const TimePoint end = epoch_end_[epoch];
  size_t steps = 0;
  for (;;) {
    SweepLaneTop(lane);
    if (lane->queue.empty() || end <= lane->queue.front().when) break;
    std::pop_heap(lane->queue.begin(), lane->queue.end(), EntryLater());
    Entry entry = std::move(lane->queue.back());
    lane->queue.pop_back();
    lane->timers.Release(entry.ticket);
    lane->now = entry.when;
    entry.fn();
    ++steps;
  }
  lane->steps_by_epoch[epoch] = steps;
  current_lane_ = nullptr;
}

void ParallelExecutor::RunComponents() {
  const size_t count = component_begin_.size() - 1;
  for (;;) {
    size_t c = next_component_.fetch_add(1, std::memory_order_relaxed);
    if (c >= count) return;
    Lane* const* first = component_lanes_.data() + component_begin_[c];
    Lane* const* last = component_lanes_.data() + component_begin_[c + 1];
    // Epoch-major: every lane of the component finishes epoch e-1 (and so
    // fills its segments e-1) before any of them drains them in epoch e.
    for (size_t e = 0; e < epochs_this_superstep_; ++e) {
      for (Lane* const* lane = first; lane != last; ++lane) {
        RunOneEpoch(*lane, e);
      }
    }
  }
}

bool ParallelExecutor::TakeSeat() {
  size_t n = seats_.load(std::memory_order_acquire);
  while (n > 0) {
    if (seats_.compare_exchange_weak(n, n - 1, std::memory_order_acquire)) {
      return true;
    }
  }
  return false;
}

void ParallelExecutor::WorkerLoop() {
  for (;;) {
    // The next superstep usually follows within a barrier's time: catch it
    // spinning, so only a quiet pool pays the condvar wakeup.
    bool seated = false;
    for (int spin = 0; spin < kSpinsBeforeSleep && !seated; ++spin) {
      seated = TakeSeat();
      if (!seated) std::this_thread::yield();
    }
    if (!seated) {
      std::unique_lock<std::mutex> lock(pool_mu_);
      work_cv_.wait(lock, [&] { return shutdown_ || TakeSeat(); });
      if (shutdown_) return;
    }
    RunComponents();
    workers_busy_.fetch_sub(1, std::memory_order_release);
  }
}

size_t ParallelExecutor::RunSuperstep(TimePoint anchor, bool has_cap,
                                      TimePoint cap) {
  // Epoch grid: depth_ lookahead-wide epochs from the anchor, truncated at
  // the cap (RunUntil's deadline). A pure function of the simulation.
  const Duration width = config_.lookahead;
  epochs_this_superstep_ = 0;
  TimePoint start = anchor;
  for (size_t e = 0; e < depth_; ++e) {
    if (has_cap && e > 0 && start >= cap) break;
    TimePoint end = start + width;
    bool truncated = false;
    if (has_cap && cap < end) {
      end = cap;
      truncated = true;
    }
    epoch_end_[e] = end;
    ++epochs_this_superstep_;
    if (truncated) break;
    start = end;
  }
  superstep_end_ = epoch_end_[epochs_this_superstep_ - 1];

  PlanParticipants();
  if (participants_.empty()) return 0;
  PlanComponents();

  superstep_clamped_ = 0;
  superstep_hard_deferred_ = 0;
  next_component_.store(0, std::memory_order_relaxed);
  // Seats to offer workers: one per component the driver will not take
  // first. A pending delivery keeps the driver busy, so then every
  // component may go to a worker.
  const size_t components = component_begin_.size() - 1;
  const size_t seats = std::min(
      workers_.size(), delivery_pending_ ? components : components - 1);
  if (seats == 0) {
    RunComponents();
  } else {
    {
      // The release store publishes the superstep state written above to
      // the seat's taker; storing under pool_mu_ keeps a worker that is
      // about to sleep from missing it.
      std::lock_guard<std::mutex> lock(pool_mu_);
      workers_busy_.store(seats, std::memory_order_relaxed);
      seats_.store(seats, std::memory_order_release);
    }
    for (size_t i = 0; i < seats; ++i) work_cv_.notify_one();
    // The previous barrier's delivery overlaps this superstep: it reads only
    // what the detach half took out of the lanes' reach. The driver joins
    // the lanes once it is done.
    RunPendingDelivery();
    RunComponents();
    // Every component is claimed; the join waits only for the ones still
    // running, so it spins instead of paying a wakeup on the critical path.
    while (workers_busy_.load(std::memory_order_acquire) != 0) {
      std::this_thread::yield();
    }
  }

  return CloseSuperstep();
}

size_t ParallelExecutor::CloseSuperstep() {
  const size_t epochs = epochs_this_superstep_;
  // Final-epoch segments were published but have no following epoch to
  // drain them; the driver does it here, same canonical order.
  for (Lane* lane : participants_) {
    for (LaneChannel* ch : lane->inbound) {
      if (!ch->src->participating) continue;
      auto& seg = ch->segments[epochs - 1];
      for (CrossPost& post : seg) {
        PushLane(lane, post.when, std::move(post.fn), TimerPool::Ticket{},
                 post.elided);
      }
      seg.clear();
    }
  }
  // Deferred posts: first contact on new channels and posts to lanes that
  // sat out the superstep. Source lanes are visited in site-name order and
  // each list in emission order — both properties of the simulation — so
  // destination sequence numbers come out identical at any thread count.
  for (Lane* src : participants_) {
    for (DeferredPost& post : src->deferred) {
      Lane* dst = EnsureLaneSym(post.dst_sym);
      EnsureChannel(src, dst);  // live from the next plan phase on
      TimePoint when = post.when;
      if (post.elided) {
        ++elided_cross_posts_;
      } else {
        ++superstep_hard_deferred_;
        TimePoint floor = epoch_end_[post.epoch];
        // A destination that ran this superstep has already executed up to
        // the superstep end; delivering earlier would rewrite its past.
        if (dst->participating && superstep_end_ > floor) {
          floor = superstep_end_;
        }
        if (when < floor) {
          when = floor;
          ++clamped_cross_posts_;
          ++superstep_clamped_;
        }
      }
      PushLane(dst, when, std::move(post.fn), TimerPool::Ticket{},
               post.elided);
    }
    src->deferred.clear();
  }
  // Fold the worker-local counters into the global stats.
  size_t total = 0;
  for (size_t e = 0; e < epochs; ++e) {
    size_t max_lane = 0;
    for (Lane* lane : participants_) {
      size_t steps = lane->steps_by_epoch[e];
      total += steps;
      max_lane = std::max(max_lane, steps);
      lane->steps_by_epoch[e] = 0;
    }
    critical_steps_ += max_lane;
  }
  for (Lane* lane : participants_) {
    cross_posts_ += lane->ep_cross;
    clamped_cross_posts_ += lane->ep_clamped;
    superstep_clamped_ += lane->ep_clamped;
    elided_cross_posts_ += lane->ep_elided;
    lane->ep_cross = lane->ep_clamped = lane->ep_elided = 0;
    lane->participating = false;
  }
  total_steps_ += total;
  windows_ += epochs;
  ++supersteps_;
  // Depth adaptation: widen the barrier spacing while traffic needed no
  // coordination (no clamps, no non-monotone first-contact deferrals),
  // back off as soon as it did. Driven by simulation stats only, so the
  // schedule stays a pure function of the simulation.
  if (superstep_clamped_ == 0 && superstep_hard_deferred_ == 0) {
    depth_ = std::min(depth_ * 2, config_.max_epochs_per_superstep);
  } else {
    depth_ = std::max<size_t>(depth_ / 2, 1);
  }
  return total;
}

void ParallelExecutor::DetachAtBarrier(TimePoint safe) {
  RunPendingDelivery();  // never two batches in flight
  detach_hook_(safe);
  delivery_pending_ = true;
  if (workers_.empty()) RunPendingDelivery();  // nothing to overlap with
}

void ParallelExecutor::RunPendingDelivery() {
  if (!delivery_pending_) return;
  delivery_pending_ = false;
  deliver_hook_();
}

size_t ParallelExecutor::RunUntil(TimePoint deadline) {
  size_t steps = 0;
  TimePoint earliest;
  // The run boundary is inclusive of `deadline` itself; epoch ends are
  // exclusive, so cap at one tick past it.
  const TimePoint cap = deadline + Duration::Millis(1);
  while (EarliestPending(&earliest) && earliest <= deadline) {
    steps += RunSuperstep(earliest, /*has_cap=*/true, cap);
    TimePoint next;
    if (detach_hook_ && EarliestPending(&next) && next <= deadline) {
      DetachAtBarrier(next);
    }
  }
  // The run's last barrier: everything before the deadline is recorded.
  // Its batch is delivered before returning, so the caller never sees an
  // undelivered prefix.
  if (detach_hook_) DetachAtBarrier(deadline);
  RunPendingDelivery();
  if (global_now_ < deadline) global_now_ = deadline;
  for (auto& [name, lane] : lanes_) {
    if (lane->now < global_now_) lane->now = global_now_;
  }
  return steps;
}

size_t ParallelExecutor::RunUntilIdle(size_t max_steps) {
  size_t steps = 0;
  TimePoint earliest;
  while (EarliestPending(&earliest)) {
    steps += RunSuperstep(earliest, /*has_cap=*/false, TimePoint());
    if (detach_hook_) {
      TimePoint next;
      if (EarliestPending(&next)) DetachAtBarrier(next);
    }
    // Superstep-granular bound: we never cut a superstep short, so the
    // count may overshoot max_steps by up to one superstep.
    if (max_steps != 0 && steps >= max_steps) break;
  }
  RunPendingDelivery();
  for (auto& [name, lane] : lanes_) {
    if (global_now_ < lane->now) global_now_ = lane->now;
  }
  for (auto& [name, lane] : lanes_) {
    if (lane->now < global_now_) lane->now = global_now_;
  }
  return steps;
}

size_t ParallelExecutor::pending_count() const {
  size_t n = 0;
  for (const auto& [name, lane] : lanes_) n += lane->queue.size();
  return n;
}

double ParallelExecutor::parallelism() const {
  if (critical_steps_ == 0) return 1.0;
  return static_cast<double>(total_steps_) /
         static_cast<double>(critical_steps_);
}

std::string ParallelExecutor::DescribeStats() const {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "parallel executor: threads=%zu lanes=%zu\n"
                "  supersteps=%llu windows=%llu parallelism=%.2f\n"
                "  cross_posts=%llu clamped=%llu elided=%llu\n",
                config_.num_threads, lanes_.size(),
                static_cast<unsigned long long>(supersteps_),
                static_cast<unsigned long long>(windows_), parallelism(),
                static_cast<unsigned long long>(cross_posts_),
                static_cast<unsigned long long>(clamped_cross_posts_),
                static_cast<unsigned long long>(elided_cross_posts_));
  return std::string(buf);
}

}  // namespace hcm::sim
