#include "src/sim/executor.h"

#include <algorithm>
#include <utility>

namespace hcm::sim {

TimerPool::Ticket TimerPool::Acquire() {
  Ticket t;
  if (!free_.empty()) {
    t.slot = free_.back();
    free_.pop_back();
  } else {
    t.slot = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  slots_[t.slot].cancelled = false;
  t.gen = slots_[t.slot].gen;
  return t;
}

void TimerPool::Cancel(const Ticket& t) {
  if (Live(t)) slots_[t.slot].cancelled = true;
}

bool TimerPool::IsCancelled(const Ticket& t) const {
  return Live(t) && slots_[t.slot].cancelled;
}

void TimerPool::Release(const Ticket& t) {
  if (!Live(t)) return;
  ++slots_[t.slot].gen;  // invalidates outstanding tickets for the slot
  free_.push_back(t.slot);
}

void Executor::Push(TimePoint when, std::function<void()> fn,
                    TimerPool::Ticket ticket) {
  if (when < now_) when = now_;
  queue_.push_back(Entry{when, next_seq_++, std::move(fn), ticket});
  std::push_heap(queue_.begin(), queue_.end(), EntryLater());
}

Executor::Entry Executor::PopTop() {
  // Caller checks cancellation against queue_.front() *before* popping:
  // releasing the ticket here recycles the slot, after which the ticket
  // reads as stale (never as cancelled).
  std::pop_heap(queue_.begin(), queue_.end(), EntryLater());
  Entry entry = std::move(queue_.back());
  queue_.pop_back();
  timers_.Release(entry.ticket);
  return entry;
}

Timer Executor::ScheduleAt(TimePoint when, std::function<void()> fn) {
  TimerPool::Ticket ticket = timers_.Acquire();
  Push(when, std::move(fn), ticket);
  return Timer(&timers_, ticket);
}

void Executor::PostAt(TimePoint when, std::function<void()> fn) {
  Push(when, std::move(fn), TimerPool::Ticket{});
}

bool Executor::Step() {
  while (!queue_.empty()) {
    bool cancelled = timers_.IsCancelled(queue_.front().ticket);
    Entry entry = PopTop();
    if (cancelled) continue;
    now_ = entry.when;
    entry.fn();
    return true;
  }
  return false;
}

size_t Executor::RunUntilIdle(size_t max_steps) {
  size_t steps = 0;
  while (Step()) {
    ++steps;
    if (max_steps != 0 && steps >= max_steps) break;
  }
  return steps;
}

size_t Executor::RunUntil(TimePoint deadline) {
  size_t steps = 0;
  while (!queue_.empty()) {
    if (timers_.IsCancelled(queue_.front().ticket)) {
      PopTop();  // sweep without copying the payload
      continue;
    }
    if (deadline < queue_.front().when) break;
    Entry entry = PopTop();
    now_ = entry.when;
    entry.fn();
    ++steps;
  }
  if (now_ < deadline) now_ = deadline;
  return steps;
}

}  // namespace hcm::sim
