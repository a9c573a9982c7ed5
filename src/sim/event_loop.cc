#include "src/sim/event_loop.h"

#include <algorithm>
#include <utility>

namespace rose {

TimerId EventLoop::ScheduleAt(SimTime when, EventCallback fn) {
  if (when < now_) {
    when = now_;
  }
  uint32_t slot = 0;
  if (free_slots_.empty()) {
    slot = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  const uint64_t seq = next_seq_++;
  Slot& entry = slots_[slot];
  entry.fn = std::move(fn);
  entry.seq = seq;
  live_++;
  heap_.push_back(HeapEntry{when, seq, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later);
  return (static_cast<TimerId>(entry.generation) << 32) | slot;
}

void EventLoop::FreeSlot(uint32_t slot) {
  Slot& entry = slots_[slot];
  entry.seq = 0;
  entry.generation = entry.generation == UINT32_MAX ? 1 : entry.generation + 1;
  free_slots_.push_back(slot);
  live_--;
}

void EventLoop::Cancel(TimerId id) {
  const auto slot = static_cast<uint32_t>(id);
  const auto generation = static_cast<uint32_t>(id >> 32);
  if (slot >= slots_.size() || slots_[slot].seq == 0 ||
      slots_[slot].generation != generation) {
    return;  // Invalid, already fired, or already cancelled.
  }
  slots_[slot].fn.Reset();
  FreeSlot(slot);
}

void EventLoop::SkipCancelled() {
  while (!heap_.empty() && slots_[heap_.front().slot].seq != heap_.front().seq) {
    std::pop_heap(heap_.begin(), heap_.end(), Later);
    heap_.pop_back();
  }
}

void EventLoop::FireTop() {
  const HeapEntry top = heap_.front();
  std::pop_heap(heap_.begin(), heap_.end(), Later);
  heap_.pop_back();
  if (top.when > now_) {
    now_ = top.when;
  }
  // Move the callback out and retire its slot before running it: the
  // callback may schedule (growing the slab) or cancel its own, now stale, id.
  EventCallback fn = std::move(slots_[top.slot].fn);
  FreeSlot(top.slot);
  fn();
}

bool EventLoop::Step() {
  if (halted_) {
    return false;
  }
  SkipCancelled();
  if (heap_.empty()) {
    return false;
  }
  FireTop();
  return true;
}

uint64_t EventLoop::RunUntil(SimTime until) {
  uint64_t executed = 0;
  while (!halted_) {
    // Purge cancelled entries first so the horizon check below inspects a
    // live event, never one beyond `until`.
    SkipCancelled();
    if (heap_.empty() || heap_.front().when > until) {
      break;
    }
    FireTop();
    executed++;
  }
  if (!halted_ && now_ < until && until != kSimTimeMax) {
    now_ = until;
  }
  return executed;
}

}  // namespace rose
