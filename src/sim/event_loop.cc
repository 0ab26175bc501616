#include "src/sim/event_loop.h"

#include <algorithm>
#include <utility>

namespace rose {

TimerId EventLoop::ScheduleAt(SimTime when, std::function<void()> fn) {
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
  const TimerId id = MakeId(seq, slot);
  slots_[slot].fn = std::move(fn);
  slots_[slot].id = id;
  heap_.push_back(HeapEntry{when, seq, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later);
  live_events_++;
  return id;
}

void EventLoop::Cancel(TimerId id) {
  const auto slot = static_cast<uint32_t>(id & 0xffffffffULL);
  if (id == kInvalidTimer || slot >= slots_.size() || slots_[slot].id != id) {
    return;
  }
  slots_[slot].id = kInvalidTimer;
  slots_[slot].fn = nullptr;
  live_events_--;
}

EventLoop::HeapEntry EventLoop::PopTop() {
  std::pop_heap(heap_.begin(), heap_.end(), Later);
  const HeapEntry top = heap_.back();
  heap_.pop_back();
  return top;
}

void EventLoop::PurgeCancelledTop() {
  while (!heap_.empty()) {
    const HeapEntry& top = heap_.front();
    if (slots_[top.slot].id == MakeId(top.seq, top.slot)) {
      return;
    }
    free_slots_.push_back(PopTop().slot);
  }
}

bool EventLoop::Step() {
  if (halted_) {
    return false;
  }
  PurgeCancelledTop();
  if (heap_.empty()) {
    return false;
  }
  const HeapEntry entry = PopTop();
  Slot& slot = slots_[entry.slot];
  // Take the callback out before running it: it may schedule events that
  // reuse this slot or grow the slab.
  std::function<void()> fn = std::move(slot.fn);
  slot.fn = nullptr;
  slot.id = kInvalidTimer;
  free_slots_.push_back(entry.slot);
  live_events_--;
  if (entry.when > now_) {
    now_ = entry.when;
  }
  fn();
  return true;
}

uint64_t EventLoop::RunUntil(SimTime until) {
  uint64_t executed = 0;
  while (!halted_) {
    // Purge cancelled entries first so the horizon check below inspects a
    // live event — otherwise Step() would skip the tombstone and run an
    // event beyond `until`.
    PurgeCancelledTop();
    if (heap_.empty() || heap_.front().when > until) {
      break;
    }
    if (!Step()) {
      break;
    }
    executed++;
  }
  if (!halted_ && now_ < until && until != kSimTimeMax) {
    now_ = until;
  }
  return executed;
}

}  // namespace rose
