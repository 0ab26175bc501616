// Discrete-event simulation driver.
//
// The EventLoop is a priority queue of (time, sequence, callback) entries.
// Equal-time events fire in scheduling order, which keeps runs deterministic.
//
// Callbacks live in a slab of slots; the heap orders plain (time, sequence,
// slot) records, so heap maintenance never touches a callback. A TimerId
// names its slot and its sequence number, which makes Cancel an O(1) check
// of the slot: cancelling destroys the callback at once and leaves the heap
// record as a tombstone that frees the slot when it surfaces.
#ifndef SRC_SIM_EVENT_LOOP_H_
#define SRC_SIM_EVENT_LOOP_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/sim/time.h"

namespace rose {

using TimerId = uint64_t;
inline constexpr TimerId kInvalidTimer = 0;

class EventLoop {
 public:
  EventLoop() = default;
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  SimTime now() const { return now_; }

  // Schedules `fn` to run at absolute virtual time `when` (clamped to now).
  TimerId ScheduleAt(SimTime when, std::function<void()> fn);

  // Schedules `fn` to run `delay` after the current virtual time.
  TimerId ScheduleAfter(SimTime delay, std::function<void()> fn) {
    return ScheduleAt(now_ + delay, std::move(fn));
  }

  // Cancels a pending timer. Cancelling an already-fired, already-cancelled
  // or invalid timer is a no-op.
  void Cancel(TimerId id);

  // Runs a single event. Returns false if the queue is empty or the loop halted.
  bool Step();

  // Runs until the queue drains, `until` is passed, or Halt() is called.
  // Returns the number of events executed.
  uint64_t RunUntil(SimTime until);

  // Runs until the queue drains or Halt() is called.
  uint64_t RunToCompletion() { return RunUntil(kSimTimeMax); }

  // Advances the clock from within a running handler (used by the kernel to
  // charge virtual syscall cost). Events already queued at earlier times run
  // "late" but never move the clock backwards.
  void AdvanceBy(SimTime delta) { now_ += delta; }

  // Stops the loop at the next event boundary.
  void Halt() { halted_ = true; }
  bool halted() const { return halted_; }

  size_t pending_events() const { return live_events_; }

 private:
  struct HeapEntry {
    SimTime when;
    uint64_t seq;
    uint32_t slot;
  };
  struct Slot {
    std::function<void()> fn;
    // The id of the event this slot holds; kInvalidTimer once it fired or
    // was cancelled (the slot stays reserved until its heap entry pops).
    TimerId id = kInvalidTimer;
  };

  static TimerId MakeId(uint64_t seq, uint32_t slot) {
    return (seq << 32) | slot;
  }
  static bool Later(const HeapEntry& a, const HeapEntry& b) {
    return a.when != b.when ? a.when > b.when : a.seq > b.seq;
  }
  // Pops the heap's top entry and returns it; the caller owns its slot.
  HeapEntry PopTop();
  // Drops cancelled entries from the top of the heap, freeing their slots.
  void PurgeCancelledTop();

  SimTime now_ = 0;
  uint64_t next_seq_ = 1;
  bool halted_ = false;
  size_t live_events_ = 0;
  std::vector<HeapEntry> heap_;
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
};

}  // namespace rose

#endif  // SRC_SIM_EVENT_LOOP_H_
