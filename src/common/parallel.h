// rose::parallel — a fixed-size worker pool plus an ordered batch primitive,
// built for deterministic speculative execution of independent simulation
// runs (diagnosis candidates, confirmation reruns).
//
// Determinism model: callers pre-assign every task its inputs (schedule,
// seed) *before* submission, submit a batch, and then consume results
// strictly in submission order. Because each task is a pure function of its
// pre-assigned inputs, the consumed result stream is identical whether the
// batch runs on one thread or many — parallelism only changes wall-clock
// time, never outcomes. Abandon() lets a consumer that has seen enough
// (budget reached, bug confirmed, early-abandon) drop all not-yet-started
// tasks; tasks already running finish and their results are discarded.
#ifndef SRC_COMMON_PARALLEL_H_
#define SRC_COMMON_PARALLEL_H_

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

namespace rose {

// Fixed-size pool of worker threads draining a FIFO job queue. Jobs are
// plain closures; lifetime of anything they capture is the submitter's
// responsibility (OrderedBatch below handles that via shared state).
class WorkerPool {
 public:
  explicit WorkerPool(int threads);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  int thread_count() const { return static_cast<int>(workers_.size()); }

  // Enqueues a job. Never blocks; jobs run in FIFO submission order as
  // workers free up. Must not be called after destruction begins.
  void Enqueue(std::function<void()> job);

  // The machine's hardware concurrency, with a floor of 1 (the C++ runtime
  // may report 0 when it cannot tell).
  static int DefaultParallelism();

 private:
  void WorkerLoop();

  std::mutex mutex_;
  std::condition_variable wake_;
  std::deque<std::function<void()>> queue_;
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
};

// A batch of tasks with strictly ordered result consumption.
//
// Serial mode (pool == nullptr or a pool with <= 1 thread and `inline_when_serial`):
// nothing runs until Get(i) is called, which executes task i inline — the
// exact lazy behavior of a serial loop, including never executing tasks the
// consumer abandons. Parallel mode: all tasks are enqueued up front
// (speculatively) and Get(i) blocks until slot i completes.
//
// Contract: Get(i) must be called for i = 0, 1, 2, ... in order, and never
// after Abandon(). Abandon() frees every result not yet taken. The
// destructor abandons outstanding tasks and waits for in-flight ones, so
// task closures may safely reference the caller's stack.
template <typename R>
class OrderedBatch {
 public:
  OrderedBatch(WorkerPool* pool, std::vector<std::function<R()>> tasks)
      : state_(std::make_shared<State>()) {
    state_->tasks = std::move(tasks);
    state_->results.resize(state_->tasks.size());
    state_->status.assign(state_->tasks.size(), kPending);
    if (pool != nullptr && pool->thread_count() > 1) {
      for (size_t i = 0; i < state_->tasks.size(); i++) {
        pool->Enqueue([state = state_, i] { RunSlot(*state, i); });
      }
      parallel_ = true;
    }
  }

  ~OrderedBatch() {
    Abandon();
    // Wait for in-flight tasks: their closures may reference our caller's
    // frame, which dies right after this destructor.
    std::unique_lock<std::mutex> lock(state_->mutex);
    state_->done_cv.wait(lock, [this] { return NoneRunning(*state_); });
  }

  OrderedBatch(const OrderedBatch&) = delete;
  OrderedBatch& operator=(const OrderedBatch&) = delete;

  size_t size() const { return state_->tasks.size(); }

  // Result of task i. Serial mode: runs the task now. Parallel mode: blocks
  // until the speculative execution of slot i lands.
  R& Get(size_t i) {
    if (!parallel_) {
      if (state_->status[i] != kDone) {
        state_->results[i].emplace(state_->tasks[i]());
        state_->status[i] = kDone;
      }
      return *state_->results[i];
    }
    std::unique_lock<std::mutex> lock(state_->mutex);
    state_->done_cv.wait(lock, [&] { return state_->status[i] >= kDone; });
    if (state_->status[i] == kSkipped) {
      // Abandoned before it started (only reachable when the caller breaks
      // the consume-in-order contract); run it inline as a fallback.
      lock.unlock();
      state_->results[i].emplace(state_->tasks[i]());
      state_->status[i] = kDone;
    }
    return *state_->results[i];
  }

  // Drops every task that has not started and frees every landed result; a
  // task still running has its result dropped when it finishes. Safe to
  // call repeatedly.
  void Abandon() {
    std::lock_guard<std::mutex> lock(state_->mutex);
    state_->abandoned = true;
    for (std::optional<R>& result : state_->results) {
      result.reset();
    }
  }

  // True when no task is running. After Abandon() no task starts any more,
  // so an idle abandoned batch is destroyed without waiting.
  bool Idle() const {
    std::lock_guard<std::mutex> lock(state_->mutex);
    return NoneRunning(*state_);
  }

 private:
  enum : uint8_t { kPending = 0, kRunning, kDone, kSkipped };

  struct State {
    std::mutex mutex;
    std::condition_variable done_cv;
    std::vector<std::function<R()>> tasks;
    std::vector<std::optional<R>> results;
    std::vector<uint8_t> status;
    bool abandoned = false;
  };

  // Caller holds state.mutex.
  static bool NoneRunning(const State& state) {
    return std::find(state.status.begin(), state.status.end(), kRunning) == state.status.end();
  }

  static void RunSlot(State& state, size_t i) {
    {
      std::lock_guard<std::mutex> lock(state.mutex);
      if (state.abandoned || state.status[i] != kPending) {
        state.status[i] = kSkipped;
        state.done_cv.notify_all();
        return;
      }
      state.status[i] = kRunning;
    }
    R result = state.tasks[i]();
    {
      std::lock_guard<std::mutex> lock(state.mutex);
      if (!state.abandoned) {
        state.results[i].emplace(std::move(result));
      }
      state.status[i] = kDone;
      state.done_cv.notify_all();
    }
  }

  std::shared_ptr<State> state_;
  bool parallel_ = false;
};

}  // namespace rose

#endif  // SRC_COMMON_PARALLEL_H_
