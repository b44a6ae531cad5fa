// A small fixed-size worker pool for CPU-bound simulation batches.
//
// Design constraints, in order: (1) determinism of the *caller* must never
// depend on scheduling — the pool only promises that every submitted task
// runs exactly once and that wait_idle() observes all side effects; (2) zero
// dependencies beyond <thread>; (3) graceful teardown (the destructor drains
// the queue). Throughput niceties (work stealing, task batching) are left to
// future scaling PRs — the batch engine amortizes task-queue overhead by
// submitting one task per worker, not one per replica.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ppg {

class thread_pool {
 public:
  /// Spawns `num_threads` workers; 0 means std::thread::hardware_concurrency
  /// (itself clamped to at least 1).
  explicit thread_pool(std::size_t num_threads = 0);

  /// Joins all workers after finishing every queued task.
  ~thread_pool();

  thread_pool(const thread_pool&) = delete;
  thread_pool& operator=(const thread_pool&) = delete;

  /// Enqueues a task. Tasks must not throw; wrap fallible work and capture
  /// errors explicitly (the batch engine does).
  void submit(std::function<void()> task);

  /// Blocks until the queue is empty and no task is executing.
  void wait_idle();

  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  /// Tasks submitted but not yet picked up by a worker. A point-in-time
  /// reading (the queue drains concurrently); exact only when the caller
  /// knows no worker is dequeuing — its consumers (the ppg-serve /stats
  /// endpoint, the fair scheduler's depth probe) want a load gauge, not a
  /// synchronization primitive.
  [[nodiscard]] std::size_t queued() const;

  /// Tasks currently executing on a worker. Same point-in-time caveat as
  /// queued(); queued() + active() == 0 after wait_idle() returns with no
  /// concurrent submitters, which is what the determinism tests pin.
  [[nodiscard]] std::size_t active() const;

 private:
  void worker_loop();

  mutable std::mutex mutex_;
  std::condition_variable task_ready_;
  std::condition_variable idle_;
  std::deque<std::function<void()>> queue_;
  std::size_t in_flight_ = 0;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace ppg
