#include "ppg/util/thread_pool.hpp"

#include <algorithm>
#include <utility>

namespace ppg {

thread_pool::thread_pool(std::size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

thread_pool::~thread_pool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  task_ready_.notify_all();
  for (auto& worker : workers_) {
    worker.join();
  }
}

void thread_pool::submit(std::function<void()> task) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
  }
  task_ready_.notify_one();
}

void thread_pool::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
}

std::size_t thread_pool::queued() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

std::size_t thread_pool::active() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return in_flight_;
}

void thread_pool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      task_ready_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        return;  // stopping_ and drained
      }
      task = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
    }
    task();
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) {
        idle_.notify_all();
      }
    }
  }
}

}  // namespace ppg
