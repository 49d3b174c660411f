#include "exec/thread_pool.h"

#include <algorithm>

namespace ccms::exec {

int ThreadPool::resolve_threads(int threads) {
  if (threads > 0) return threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return std::max(1, static_cast<int>(hw));
}

ThreadPool::ThreadPool(int threads) {
  const int width = resolve_threads(threads);
  workers_.reserve(static_cast<std::size_t>(width - 1));
  for (int i = 1; i < width; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::worker_loop() {
  std::uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_ready_.wait(lock,
                       [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
    }
    run_slice();
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (--inflight_ == 0) work_done_.notify_all();
    }
  }
}

void ThreadPool::run_slice() {
  // fn_/job_size_ are written before the generation bump that released this
  // thread (or before any worker started, for the caller), so reading them
  // without the lock here is safe for the duration of the job.
  const auto* fn = fn_;
  const std::size_t n = job_size_;
  while (!abort_.load(std::memory_order_relaxed)) {
    const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= n) break;
    try {
      (*fn)(i);
    } catch (...) {
      record_exception(i);
    }
  }
}

void ThreadPool::record_exception(std::size_t index) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (!error_ || index < error_index_) {
    error_ = std::current_exception();
    error_index_ = index;
  }
  abort_.store(true, std::memory_order_relaxed);
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (workers_.empty()) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    fn_ = &fn;
    job_size_ = n;
    next_.store(0, std::memory_order_relaxed);
    abort_.store(false, std::memory_order_relaxed);
    error_ = nullptr;
    inflight_ = workers_.size();
    ++generation_;
  }
  work_ready_.notify_all();
  run_slice();
  std::unique_lock<std::mutex> lock(mutex_);
  work_done_.wait(lock, [&] { return inflight_ == 0; });
  fn_ = nullptr;
  job_size_ = 0;
  if (error_) {
    std::exception_ptr error = error_;
    error_ = nullptr;
    lock.unlock();
    std::rethrow_exception(error);
  }
}

}  // namespace ccms::exec
