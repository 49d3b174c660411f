// Minimal fixed-size thread pool for the deterministic batch executor.
//
// Deliberately work-stealing-free: parallel_for hands out indices from one
// atomic counter, so which *thread* runs an index is nondeterministic, but
// nothing in the pool's API exposes thread identity — callers that keep
// per-index (or per-chunk) results and combine them in index order get
// bitwise-identical output for any pool size (see exec/parallel.h).
//
// One job runs at a time; the calling thread participates, so a pool of
// size 1 owns no worker threads at all and parallel_for degenerates to a
// plain sequential loop on the caller.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ccms::exec {

class ThreadPool {
 public:
  /// `threads` <= 0 means std::thread::hardware_concurrency() (at least 1).
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total execution width: worker threads + the participating caller.
  [[nodiscard]] int size() const {
    return static_cast<int>(workers_.size()) + 1;
  }

  /// Resolves a `threads` knob: <= 0 -> hardware_concurrency (min 1).
  [[nodiscard]] static int resolve_threads(int threads);

  /// Runs fn(0) .. fn(n-1), each exactly once, across the pool and the
  /// calling thread. Blocks until every index finished. If any invocation
  /// throws, threads stop picking up new indices and the exception of the
  /// lowest throwing index is rethrown here. Indices are claimed in
  /// ascending order, so every index below a thrower has run: that is the
  /// exception a sequential loop would throw, whatever the timing. The pool
  /// stays usable.
  /// Not reentrant: fn must not call parallel_for on the same pool.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();
  void run_slice();
  void record_exception(std::size_t index);

  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable work_ready_;  ///< caller -> workers
  std::condition_variable work_done_;   ///< workers -> caller
  const std::function<void(std::size_t)>* fn_ = nullptr;  // guarded by mutex_
  std::size_t job_size_ = 0;                              // guarded by mutex_
  std::uint64_t generation_ = 0;  ///< bumped per job (guarded by mutex_)
  std::size_t inflight_ = 0;      ///< workers still on the current job
  std::exception_ptr error_;      // guarded by mutex_
  std::size_t error_index_ = 0;   ///< index that threw error_ (mutex_)
  bool stop_ = false;

  std::atomic<std::size_t> next_{0};  ///< next unclaimed index
  std::atomic<bool> abort_{false};    ///< a task threw; stop claiming work
};

}  // namespace ccms::exec
