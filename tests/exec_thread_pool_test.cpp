// Unit tests of the deterministic executor: exec::ThreadPool and the
// chunked reductions in exec/parallel.h.
#include "exec/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exec/parallel.h"

namespace ccms::exec {
namespace {

TEST(ThreadPoolTest, EmptyInputRunsNothing) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  pool.parallel_for(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPoolTest, SingleItem) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  std::size_t seen = 999;
  pool.parallel_for(1, [&](std::size_t i) {
    ++calls;
    seen = i;
  });
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(seen, 0u);
}

TEST(ThreadPoolTest, EachIndexRunsExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 10'000;  // far more items than threads
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(kN, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, PoolOfOneOwnsNoWorkers) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1);
  std::vector<int> order;
  pool.parallel_for(5, [&](std::size_t i) {
    order.push_back(static_cast<int>(i));  // caller thread => no data race
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPoolTest, ExceptionPropagatesAndPoolStaysUsable) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(100,
                        [&](std::size_t i) {
                          if (i == 37) throw std::runtime_error("boom");
                        }),
      std::runtime_error);

  // The pool must survive a throwing job and run the next one fully.
  std::atomic<int> calls{0};
  pool.parallel_for(100, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 100);
}

TEST(ThreadPoolTest, LowestThrowingIndexWinsOverFirstToThrow) {
  // Index 3 throws first; index 0 throws only after it. The rethrown
  // exception is still index 0's, the one a sequential loop throws.
  ThreadPool pool(4);
  std::atomic<bool> three_threw{false};
  std::string caught;
  try {
    pool.parallel_for(4, [&](std::size_t i) {
      if (i == 3) {
        three_threw = true;
        throw std::runtime_error("index 3");
      }
      if (i != 0) return;
      const auto give_up =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (!three_threw && std::chrono::steady_clock::now() < give_up) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      // Let index 3's exception reach the pool before this one does.
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      throw std::runtime_error("index 0");
    });
  } catch (const std::runtime_error& e) {
    caught = e.what();
  }
  EXPECT_TRUE(three_threw.load());
  EXPECT_EQ(caught, "index 0");
}

TEST(ThreadPoolTest, ResolveThreads) {
  EXPECT_GE(ThreadPool::resolve_threads(0), 1);
  EXPECT_GE(ThreadPool::resolve_threads(-3), 1);
  EXPECT_EQ(ThreadPool::resolve_threads(1), 1);
  EXPECT_EQ(ThreadPool::resolve_threads(6), 6);
}

TEST(ParallelReduceTest, MatchesSequentialSum) {
  std::vector<double> values(1000);
  std::iota(values.begin(), values.end(), 0.5);
  const double expected = std::accumulate(values.begin(), values.end(), 0.0);

  for (const int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    const double sum = parallel_reduce(
        pool, values.size(), /*chunk_size=*/64, [] { return 0.0; },
        [&](double& acc, std::size_t i) { acc += values[i]; },
        [](double& into, double from) { into += from; });
    // Same chunk boundaries and merge order for every pool size => the
    // exact same floating-point operation sequence, hence bitwise equality.
    EXPECT_EQ(sum, expected) << "threads=" << threads;
  }
}

TEST(ParallelReduceTest, ConcatenationPreservesIndexOrder) {
  constexpr std::size_t kN = 503;  // not a multiple of the chunk size
  for (const int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    const std::vector<std::size_t> out = parallel_reduce(
        pool, kN, /*chunk_size=*/16, [] { return std::vector<std::size_t>{}; },
        [](std::vector<std::size_t>& acc, std::size_t i) { acc.push_back(i); },
        [](std::vector<std::size_t>& into, std::vector<std::size_t> from) {
          into.insert(into.end(), from.begin(), from.end());
        });
    ASSERT_EQ(out.size(), kN);
    for (std::size_t i = 0; i < kN; ++i) ASSERT_EQ(out[i], i);
  }
}

TEST(ParallelReduceTest, ZeroItemsReturnsEmptyAccumulator) {
  ThreadPool pool(4);
  const int acc = parallel_reduce(
      pool, 0, 64, [] { return 42; },
      [](int&, std::size_t) { FAIL() << "fold must not run"; },
      [](int&, int) { FAIL() << "merge must not run"; });
  EXPECT_EQ(acc, 42);
}

}  // namespace
}  // namespace ccms::exec
