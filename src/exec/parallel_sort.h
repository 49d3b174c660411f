// Deterministic parallel merge sort for the front of the pipeline
// (Dataset::finalize's record sort).
//
// The determinism argument extends exec/parallel.h's: the input is cut into
// fixed-size chunks, each chunk is stable-sorted independently, and adjacent
// runs are combined level by level with *stable* pairwise merges
// (std::merge takes from the left run on ties). A stable merge sort's
// output is the unique stable ordering of the input — elements ordered by
// key, ties by original position — so the result does not depend on the
// chunk partition, the merge tree, or how many threads execute it. With a
// total-order comparator (cdr::ByCarThenStart compares every field) the
// result is additionally identical to std::sort's.
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "exec/thread_pool.h"

namespace ccms::exec {

/// Default chunk width for parallel sorting: large enough that per-chunk
/// std::stable_sort dominates the merge overhead, small enough to spread a
/// finalize-sized sort across 8+ threads.
inline constexpr std::size_t kDefaultSortChunk = std::size_t{1} << 15;

/// Stable-sorts `v` in place using `pool`. Equivalent to
/// std::stable_sort(v.begin(), v.end(), cmp) — bitwise, for every pool
/// width and chunk size — because stable chunk sorts + stable pairwise
/// merges reproduce the unique stable ordering regardless of partition.
template <typename T, typename Cmp>
void parallel_stable_sort(ThreadPool& pool, std::vector<T>& v, Cmp cmp,
                          std::size_t chunk_size = kDefaultSortChunk) {
  chunk_size = std::max<std::size_t>(1, chunk_size);
  const std::size_t n = v.size();
  if (n <= chunk_size || pool.size() == 1) {
    std::stable_sort(v.begin(), v.end(), cmp);
    return;
  }

  const std::size_t chunks = (n + chunk_size - 1) / chunk_size;
  pool.parallel_for(chunks, [&](std::size_t c) {
    const std::size_t begin = c * chunk_size;
    const std::size_t end = std::min(n, begin + chunk_size);
    std::stable_sort(v.begin() + static_cast<std::ptrdiff_t>(begin),
                     v.begin() + static_cast<std::ptrdiff_t>(end), cmp);
  });

  // Level-by-level pairwise merges between ping-pong buffers. Each level
  // doubles the sorted-run width; runs without a right-hand partner are
  // copied through unchanged.
  std::vector<T> scratch(n);
  std::vector<T>* src = &v;
  std::vector<T>* dst = &scratch;
  for (std::size_t width = chunk_size; width < n; width *= 2) {
    const std::size_t pairs = (n + 2 * width - 1) / (2 * width);
    pool.parallel_for(pairs, [&](std::size_t p) {
      const std::size_t lo = p * 2 * width;
      const std::size_t mid = std::min(n, lo + width);
      const std::size_t hi = std::min(n, lo + 2 * width);
      const auto b = src->begin();
      auto out = dst->begin() + static_cast<std::ptrdiff_t>(lo);
      if (mid == hi) {
        std::move(b + static_cast<std::ptrdiff_t>(lo),
                  b + static_cast<std::ptrdiff_t>(hi), out);
      } else {
        std::merge(std::make_move_iterator(b + static_cast<std::ptrdiff_t>(lo)),
                   std::make_move_iterator(b + static_cast<std::ptrdiff_t>(mid)),
                   std::make_move_iterator(b + static_cast<std::ptrdiff_t>(mid)),
                   std::make_move_iterator(b + static_cast<std::ptrdiff_t>(hi)),
                   out, cmp);
      }
    });
    std::swap(src, dst);
  }
  if (src != &v) v.swap(scratch);
}

}  // namespace ccms::exec
