// Deterministic parallel reduction over indexed items (Dataset::finalize's
// maxima and distinct-cell count).
//
// The contract that makes the result bitwise identical for any thread count:
//
//   1. Items [0, n) are cut into fixed-size chunks. Chunk boundaries depend
//      only on n and chunk_size — never on how many threads execute them.
//   2. Each chunk folds its items sequentially, in ascending index order,
//      into a chunk-local accumulator.
//   3. Chunk accumulators merge left-to-right in ascending chunk order.
//
// Threads only decide *when* a chunk is computed, never *what* is computed
// or in which order results combine, so every floating-point operation
// sequence is identical across pool sizes (including 1).
#pragma once

#include <algorithm>
#include <cstddef>
#include <optional>
#include <vector>

#include "exec/thread_pool.h"

namespace ccms::exec {

/// Folds items [0, n) into one accumulator. `make()` builds an empty
/// accumulator, `fold(acc, i)` integrates item i, `merge(into, from)`
/// combines two chunk accumulators whose item ranges are adjacent (`from`
/// strictly after `into`). Returns make() for n == 0.
template <typename MakeFn, typename FoldFn, typename MergeFn>
auto parallel_reduce(ThreadPool& pool, std::size_t n, std::size_t chunk_size,
                     const MakeFn& make, const FoldFn& fold,
                     const MergeFn& merge) {
  using Acc = decltype(make());
  chunk_size = std::max<std::size_t>(1, chunk_size);
  const std::size_t chunks = (n + chunk_size - 1) / chunk_size;
  if (chunks <= 1) {
    Acc acc = make();
    for (std::size_t i = 0; i < n; ++i) fold(acc, i);
    return acc;
  }

  std::vector<std::optional<Acc>> parts(chunks);
  pool.parallel_for(chunks, [&](std::size_t c) {
    Acc acc = make();
    const std::size_t begin = c * chunk_size;
    const std::size_t end = std::min(n, begin + chunk_size);
    for (std::size_t i = begin; i < end; ++i) fold(acc, i);
    parts[c].emplace(std::move(acc));
  });

  Acc result = std::move(*parts[0]);
  for (std::size_t c = 1; c < chunks; ++c) {
    merge(result, std::move(*parts[c]));
  }
  return result;
}

}  // namespace ccms::exec
