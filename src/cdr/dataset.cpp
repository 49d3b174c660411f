#include "cdr/dataset.h"

#include <algorithm>
#include <numeric>

#include "exec/parallel.h"
#include "exec/parallel_sort.h"
#include "exec/thread_pool.h"

namespace ccms::cdr {

void Dataset::add(const Connection& c) {
  records_.push_back(c);
  finalized_ = false;
}

void Dataset::add(std::span<const Connection> records) {
  // Bulk chunks (ingest hands whole parsed chunks over) get an exact
  // reserve, avoiding the up-to-2x overshoot of growth doubling on the last
  // reallocation. Small spans keep the geometric growth path so repeated
  // tiny adds stay amortized O(1).
  if (records.size() > records_.size() / 2 &&
      records_.capacity() - records_.size() < records.size()) {
    records_.reserve(records_.size() + records.size());
  }
  records_.insert(records_.end(), records.begin(), records.end());
  finalized_ = false;
}

void Dataset::finalize() { finalize_impl(nullptr); }

void Dataset::finalize(exec::ThreadPool& pool) { finalize_impl(&pool); }

void Dataset::finalize_impl(exec::ThreadPool* pool) {
  if (finalized_) return;

  // (car, start) record order. ByCarThenStart is a total order, so the
  // stable sort here and the chunked merge sort agree bitwise.
  if (pool != nullptr) {
    exec::parallel_stable_sort(*pool, records_, ByCarThenStart{});
  } else {
    std::stable_sort(records_.begin(), records_.end(), ByCarThenStart{});
  }

  // Max car id / study end. Both reductions take elementwise maxima, so the
  // chunked merge is order-insensitive and exact.
  std::uint32_t max_car = 0;
  time::Seconds max_end = 0;
  if (pool != nullptr) {
    struct MaxAcc {
      std::uint32_t car = 0;
      time::Seconds end = 0;
    };
    const MaxAcc acc = exec::parallel_reduce(
        *pool, records_.size(), std::size_t{1} << 16, [] { return MaxAcc{}; },
        [&](MaxAcc& a, std::size_t i) {
          a.car = std::max(a.car, records_[i].car.value);
          a.end = std::max(a.end, records_[i].end());
        },
        [](MaxAcc& into, MaxAcc&& from) {
          into.car = std::max(into.car, from.car);
          into.end = std::max(into.end, from.end);
        });
    max_car = acc.car;
    max_end = acc.end;
  } else {
    for (const Connection& c : records_) {
      max_car = std::max(max_car, c.car.value);
      max_end = std::max(max_end, c.end());
    }
  }
  if (!records_.empty() && fleet_size_ < max_car + 1) {
    fleet_size_ = max_car + 1;
  }
  if (study_days_ == 0 && max_end > 0) {
    study_days_ = static_cast<int>(
        (max_end + time::kSecondsPerDay - 1) / time::kSecondsPerDay);
  }

  // Per-car offset table: car_offsets_[k] = number of records with car < k,
  // i.e. the lower-bound index of car k in the sorted records. The
  // sequential build counts + prefix-sums; the parallel build binary-
  // searches each id independently. Both produce the identical table.
  car_offsets_.assign(static_cast<std::size_t>(fleet_size_) + 1, 0);
  if (pool != nullptr) {
    constexpr std::size_t kIdBlock = 4096;
    const std::size_t slots = car_offsets_.size();
    const std::size_t blocks = (slots + kIdBlock - 1) / kIdBlock;
    pool->parallel_for(blocks, [&](std::size_t blk) {
      const std::size_t lo = blk * kIdBlock;
      const std::size_t hi = std::min(slots, lo + kIdBlock);
      auto it = std::lower_bound(
          records_.begin(), records_.end(), lo,
          [](const Connection& c, std::size_t car) { return c.car.value < car; });
      for (std::size_t k = lo; k < hi; ++k) {
        while (it != records_.end() && it->car.value < k) ++it;
        car_offsets_[k] = static_cast<std::uint64_t>(it - records_.begin());
      }
    });
  } else {
    for (const Connection& c : records_) {
      ++car_offsets_[c.car.value + 1];
    }
    std::partial_sum(car_offsets_.begin(), car_offsets_.end(),
                     car_offsets_.begin());
  }

  finalized_ = true;
}

void Dataset::shrink_to_fit() {
  records_.shrink_to_fit();
  car_offsets_.shrink_to_fit();
}

std::span<const Connection> Dataset::of_car(CarId car) const {
  if (car.value >= fleet_size_ || car_offsets_.empty()) return {};
  const auto lo = car_offsets_[car.value];
  const auto hi = car_offsets_[car.value + 1];
  return {records_.data() + lo, hi - lo};
}

void Dataset::set_fleet_size(std::uint32_t n) {
  fleet_size_ = n;
  finalized_ = false;
}

std::size_t Dataset::distinct_cells() const {
  std::vector<std::uint32_t> cells(records_.size());
  std::transform(records_.begin(), records_.end(), cells.begin(),
                 [](const Connection& c) { return c.cell.value; });
  std::sort(cells.begin(), cells.end());
  return static_cast<std::size_t>(
      std::unique(cells.begin(), cells.end()) - cells.begin());
}

}  // namespace ccms::cdr
