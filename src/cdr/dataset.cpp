#include "cdr/dataset.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>

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

  // Max car id, study end and whether the records already ascend. The
  // maxima are elementwise, so the chunked merge is order-insensitive and
  // exact; the order check compares every record with its predecessor,
  // across chunk boundaries too.
  const ByCarThenStart before;
  std::uint32_t max_car = 0;
  time::Seconds max_end = 0;
  bool ascending = true;
  if (pool != nullptr) {
    struct MaxAcc {
      std::uint32_t car = 0;
      time::Seconds end = 0;
      bool ascending = true;
    };
    const MaxAcc acc = exec::parallel_reduce(
        *pool, records_.size(), std::size_t{1} << 16, [] { return MaxAcc{}; },
        [&](MaxAcc& a, std::size_t i) {
          a.car = std::max(a.car, records_[i].car.value);
          a.end = std::max(a.end, records_[i].end());
          if (i > 0 && before(records_[i], records_[i - 1])) {
            a.ascending = false;
          }
        },
        [](MaxAcc& into, MaxAcc&& from) {
          into.car = std::max(into.car, from.car);
          into.end = std::max(into.end, from.end);
          into.ascending = into.ascending && from.ascending;
        });
    max_car = acc.car;
    max_end = acc.end;
    ascending = acc.ascending;
  } else {
    for (std::size_t i = 0; i < records_.size(); ++i) {
      max_car = std::max(max_car, records_[i].car.value);
      max_end = std::max(max_end, records_[i].end());
      if (i > 0 && before(records_[i], records_[i - 1])) ascending = false;
    }
  }

  // A fleet holding car UINT32_MAX needs 2^32 ids, one more than
  // fleet_size_ counts: max_car + 1 below would wrap to 0.
  if (max_car == std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument("Dataset::finalize: car id " +
                                std::to_string(max_car) +
                                " leaves no uint32 fleet size to count it");
  }

  // (car, start) record order. ByCarThenStart is a total order, so the
  // stable sort here and the chunked merge sort agree bitwise, and on
  // records that already ascend both are the identity: skip them.
  if (!ascending) {
    if (pool != nullptr) {
      exec::parallel_stable_sort(*pool, records_, before);
    } else {
      std::stable_sort(records_.begin(), records_.end(), before);
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
