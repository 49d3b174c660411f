// In-memory CDR dataset: records stored once, sorted by (car, start).
//
// Every §4 analysis is a fold over per-car spans (core/passes.h), so the
// Dataset keeps one record order and a car -> offset table. The one
// per-cell reader, Fig 8's single-cell day view, scans all() for its cell.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "cdr/record.h"

namespace ccms::exec {
class ThreadPool;
}

namespace ccms::cdr {

/// Owning container of connection records.
class Dataset {
 public:
  Dataset() = default;

  /// Appends a record. Call finalize() before reading.
  void add(const Connection& c);

  /// Bulk append.
  void add(std::span<const Connection> records);

  /// Reserve capacity for `n` records.
  void reserve(std::size_t n) { records_.reserve(n); }

  /// Trims storage capacity to size. Call after the final finalize() on
  /// datasets that will live long (ingest over-reserves from size hints; a
  /// 90-day dataset should not hold a vacant tail allocation for the whole
  /// study).
  void shrink_to_fit();

  /// Sorts and builds indexes. Must be called after the last add() and
  /// before any accessor; idempotent. Stable-sort semantics: with the
  /// total-order comparators in record.h the result is unique, so the
  /// sequential and parallel overloads produce bitwise-identical state.
  void finalize();

  /// Parallel finalize on `pool`: chunked merge sort for the (car, start)
  /// record order, parallel max reductions and offset-table build.
  /// Identical output to finalize() for every pool width.
  void finalize(exec::ThreadPool& pool);

  [[nodiscard]] bool finalized() const { return finalized_; }
  [[nodiscard]] std::size_t size() const { return records_.size(); }
  [[nodiscard]] bool empty() const { return records_.empty(); }

  /// All records in (car, start) order.
  [[nodiscard]] std::span<const Connection> all() const { return records_; }

  /// Records of one car, in start order. Empty span for cars with no
  /// records. Requires finalize().
  [[nodiscard]] std::span<const Connection> of_car(CarId car) const;

  /// Number of distinct car ids that could appear: max id + 1 (cars with no
  /// records still count toward fleet-level percentages if the caller says
  /// so via set_fleet_size).
  [[nodiscard]] std::uint32_t fleet_size() const { return fleet_size_; }

  /// Declares the true fleet size (>= max car id + 1). Percentages like
  /// "% cars on network" (Fig 2) are relative to this.
  void set_fleet_size(std::uint32_t n);

  /// Number of study days covered; defaults to ceil(max end / day) but can
  /// be pinned by the simulator / importer.
  [[nodiscard]] int study_days() const { return study_days_; }
  void set_study_days(int days) { study_days_ = days; }

  /// Number of distinct cells referenced by at least one record. Counted
  /// from the records on each call (callers hit this once per report).
  [[nodiscard]] std::size_t distinct_cells() const;

  /// Visits every car that has records, ascending, passing
  /// (car, span of its records).
  template <typename F>
  void for_each_car(F&& f) const {
    std::size_t i = 0;
    while (i < records_.size()) {
      const CarId car = records_[i].car;
      std::size_t j = i;
      while (j < records_.size() && records_[j].car == car) ++j;
      f(car, std::span<const Connection>(records_.data() + i, j - i));
      i = j;
    }
  }

 private:
  void finalize_impl(exec::ThreadPool* pool);

  std::vector<Connection> records_;
  std::vector<std::uint64_t> car_offsets_;  // car id -> first index (+ sentinel)
  std::uint32_t fleet_size_ = 0;
  int study_days_ = 0;
  bool finalized_ = false;
};

}  // namespace ccms::cdr
