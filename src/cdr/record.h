// The Call Detail Record schema.
//
// §3: "Our data, based on Call Detail Records (CDRs), provides information
// about radio-level connections made by cars to the cellular network, such
// as times and durations of connections, as well as radio cells that they
// connect to, but not data volumes transmitted."
//
// One record = one radio-level (RRC) connection of one car to one cell.
// Carrier, sector, station and technology are *not* stored per record; they
// are attributes of the cell, recovered by joining with net::CellTable —
// exactly the join the paper performs.
#pragma once

#include <cstdint>

#include "util/binio.h"
#include "util/time.h"
#include "util/types.h"

namespace ccms::cdr {

/// One radio-level connection record.
struct Connection {
  CarId car;
  CellId cell;
  time::Seconds start = 0;       ///< study time of connection setup
  std::int32_t duration_s = 0;   ///< seconds until radio release

  [[nodiscard]] constexpr time::Seconds end() const {
    return start + duration_s;
  }
  [[nodiscard]] constexpr time::Interval interval() const {
    return {start, end()};
  }

  friend constexpr bool operator==(const Connection&,
                                   const Connection&) = default;
};

/// Encoded size of one record in the binary formats that carry records
/// verbatim: the checkpoint image's reorder heap and the wire's kBatch.
inline constexpr std::uint64_t kConnectionBytes = 20;

/// The binary layout of one record (see util/binio.h), shared by the
/// checkpoint codec and the wire codec.
template <class IO, binio::Is<Connection> C>
void fields(IO& io, C& c) {
  io.u32(c.car.value);
  io.u32(c.cell.value);
  io.i64(c.start);
  io.i32(c.duration_s);
}

/// Ordering used throughout: by car, then start time, then cell. Analyses
/// assume this order within each car's span.
struct ByCarThenStart {
  constexpr bool operator()(const Connection& a, const Connection& b) const {
    if (a.car != b.car) return a.car < b.car;
    if (a.start != b.start) return a.start < b.start;
    if (a.cell != b.cell) return a.cell < b.cell;
    return a.duration_s < b.duration_s;  // total order => stable re-sorts
  }
};

/// Ordering by cell, then start — the per-radio view of Figs 8-11.
struct ByCellThenStart {
  constexpr bool operator()(const Connection& a, const Connection& b) const {
    if (a.cell != b.cell) return a.cell < b.cell;
    if (a.start != b.start) return a.start < b.start;
    if (a.car != b.car) return a.car < b.car;
    return a.duration_s < b.duration_s;
  }
};

}  // namespace ccms::cdr
