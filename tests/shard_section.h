// SHRD checkpoint sections written field by field, for the images no
// ShardState writes: odd P2 states, hostile counts and varints, and
// non-canonical open-bin lists. The layout is DESIGN.md §11's; the
// CheckpointFuzz.HandWrittenSectionIsThePlaceholder test holds an empty one
// to the bytes the codec itself writes.
#pragma once

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "stats/p2_quantile.h"
#include "util/binio.h"

namespace ccms::test {

/// One open concurrency bin as the section lists it.
struct SectionBin {
  std::int64_t bin = 0;
  std::vector<std::uint32_t> cars;
  std::vector<std::pair<std::uint32_t, std::vector<std::uint32_t>>> per_cell;
};

/// A P2 state in the layout's all-raw form (every mask bit set), which the
/// reader takes for any state, however odd.
inline void raw_p2(binio::Writer& w, const stats::P2Quantile::State& s) {
  w.uvarint(0xFF);  // five heights, q, positions, schedule: all raw
  w.f64(s.q);
  w.uvarint(static_cast<std::uint64_t>(s.count));
  w.uvarint(static_cast<std::uint64_t>(s.ignored));
  for (const double v : s.heights) w.f64(v);
  for (const double v : s.positions) w.f64(v);
  for (const double v : s.desired) w.f64(v);
  for (const double v : s.increments) w.f64(v);
}

/// A fresh estimator's P2 state in its compact form: a zero mask, count,
/// ignored count and five zero heights.
inline void fresh_p2(binio::Writer& w) {
  for (int i = 0; i < 8; ++i) w.u8(0);
}

/// An empty per-cell list.
inline void no_cells(binio::Writer& w) { w.u64(0); }

/// The framed SHRD section of an otherwise empty shard `index`:
/// `cell_durations(w)` writes the per-cell duration list (its count and
/// entries), `bins` are its open bins, `cell_days(w)` writes the per-cell
/// day list and `seen_cars` are the local indices of cars it has seen
/// (no open session, empty runs and day sets).
template <class Fn, class DaysFn = void (*)(binio::Writer&)>
std::vector<std::uint8_t> shard_section(
    std::uint32_t index, Fn cell_durations,
    const std::vector<SectionBin>& bins = {}, DaysFn cell_days = no_cells,
    const std::vector<std::uint32_t>& seen_cars = {}) {
  std::vector<std::uint8_t> payload;
  binio::Writer w(payload);
  w.u32(index);
  w.u64(seen_cars.size());                   // cars
  for (const std::uint32_t local : seen_cars) {
    w.u32(local);
    w.boolean(false);  // no open session
    for (int run = 0; run < 2; ++run) {  // full and truncated runs
      w.i64(0);
      w.i64(0);
      w.i64(0);
      w.boolean(false);
    }
    w.u64(0);  // day words
  }
  w.u64(0);                                  // cars per day
  cell_days(w);                              // cell day bitsets
  for (int i = 0; i < 24 * 7; ++i) w.f64(0);  // usage
  w.u64(0);                                  // sessions closed
  w.i64(0);                                  // session span: n, mean, m2,
  w.f64(0);                                  //   sum, min, max
  w.f64(0);
  w.f64(0);
  w.f64(std::numeric_limits<double>::infinity());
  w.f64(-std::numeric_limits<double>::infinity());
  cell_durations(w);
  w.u64(0);  // reorder heap
  w.u64(0);  // reorder peak
  w.u64(bins.size());
  for (const SectionBin& bin : bins) {
    w.i64(bin.bin);
    w.vec_u32(bin.cars);
    w.u64(bin.per_cell.size());
    for (const auto& [cell, members] : bin.per_cell) {
      w.u32(cell);
      w.vec_u32(members);
    }
  }
  w.u64(0);   // folded bins
  w.u64(0);   // records
  w.i64(-1);  // max day seen
  w.boolean(false);

  std::vector<std::uint8_t> section;
  binio::Writer frame(section);
  frame.u32(0x44524853);  // "SHRD"
  frame.u64(payload.size());
  frame.bytes(payload);
  frame.u32(binio::crc32(payload));
  return section;
}

}  // namespace ccms::test
