// Differential test of the Fig 7, Fig 9 and §4.5 passes against reference
// copies of their previous per-car bodies: the busy share sliced from the
// float grid, the durations sorted into a sample, and the journeys built
// as cdr::Session vectors. Each generated trace is folded in 1 to 8 chunks
// of contiguous cars and merged in order; finalize() must be operator==
// identical to the reference. The traces hold negative and week-crossing
// starts, durations of 0, negative, 3600 and past the dense histogram's
// limit, gaps exactly at the journey gap, same-cell consecutive legs,
// cells at or past the load grid, and grid values equal to the threshold
// as a float. Also: a record naming a cell past the CellTable throws on
// the Dataset path and is an unknown-cell fault on the CCDR2 path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "cdr/columnar.h"
#include "cdr/session.h"
#include "core/passes.h"
#include "core/study.h"
#include "util/csv.h"
#include "util/rng.h"

namespace ccms::core {
namespace {

constexpr float kEdge = 0.8F;  // a grid value equal to the threshold

struct Trace {
  net::CellTable cells;
  CellLoad load;
  double threshold = 0;
  std::vector<std::vector<cdr::Connection>> cars;
};

Trace make_trace(std::uint64_t seed) {
  util::Rng rng(seed);
  Trace t;
  const auto table = static_cast<std::uint32_t>(rng.uniform_int(4, 40));
  for (std::uint32_t c = 0; c < table; ++c) {
    t.cells.add(StationId{c / 3}, SectorId{c % 3},
                CarrierId{static_cast<std::uint32_t>(rng.uniform_int(0, 2))},
                net::GeoClass::kSuburban,
                rng.bernoulli(0.2) ? net::Technology::k3G
                                   : net::Technology::k4G);
  }
  // The grid covers only some of the table's cells.
  const auto grid_cells =
      static_cast<std::size_t>(rng.uniform_int(0, table));
  std::vector<float> grid(grid_cells * time::kBins15PerWeek);
  for (float& v : grid) {
    v = rng.bernoulli(0.1) ? kEdge : static_cast<float>(rng.uniform());
  }
  t.load = CellLoad(std::move(grid));
  t.threshold = rng.bernoulli(0.1) ? -0.5 : static_cast<double>(kEdge);

  const int n_cars = static_cast<int>(rng.uniform_int(1, 30));
  for (int car = 0; car < n_cars; ++car) {
    std::vector<cdr::Connection> records;
    time::Seconds start = rng.bernoulli(0.2)
                              ? rng.uniform_int(-3 * 86400, -1)
                              : rng.uniform_int(0, 21 * 86400);
    const int n = static_cast<int>(rng.uniform_int(1, 25));
    for (int i = 0; i < n; ++i) {
      std::int32_t duration = 0;
      switch (rng.uniform_int(0, 7)) {
        case 0: duration = 0; break;
        case 1: duration = static_cast<std::int32_t>(rng.uniform_int(-900, -1)); break;
        case 2: duration = 3600; break;
        case 3:
          duration = CellSessionsAccumulator::kDenseDurationLimit +
                     static_cast<std::int32_t>(rng.uniform_int(-2, 200000));
          break;
        default: duration = static_cast<std::int32_t>(rng.uniform_int(1, 4000));
      }
      const std::uint32_t cell =
          !records.empty() && rng.bernoulli(0.2)
              ? records.back().cell.value
              : static_cast<std::uint32_t>(rng.uniform_int(0, table - 1));
      records.push_back({CarId{static_cast<std::uint32_t>(car)}, CellId{cell},
                         start, duration});
      // Next start: overlapping, exactly at the journey gap past this end,
      // just past it, or far later (sometimes across a week boundary).
      const time::Seconds end = start + std::max<std::int32_t>(duration, 0);
      switch (rng.uniform_int(0, 4)) {
        case 0: start += rng.uniform_int(0, 60); break;
        case 1: start = end + cdr::kJourneyGap; break;
        case 2: start = end + cdr::kJourneyGap + 1; break;
        case 3: start = end + rng.uniform_int(0, 7 * 86400); break;
        default: start = end + rng.uniform_int(0, 300);
      }
    }
    t.cars.push_back(std::move(records));
  }
  return t;
}

// --- Reference copies of the previous per-car bodies ----------------------

BusyTime reference_busy(const Trace& t) {
  std::vector<double> shares;
  BusyTime result;
  for (const auto& records : t.cars) {
    time::Seconds busy = 0;
    time::Seconds total = 0;
    for (const cdr::Connection& c : records) {
      time::Seconds s = c.start;
      const time::Seconds end = c.end();
      while (s < end) {
        const time::Seconds next_bin =
            (s / time::kSecondsPerBin15 + 1) * time::kSecondsPerBin15;
        const time::Seconds slice_end = std::min(next_bin, end);
        total += slice_end - s;
        if (t.load.busy(c.cell, time::bin15_of_week(s), t.threshold)) {
          busy += slice_end - s;
        }
        s = slice_end;
      }
    }
    CarBusyShare entry;
    entry.car = records.front().car;
    entry.connected = total;
    entry.share = total > 0 ? static_cast<double>(busy) /
                                  static_cast<double>(total)
                            : 0.0;
    result.per_car.push_back(entry);
  }
  std::size_t over_half = 0;
  std::size_t all = 0;
  for (const CarBusyShare& e : result.per_car) {
    shares.push_back(e.share);
    if (e.share > 0.5) ++over_half;
    if (e.share >= 0.95) ++all;
  }
  result.shares = stats::EmpiricalDistribution(std::move(shares));
  result.fraction_over_half =
      static_cast<double>(over_half) / result.per_car.size();
  result.fraction_all = static_cast<double>(all) / result.per_car.size();
  return result;
}

HandoverStats reference_handovers(const Trace& t) {
  HandoverStats result;
  std::vector<double> per_session;
  std::vector<double> stations;
  for (const auto& records : t.cars) {
    for (const cdr::Session& s :
         cdr::aggregate_sessions(records, cdr::kJourneyGap)) {
      ++result.session_count;
      int handovers = 0;
      std::vector<std::uint32_t> seen;
      for (std::size_t i = 0; i < s.legs.size(); ++i) {
        const net::CellInfo& info = t.cells.info(s.legs[i].cell);
        seen.push_back(info.station.value);
        if (i == 0) continue;
        const net::HandoverType type =
            net::classify_handover(t.cells.info(s.legs[i - 1].cell), info);
        ++result.counts[static_cast<std::size_t>(type)];
        if (type != net::HandoverType::kNone) ++handovers;
      }
      std::sort(seen.begin(), seen.end());
      seen.erase(std::unique(seen.begin(), seen.end()), seen.end());
      per_session.push_back(handovers);
      stations.push_back(static_cast<double>(seen.size()));
    }
  }
  result.per_session = stats::EmpiricalDistribution(std::move(per_session));
  result.stations_per_session =
      stats::EmpiricalDistribution(std::move(stations));
  result.median = result.per_session.quantile(0.5);
  result.p70 = result.per_session.quantile(0.7);
  result.p90 = result.per_session.quantile(0.9);
  return result;
}

CellSessionStats reference_cell_sessions(const Trace& t, std::int32_t cap) {
  std::vector<double> sample;
  for (const auto& records : t.cars) {
    for (const cdr::Connection& c : records) sample.push_back(c.duration_s);
  }
  stats::EmpiricalDistribution durations(std::move(sample));
  CellSessionStats result = summarize_cell_sessions(durations, cap);
  result.durations = std::move(durations);
  return result;
}

/// Folds the trace's cars in `chunks` contiguous groups, one accumulator
/// each, merged in ascending order.
template <typename Acc, typename Make>
Acc fold_in_chunks(const Trace& t, std::size_t chunks, const Make& make) {
  std::vector<Acc> parts;
  const std::size_t n = t.cars.size();
  for (std::size_t k = 0; k < chunks; ++k) {
    Acc& acc = parts.emplace_back(make());
    for (std::size_t i = k * n / chunks; i < (k + 1) * n / chunks; ++i) {
      acc.add_car(t.cars[i].front().car, t.cars[i]);
    }
  }
  for (std::size_t k = 1; k < parts.size(); ++k) {
    parts.front().merge(std::move(parts[k]));
  }
  return std::move(parts.front());
}

TEST(FoldPassesDifferential, MatchesTheReferenceBodiesOnGeneratedTraces) {
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Trace t = make_trace(seed);
    const std::size_t chunks = 1 + seed % 8;
    const BusyMap map = BusyMap::build(t.load, t.threshold);

    BusyTime busy = fold_in_chunks<BusyTimeAccumulator>(
                        t, chunks, [&] { return BusyTimeAccumulator(&map); })
                        .finalize();
    ASSERT_EQ(busy, reference_busy(t)) << "busy time, seed " << seed;

    HandoverStats handovers =
        fold_in_chunks<HandoverAccumulator>(t, chunks, [&] {
          return HandoverAccumulator(&t.cells, cdr::kJourneyGap);
        }).finalize();
    ASSERT_EQ(handovers, reference_handovers(t)) << "handovers, seed " << seed;

    CellSessionStats sessions =
        fold_in_chunks<CellSessionsAccumulator>(t, chunks, [&] {
          return CellSessionsAccumulator(600);
        }).finalize();
    ASSERT_EQ(sessions, reference_cell_sessions(t, 600))
        << "cell sessions, seed " << seed;
  }
}

TEST(FoldPassesDifferential, BusyMapBitsAreTheGridCompare) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const Trace t = make_trace(seed);
    const BusyMap map = BusyMap::build(t.load, t.threshold);
    for (std::uint32_t c = 0; c < t.load.cell_count() + 2; ++c) {
      for (int b = 0; b < time::kBins15PerWeek; ++b) {
        ASSERT_EQ(map.busy(CellId{c}, b), t.load.busy(CellId{c}, b, t.threshold))
            << "seed " << seed << " cell " << c << " bin " << b;
      }
    }
  }
}

// --- A record naming a cell past the CellTable -----------------------------

struct PastTable {
  net::CellTable cells;
  cdr::Dataset dataset;
};

PastTable past_table_input() {
  PastTable p;
  p.cells.add(StationId{0}, SectorId{0}, CarrierId{0}, net::GeoClass::kDowntown);
  p.cells.add(StationId{0}, SectorId{1}, CarrierId{0}, net::GeoClass::kDowntown);
  p.dataset.add({CarId{0}, CellId{0}, 100, 60});
  p.dataset.add({CarId{1}, CellId{2}, 200, 60});  // cell == cells.size()
  p.dataset.add({CarId{2}, CellId{1}, 300, 60});
  p.dataset.finalize();
  return p;
}

TEST(FoldPassesPastTable, DatasetPathThrowsNamingCarCellAndTable) {
  const PastTable p = past_table_input();
  try {
    (void)run_study(p.dataset, p.cells, CellLoad{}, StudyOptions{});
    FAIL() << "no throw";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("car 1"), std::string::npos) << what;
    EXPECT_NE(what.find("cell 2"), std::string::npos) << what;
    EXPECT_NE(what.find("2 cells"), std::string::npos) << what;
  }
}

TEST(FoldPassesPastTable, ColumnarPathBooksAnUnknownCellFault) {
  const PastTable p = past_table_input();
  const std::string bytes = cdr::write_columnar_buffer(p.dataset);

  StudyOptions strict;
  strict.ingest.mode = cdr::ParseMode::kStrict;
  try {
    (void)run_study_columnar_buffer(bytes, p.cells, CellLoad{}, strict);
    FAIL() << "no throw";
  } catch (const util::CsvError& e) {
    EXPECT_NE(std::string(e.what()).find("byte offset"), std::string::npos);
  }

  StudyOptions lenient;
  lenient.ingest.mode = cdr::ParseMode::kLenient;
  const StudyReport report =
      run_study_columnar_buffer(bytes, p.cells, CellLoad{}, lenient);
  EXPECT_EQ(report.ingest.count(cdr::FaultClass::kUnknownCell), 1U);
  EXPECT_EQ(report.ingest.records_dropped, 1U);
  EXPECT_EQ(report.ingest.records_accepted, 2U);
}

}  // namespace
}  // namespace ccms::core
