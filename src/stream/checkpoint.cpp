#include "stream/checkpoint.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <functional>
#include <limits>
#include <utility>

#include "util/binio.h"
#include "util/csv.h"
#include "util/file_io.h"

namespace ccms::stream {

namespace {

using binio::Reader;
using binio::Writer;
using binio::crc32;

constexpr std::array<char, 4> kMagic = {'C', 'C', 'K', 'P'};
constexpr std::uint32_t kTagConfig = 0x464E4F43;    // "CONF"
constexpr std::uint32_t kTagProducer = 0x444F5250;  // "PROD"
constexpr std::uint32_t kTagShard = 0x44524853;     // "SHRD"

// Reads throw binio::Truncated (mapped to kTruncatedPayload) or ParseFault
// for semantic mismatches; decode() maps both onto the Strict/Lenient
// discipline.
struct ParseFault {
  cdr::FaultClass fault;
  std::string reason;
};

// --- Field lists: each layout once, for both encode (IO = Writer, const
// state) and decode (IO = Reader). The seq() floors are each element's
// minimum encoded size.

/// An integer field stored as the uvarint of its 64-bit pattern.
template <class IO, class T>
void varint(IO& io, T& v) {
  if constexpr (IO::kReading) {
    std::uint64_t u = 0;
    io.uvarint(u);
    v = static_cast<T>(u);
  } else {
    io.uvarint(static_cast<std::uint64_t>(v));
  }
}

/// A double holding a whole number (see whole()), stored as a zigzag varint
/// or, when `kSigned` is false, as a plain uvarint.
template <bool kSigned, class IO, class D>
void whole_f64(IO& io, D& v) {
  if constexpr (IO::kReading) {
    std::uint64_t u = 0;
    io.uvarint(u);
    v = kSigned ? static_cast<double>(binio::unzigzag64(u))
                : static_cast<double>(u);
  } else if constexpr (kSigned) {
    io.uvarint(binio::zigzag64(static_cast<std::int64_t>(v)));
  } else {
    io.uvarint(static_cast<std::uint64_t>(v));
  }
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}
bool same_bits(const std::array<double, 5>& a, const std::array<double, 5>& b) {
  return std::memcmp(a.data(), b.data(), sizeof a) == 0;
}

/// True if `v` is an integer that round-trips through int64 bit for bit:
/// not NaN, not out of range, not -0.0.
bool whole(double v) {
  return v >= -0x1p63 && v < 0x1p63 &&
         same_bits(static_cast<double>(static_cast<std::int64_t>(v)), v);
}

// The P2 state is written compactly (DESIGN.md §11). A leading raw mask has
// one bit per field group that is not in the canonical form the reader
// rebuilds; a set bit stores that group as raw f64, so every state, however
// odd, round-trips bit for bit. Canonical forms: q is 0.5; desired and
// increments are P2Quantile::schedule(q, count); positions are all +0.0
// below 5 observations and {1, n1, n2, n3, count} from 5 on, with n1..n3
// stored as uvarints; a height is a whole number, stored as a zigzag varint.
constexpr std::uint64_t kRawHeight0 = 1;  // << i for heights[i]
constexpr std::uint64_t kRawQ = 1u << 5;
constexpr std::uint64_t kRawPositions = 1u << 6;
constexpr std::uint64_t kRawSchedule = 1u << 7;
constexpr std::uint64_t kRawMaskEnd = 1u << 8;

bool canonical_positions(const stats::P2Quantile::State& s) {
  const auto& p = s.positions;
  if (s.count < 5) return same_bits(p, {});
  for (std::size_t i = 1; i <= 3; ++i) {
    if (!whole(p[i]) || p[i] < 0) return false;
  }
  return same_bits(p[0], 1) && same_bits(p[4], static_cast<double>(s.count));
}

std::uint64_t raw_mask(const stats::P2Quantile::State& s) {
  std::uint64_t raw = 0;
  for (std::size_t i = 0; i < 5; ++i) {
    if (!whole(s.heights[i])) raw |= kRawHeight0 << i;
  }
  if (!same_bits(s.q, 0.5)) raw |= kRawQ;
  if (!canonical_positions(s)) raw |= kRawPositions;
  const auto schedule = stats::P2Quantile::schedule(s.q, s.count);
  if (!same_bits(s.desired, schedule.desired) ||
      !same_bits(s.increments, schedule.increments)) {
    raw |= kRawSchedule;
  }
  return raw;
}

template <class IO, binio::Is<stats::P2Quantile::State> S>
void fields(IO& io, S& s) {
  std::uint64_t raw = 0;
  if constexpr (!IO::kReading) raw = raw_mask(s);
  io.uvarint(raw);
  if constexpr (IO::kReading) {
    if (raw >= kRawMaskEnd) {
      throw ParseFault{cdr::FaultClass::kCheckpointMismatch,
                       "P2 state sets unknown layout bits"};
    }
  }

  if ((raw & kRawQ) != 0) {
    io.f64(s.q);
  } else if constexpr (IO::kReading) {
    s.q = 0.5;
  }
  varint(io, s.count);
  varint(io, s.ignored);
  for (std::size_t i = 0; i < 5; ++i) {
    if ((raw & (kRawHeight0 << i)) != 0) {
      io.f64(s.heights[i]);
    } else {
      whole_f64<true>(io, s.heights[i]);
    }
  }

  if ((raw & kRawPositions) != 0) {
    for (auto& v : s.positions) io.f64(v);
  } else if (s.count >= 5) {
    for (std::size_t i = 1; i <= 3; ++i) whole_f64<false>(io, s.positions[i]);
    if constexpr (IO::kReading) {
      s.positions[0] = 1;
      s.positions[4] = static_cast<double>(s.count);
    }
  } else if constexpr (IO::kReading) {
    s.positions = {};
  }

  if ((raw & kRawSchedule) != 0) {
    for (auto& v : s.desired) io.f64(v);
    for (auto& v : s.increments) io.f64(v);
  } else if constexpr (IO::kReading) {
    const auto schedule = stats::P2Quantile::schedule(s.q, s.count);
    s.desired = schedule.desired;
    s.increments = schedule.increments;
  }
}
// Smallest encoding of the P2 list above: mask, count, ignored and five
// heights, one byte each.
constexpr std::uint64_t kP2MinBytes = 8;

template <class IO, binio::Is<stats::Accumulator::State> S>
void fields(IO& io, S& s) {
  io.i64(s.n);
  io.f64(s.mean);
  io.f64(s.m2);
  io.f64(s.sum);
  io.f64(s.min);
  io.f64(s.max);
}

template <class IO, binio::Is<cdr::IntervalUnionRun::State> S>
void fields(IO& io, S& s) {
  io.i64(s.run_start);
  io.i64(s.run_end);
  io.i64(s.banked);
  io.boolean(s.open);
}
// Encoded size of the run list above.
constexpr std::uint64_t kRunBytes = 25;

/// The CONF payload: the config fingerprint and the finished flag.
template <class IO, binio::Is<Checkpoint> C>
void conf(IO& io, C& checkpoint) {
  auto& c = checkpoint.config;
  io.i32(c.shards);
  io.i64(c.allowed_lateness);
  io.i64(c.session_gap);
  io.i32(c.truncation_cap);
  io.i32(c.clean_artifact_duration_s);
  io.i32(c.clean_max_plausible_duration_s);
  io.u32(c.fleet_size);
  io.i32(c.study_days);
  io.i32(c.recent_bins);
  io.boolean(c.exactly_once);
  io.boolean(checkpoint.finished);
}

/// The PROD payload.
template <class IO, binio::Is<Checkpoint::Producer> P>
void fields(IO& io, P& p) {
  auto& ing = p.ingest;
  io.enum8(ing.mode);
  io.u64(ing.bytes_consumed);
  io.u64(ing.rows_read);
  io.u64(ing.records_accepted);
  io.u64(ing.records_dropped);
  io.u64(ing.records_repaired);
  io.boolean(ing.bom_stripped);
  std::uint64_t classes = ing.counters.size();
  io.u64(classes);
  if constexpr (IO::kReading) {
    if (classes != ing.counters.size()) {
      throw ParseFault{cdr::FaultClass::kCheckpointMismatch,
                       "fault-counter table has " + std::to_string(classes) +
                           " classes, this build has " +
                           std::to_string(ing.counters.size())};
    }
  }
  for (auto& c : ing.counters) io.u64(c);
  io.seq(ing.quarantine, 1 + 8 + 8 + 8, [](auto& io, auto& q) {
    io.enum8(q.fault);
    io.u64(q.byte_offset);
    io.str(q.reason);
    io.str(q.raw);
  });
  io.u64(ing.quarantine_overflow);

  io.u64(p.clean.input_records);
  io.u64(p.clean.hour_artifacts_removed);
  io.u64(p.clean.nonpositive_removed);
  io.u64(p.clean.implausible_removed);

  io.vec_u64(p.durations.hist);
  fields(io, p.durations.p2);

  io.i64(p.max_start);
  io.i64(p.watermark);
  io.u64(p.offered);
  io.u64(p.routed);
  io.u64(p.replayed);
  io.vec_u64(p.routed_per_shard);
  io.seq(p.cursors, 4 + 8 + 4 + 4, [](auto& io, auto& cursor) {
    io.u32(cursor.car);
    io.i64(cursor.start);
    io.u32(cursor.cell);
    io.i32(cursor.duration_s);
  });
}

template <class IO, binio::Is<cdr::Session> S>
void fields(IO& io, S& s) {
  io.u32(s.car.value);
  io.i64(s.span.start);
  io.i64(s.span.end);
  io.seq(s.legs, 4 + 8 + 8, [](auto& io, auto& leg) {
    io.u32(leg.cell.value);
    io.i64(leg.when.start);
    io.i64(leg.when.end);
  });
}

template <class IO, binio::Is<BinCounts> B>
void fields(IO& io, B& bin) {
  io.i64(bin.bin);
  io.u32(bin.cars);
  io.boolean(bin.provisional);
  io.seq(bin.cells, 4 + 4, [](auto& io, auto& cell) {
    io.u32(cell.first);
    io.u32(cell.second);
  });
}

/// A member that exports its state() and takes it back through restore().
template <class IO, class T>
void via_state(IO& io, T& member) {
  auto state = member.state();
  fields(io, state);
  if constexpr (IO::kReading) member.restore(state);
}

template <class IO>
void day_words(IO& io, DayBits& bits) {
  if constexpr (IO::kReading) {
    std::vector<std::uint64_t> words;
    io.vec_u64(words);
    bits.assign_words(std::move(words));
  } else {
    io.vec_u64(bits.words());
  }
}

/// True when `v` strictly ascends.
bool strictly_ascending(const std::vector<std::uint32_t>& v) {
  return std::adjacent_find(v.begin(), v.end(),
                            std::greater_equal<>()) == v.end();
}

}  // namespace

/// The SHRD payload: the shard's index, then its members. The index lets
/// decode reject reordered sections: SHRD sections all carry the same tag,
/// so without it two swapped (individually valid) shard images would
/// silently restore into the wrong shards. Cells are written ascending,
/// and the open bins compacted, so equal states write equal bytes.
template <class IO>
void fields(IO& io, ShardState& s) {
  constexpr bool kReading = IO::kReading;
  using ActiveBin = ShardState::ActiveBin;

  if constexpr (!kReading) {
    // Room for a typical section up front: growing a megabyte buffer
    // field by field would copy it over and over.
    std::size_t folded_cells = 0;
    for (const BinCounts& bin : s.folded_bins_) folded_cells += bin.cells.size();
    const std::size_t day_words = s.cars_per_day_.size() / 64 + 1;
    io.buffer().reserve(io.buffer().size() + 4096 +
                        (72 + 8 * day_words) * s.cars_.size() +
                        (52 + 8 * day_words) * s.cells_by_id_.size() +
                        8 * folded_cells +
                        cdr::kConnectionBytes * s.reorder_.size());
  }

  auto index = static_cast<std::uint32_t>(s.shard_index_);
  io.u32(index);
  if constexpr (kReading) {
    if (index != static_cast<std::uint32_t>(s.shard_index_)) {
      throw ParseFault{cdr::FaultClass::kCheckpointMismatch,
                       "shard section " + std::to_string(s.shard_index_) +
                           " carries index " + std::to_string(index) +
                           " (sections out of order)"};
    }
    s.reset_for_load();
  }

  // The seen cars, ascending by local index (car / shards).
  std::vector<std::uint32_t> seen;
  if constexpr (!kReading) {
    for (std::size_t i = 0; i < s.cars_.size(); ++i) {
      if (s.cars_[i].seen) seen.push_back(static_cast<std::uint32_t>(i));
    }
  }
  io.seq(seen, 4 + 1 + 2 * kRunBytes + 8, [&](IO& io, auto& local) {
    io.u32(local);
    if constexpr (kReading) {
      if (local >= s.cars_.size()) s.cars_.resize(local + std::size_t{1});
    }
    ShardState::CarState& car = s.cars_[local];
    bool open = car.session.open();
    io.boolean(open);
    if constexpr (kReading) {
      car.seen = true;
      car.session = cdr::SessionBuilder(s.config_.session_gap);
      if (open) {
        cdr::Session session;
        fields(io, session);
        car.session.resume(std::move(session));
      }
    } else if (open) {
      fields(io, car.session.current());
    }
    via_state(io, car.full);
    via_state(io, car.trunc);
    day_words(io, car.days);
  });

  io.vec_u32(s.cars_per_day_);

  // Two per-cell lists, ascending by cell: the day words, then the
  // connection counts and P2 states. A live shard lists every cell in
  // both. A cell's words run to its highest nonzero one, as a DayBits
  // grown day by day holds them, so the rows are written trimmed and a
  // row that ends in a zero word is refused.
  const auto listed = [&](std::uint8_t list) {
    std::size_t n = 0;
    for (const std::uint8_t lists : s.cell_lists_) n += (lists & list) != 0;
    return n;
  };
  std::size_t day_cells = 0;
  if constexpr (!kReading) day_cells = listed(ShardState::kDayList);
  io.count(day_cells, 4 + 8);
  if constexpr (kReading) {
    std::vector<std::uint64_t> words;
    for (std::size_t k = 0; k < day_cells; ++k) {
      std::uint32_t cell = 0;
      io.u32(cell);
      io.vec_u64(words);
      if (!words.empty() && words.back() == 0) {
        throw ParseFault{cdr::FaultClass::kCheckpointMismatch,
                         "cell day words end in a zero word"};
      }
      const std::uint32_t at = s.cell_index(cell);
      if (words.size() > s.cell_rows_[at].words) s.widen_row(at, words.size());
      const ShardState::DayRow row = s.cell_rows_[at];
      const auto first =
          s.cell_words_.begin() + static_cast<std::ptrdiff_t>(row.at);
      std::fill_n(std::copy(words.begin(), words.end(), first),
                  row.words - words.size(), 0);
      s.cell_lists_[at] |= ShardState::kDayList;
    }
  } else {
    for (const auto& [cell, at] : s.sorted_cells()) {
      if ((s.cell_lists_[at] & ShardState::kDayList) == 0) continue;
      const std::uint64_t* row = s.cell_words_.data() + s.cell_rows_[at].at;
      std::size_t n = s.cell_rows_[at].words;
      while (n > 0 && row[n - 1] == 0) --n;
      io.u32(cell);
      io.count(n, 8);
      for (std::size_t w = 0; w < n; ++w) io.u64(row[w]);
    }
  }

  for (auto& v : s.usage_.values) io.f64(v);
  io.u64(s.sessions_closed_);
  via_state(io, s.session_span_);

  // Cell ids strictly ascend, so each is stored as its distance from the
  // previous entry's (the first from 0).
  std::uint64_t prev_cell = 0;
  bool first_cell = true;
  const auto cell_id = [&](std::uint32_t& cell) {
    std::uint64_t delta = cell - prev_cell;
    io.uvarint(delta);
    if constexpr (kReading) {
      if ((delta == 0 && !first_cell) ||
          delta > std::numeric_limits<std::uint32_t>::max() - prev_cell) {
        throw ParseFault{cdr::FaultClass::kCheckpointMismatch,
                         "per-cell duration ids do not strictly ascend "
                         "within u32"};
      }
      cell = static_cast<std::uint32_t>(prev_cell + delta);
    }
    prev_cell = cell;
    first_cell = false;
  };
  const auto duration = [&](std::uint32_t at) {
    varint(io, s.cell_connections_[at]);
    via_state(io, s.cell_medians_[at]);
  };
  std::size_t duration_cells = 0;
  if constexpr (!kReading) duration_cells = listed(ShardState::kDurationList);
  io.count(duration_cells, 1 + 1 + kP2MinBytes);
  if constexpr (kReading) {
    for (std::size_t k = 0; k < duration_cells; ++k) {
      std::uint32_t cell = 0;
      cell_id(cell);
      const std::uint32_t at = s.cell_index(cell);
      s.cell_lists_[at] |= ShardState::kDurationList;
      duration(at);
    }
  } else {
    // The P2 states lie in first-seen order, so the writer walks them out
    // of order and prefetches a few entries ahead.
    const auto& cells = s.sorted_cells();
    constexpr std::size_t kAhead = 6;
    for (std::size_t k = 0; k < cells.size(); ++k) {
      if (k + kAhead < cells.size()) {
        const auto* ahead = reinterpret_cast<const char*>(
            &s.cell_medians_[cells[k + kAhead].second]);
        for (std::size_t at = 0; at < sizeof(stats::P2Quantile); at += 64) {
          __builtin_prefetch(ahead + at);
        }
      }
      auto [cell, at] = cells[k];
      if ((s.cell_lists_[at] & ShardState::kDurationList) == 0) continue;
      cell_id(cell);
      duration(at);
    }
  }

  // The reorder heap in the order it pops.
  std::vector<cdr::Connection> pending;
  if constexpr (!kReading) {
    auto heap = s.reorder_;
    pending.reserve(heap.size());
    while (!heap.empty()) {
      pending.push_back(heap.top());
      heap.pop();
    }
  }
  io.seq(pending, cdr::kConnectionBytes,
         [](auto& io, auto& c) { fields(io, c); });
  // The heap orders records totally, so its layout changes no pop order.
  std::uint64_t reorder_peak = s.reorder_peak_;
  io.u64(reorder_peak);
  if constexpr (kReading) {
    s.reorder_ = decltype(s.reorder_)({}, std::move(pending));
    s.reorder_peak_ = static_cast<std::size_t>(reorder_peak);
  }

  // Open bins as their compacted lists: cars, then cells with their cars.
  // The cars list is the set of cars in the keys, and the shard counts
  // both as sets: a list that is not canonical would restore to counts its
  // bytes do not show.
  std::size_t bins = 0;
  if constexpr (!kReading) {
    for (std::size_t i = 0; i < s.window_size_; ++i) {
      bins += !s.open_bin(s.window_first_ + static_cast<std::int64_t>(i))
                   .keys.empty();
    }
  }
  io.count(bins, 8 + 8 + 8);
  if constexpr (kReading) {
    const auto require = [](bool canonical, const std::string& what) {
      if (!canonical) {
        throw ParseFault{cdr::FaultClass::kCheckpointMismatch,
                         "active-bin " + what};
      }
    };
    std::int64_t first_bin = 0;
    std::int64_t prev_bin = 0;
    std::vector<std::uint32_t> cars;
    std::vector<std::uint32_t> members;
    for (std::size_t k = 0; k < bins; ++k) {
      std::int64_t bin = 0;
      io.i64(bin);
      require(k == 0 || bin > prev_bin, "indices do not strictly ascend");
      if (k == 0) first_bin = bin;
      require(static_cast<std::uint64_t>(bin) -
                      static_cast<std::uint64_t>(first_bin) <
                  static_cast<std::uint64_t>(ShardState::kMaxOpenBins),
              "indices span more than " +
                  std::to_string(ShardState::kMaxOpenBins) + " bins");
      prev_bin = bin;
      io.vec_u32(cars);
      require(strictly_ascending(cars), "cars do not strictly ascend");
      std::vector<std::uint64_t> keys;
      std::size_t per_cell = 0;
      io.count(per_cell, 4 + 8);
      for (std::size_t c = 0; c < per_cell; ++c) {
        std::uint32_t cell = 0;
        io.u32(cell);
        require(c == 0 || cell > ActiveBin::cell_of(keys.back()),
                "cells do not strictly ascend");
        io.vec_u32(members);
        require(!members.empty(), "cell has an empty member list");
        require(strictly_ascending(members),
                "member cars do not strictly ascend");
        for (const std::uint32_t car : members) {
          keys.push_back(ActiveBin::key(cell, car));
        }
      }
      require(ActiveBin::distinct_cars(keys) == cars,
              "cars are not the cars of its cells");
      s.load_bin(bin, std::move(keys), cars);
    }
  } else {
    for (std::size_t i = 0; i < s.window_size_; ++i) {
      const std::int64_t bin = s.window_first_ + static_cast<std::int64_t>(i);
      ActiveBin& active = s.open_bin(bin);
      if (active.keys.empty()) continue;
      active.compact();
      io.i64(bin);
      io.vec_u32(ActiveBin::distinct_cars(active.keys));
      // The keys sort by cell, so each cell's member cars are one run.
      const BinCounts counts = ShardState::count_bin(bin, active);
      io.count(counts.cells.size(), 4 + 8);
      auto key = active.keys.begin();
      for (const auto& [cell, cars] : counts.cells) {
        io.u32(cell);
        io.count(cars, 4);
        for (std::uint32_t i = 0; i < cars; ++i) {
          io.u32(ActiveBin::car_of(*key++));
        }
      }
    }
  }

  std::size_t folded = s.folded_bins_.size();
  io.count(folded, 8 + 4 + 1 + 8);
  if constexpr (kReading) {
    s.folded_bins_.resize(folded);
  }
  for (auto& bin : s.folded_bins_) fields(io, bin);
  if constexpr (kReading) s.folded_final_ = folded;

  io.u64(s.records_);
  io.i64(s.max_day_seen_);
  io.boolean(s.closed_);
}

namespace {

/// Appends one framed section to `out`: tag, payload length, the payload
/// `write` puts in place, and its CRC32.
template <class Fn>
void append_section(std::vector<std::uint8_t>& out, std::uint32_t tag,
                    Fn write) {
  Writer w(out);
  w.u32(tag);
  const std::size_t length_at = out.size();
  w.u64(0);  // patched below
  write(w);
  const std::size_t payload_at = length_at + 8;
  const std::uint64_t length = out.size() - payload_at;
  for (std::size_t i = 0; i < 8; ++i) {  // little-endian, as Writer::u64
    out[length_at + i] = static_cast<std::uint8_t>(length >> (8 * i));
  }
  w.u32(crc32(std::span(out).subspan(payload_at)));
}

/// The payload of the framed section at the front of `bytes`, its CRC and
/// then its tag checked; the section is 16 bytes longer.
std::span<const std::uint8_t> read_section(std::span<const std::uint8_t> bytes,
                                           std::uint32_t expected_tag) {
  if (bytes.size() < 16) {
    throw ParseFault{cdr::FaultClass::kTruncatedPayload,
                     "file ends inside a section header"};
  }
  std::uint32_t tag = 0;
  std::uint64_t len = 0;
  Reader frame(bytes.first(12));
  frame.u32(tag);
  frame.u64(len);
  if (len > bytes.size() - 16) {
    throw ParseFault{cdr::FaultClass::kTruncatedPayload,
                     "section payload overruns the file"};
  }
  const auto payload = bytes.subspan(12, static_cast<std::size_t>(len));
  std::uint32_t stored_crc = 0;
  Reader(bytes.subspan(12 + payload.size(), 4)).u32(stored_crc);
  if (crc32(payload) != stored_crc) {
    throw ParseFault{cdr::FaultClass::kChecksumMismatch,
                     "section CRC32 does not match its payload"};
  }
  if (tag != expected_tag) {
    throw ParseFault{cdr::FaultClass::kCheckpointMismatch,
                     "unexpected section tag"};
  }
  return payload;
}

/// One fault: strict throws, lenient accounts + quarantines.
[[noreturn]] void fail_strict(cdr::FaultClass fault, const std::string& reason,
                              std::uint64_t offset) {
  throw util::CsvError("checkpoint: " + std::string(cdr::name(fault)) + " at byte " +
                       std::to_string(offset) + ": " + reason);
}

void account_fault(cdr::IngestReport& report, const cdr::IngestOptions& options,
                   cdr::FaultClass fault, const std::string& reason,
                   std::uint64_t offset) {
  ++report.records_dropped;
  report.record_fault(options.quarantine_cap, fault, offset, reason);
}

}  // namespace

ConfigFingerprint fingerprint_of(const StreamConfig& config) {
  ConfigFingerprint f;
  f.shards = std::max(1, config.shards);
  f.allowed_lateness = config.allowed_lateness;
  f.session_gap = config.session_gap;
  f.truncation_cap = config.truncation_cap;
  f.clean_artifact_duration_s = config.clean.artifact_duration_s;
  f.clean_max_plausible_duration_s = config.clean.max_plausible_duration_s;
  f.fleet_size = config.fleet_size;
  f.study_days = config.study_days;
  f.recent_bins = config.recent_bins;
  f.exactly_once = config.exactly_once;
  return f;
}

std::vector<std::uint8_t> write_shard(ShardState& state) {
  std::vector<std::uint8_t> section;
  append_section(section, kTagShard, [&](Writer& w) { fields(w, state); });
  return section;
}

void load_shard(std::span<const std::uint8_t> section, ShardState& state) {
  try {
    Reader r(read_section(section, kTagShard));
    fields(r, state);
  } catch (const ParseFault& pf) {
    fail_strict(pf.fault, pf.reason, 0);
  } catch (const binio::Truncated& t) {
    fail_strict(cdr::FaultClass::kTruncatedPayload, t.reason, 0);
  }
}

Checkpoint image_skeleton(const StreamConfig& config, bool finished) {
  Checkpoint image;
  image.config = fingerprint_of(config);
  image.finished = finished;
  const auto shards = static_cast<std::size_t>(image.config.shards);
  image.producer.routed_per_shard.assign(shards, 0);
  // The default config sizes no day table (a live shard's has study_days
  // entries): the bytes images always carried where a worker left a gap.
  image.shards.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    ShardState empty(StreamConfig{}, static_cast<int>(i));
    image.shards.push_back(write_shard(empty));
  }
  return image;
}

bool image_fits(const Checkpoint& image, const StreamConfig& config) {
  const ConfigFingerprint fingerprint = fingerprint_of(config);
  const auto shards = static_cast<std::size_t>(fingerprint.shards);
  return image.config == fingerprint && image.shards.size() == shards &&
         image.producer.routed_per_shard.size() == shards;
}

void encode(const Checkpoint& checkpoint, std::vector<std::uint8_t>& out) {
  out.insert(out.end(), kMagic.begin(), kMagic.end());
  Writer(out).u32(Checkpoint::kVersion);
  append_section(out, kTagConfig, [&](Writer& w) { conf(w, checkpoint); });
  append_section(out, kTagProducer,
                 [&](Writer& w) { fields(w, checkpoint.producer); });
  // Room for the sections and a dist frame's CRC after them.
  std::size_t shard_bytes = 0;
  for (const auto& section : checkpoint.shards) shard_bytes += section.size();
  out.reserve(out.size() + shard_bytes + 4);
  for (const auto& section : checkpoint.shards) {
    out.insert(out.end(), section.begin(), section.end());
  }
}

std::vector<std::uint8_t> encode(const Checkpoint& checkpoint) {
  std::vector<std::uint8_t> out;
  encode(checkpoint, out);
  return out;
}

std::optional<Checkpoint> decode(std::span<const std::uint8_t> bytes,
                                 const cdr::IngestOptions& options,
                                 cdr::IngestReport& report,
                                 ShardState* into) {
  const bool strict = options.mode == cdr::ParseMode::kStrict;
  report.bytes_consumed = bytes.size();

  const auto fault = [&](cdr::FaultClass f, const std::string& reason,
                         std::uint64_t offset) -> std::optional<Checkpoint> {
    if (strict) fail_strict(f, reason, offset);
    account_fault(report, options, f, reason, offset);
    return std::nullopt;
  };

  // Header.
  if (bytes.size() < 8 ||
      std::memcmp(bytes.data(), kMagic.data(), kMagic.size()) != 0) {
    return fault(cdr::FaultClass::kBadHeader,
                 "missing or damaged CCKP magic", 0);
  }
  std::uint32_t version = 0;
  Reader(bytes.subspan(4, 4)).u32(version);
  if (version != Checkpoint::kVersion) {
    return fault(cdr::FaultClass::kCheckpointMismatch,
                 "checkpoint version " + std::to_string(version) +
                     ", this build reads version " +
                     std::to_string(Checkpoint::kVersion),
                 4);
  }

  // Sections: CONF, PROD, then config.shards SHRD images, in order.
  Checkpoint checkpoint;
  std::size_t pos = 8;
  int sections_seen = 0;
  while (pos < bytes.size()) {
    try {
      const auto payload = read_section(bytes.subspan(pos),
                                        sections_seen == 0   ? kTagConfig
                                        : sections_seen == 1 ? kTagProducer
                                                             : kTagShard);
      Reader r(payload);
      if (sections_seen == 0) {
        conf(r, checkpoint);
      } else if (sections_seen == 1) {
        fields(r, checkpoint.producer);
      } else {
        // A section decodes only if a shard can load it.
        const auto index = static_cast<int>(checkpoint.shards.size());
        ShardState scratch(StreamConfig{}, index);
        fields(r, into != nullptr && into->index() == index ? *into : scratch);
        const auto framed = bytes.subspan(pos, payload.size() + 16);
        checkpoint.shards.emplace_back(framed.begin(), framed.end());
      }
      pos += payload.size() + 16;
    } catch (const ParseFault& pf) {
      return fault(pf.fault, pf.reason, pos);
    } catch (const binio::Truncated& t) {
      return fault(cdr::FaultClass::kTruncatedPayload, t.reason, pos);
    }
    ++sections_seen;
  }

  if (sections_seen < 2 ||
      checkpoint.shards.size() !=
          static_cast<std::size_t>(std::max(1, checkpoint.config.shards))) {
    return fault(cdr::FaultClass::kTruncatedPayload,
                 "checkpoint ends before all shard sections", pos);
  }
  return checkpoint;
}

void save_checkpoint(const Checkpoint& checkpoint, const std::string& path) {
  const std::vector<std::uint8_t> bytes = encode(checkpoint);
  util::write_file(path,
                   std::string_view(reinterpret_cast<const char*>(bytes.data()),
                                    bytes.size()));
}

std::optional<Checkpoint> load_checkpoint(const std::string& path,
                                          const cdr::IngestOptions& options,
                                          cdr::IngestReport& report) {
  const std::optional<std::string> bytes = util::read_file(path);
  if (!bytes) {
    if (options.mode == cdr::ParseMode::kStrict) {
      throw util::CsvError("checkpoint: cannot open " + path);
    }
    account_fault(report, options, cdr::FaultClass::kBadHeader,
                  "cannot open " + path, 0);
    return std::nullopt;
  }
  return decode(std::span(reinterpret_cast<const std::uint8_t*>(bytes->data()),
                          bytes->size()),
                options, report);
}

}  // namespace ccms::stream
