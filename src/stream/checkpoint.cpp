#include "stream/checkpoint.h"

#include <array>
#include <bit>
#include <cstring>
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

/// The SHRD payload: the shard's index, then its image. The index lets
/// decode reject reordered sections: SHRD sections all carry the same tag,
/// so without it two swapped (individually valid) shard images would
/// silently restore into the wrong shards.
template <class IO, binio::Is<ShardCheckpoint> S>
void shrd(IO& io, std::size_t index, S& s) {
  auto stored = static_cast<std::uint32_t>(index);
  io.u32(stored);
  if constexpr (IO::kReading) {
    if (stored != index) {
      throw ParseFault{cdr::FaultClass::kCheckpointMismatch,
                       "shard section " + std::to_string(index) +
                           " carries index " + std::to_string(stored) +
                           " (sections out of order)"};
    }
  }

  io.seq(s.cars, 4 + 1 + 2 * kRunBytes + 8, [](auto& io, auto& car) {
    io.u32(car.local_index);
    io.boolean(car.session_open);
    if (car.session_open) {
      io.u32(car.open_session.car.value);
      io.i64(car.open_session.span.start);
      io.i64(car.open_session.span.end);
      io.seq(car.open_session.legs, 4 + 8 + 8, [](auto& io, auto& leg) {
        io.u32(leg.cell.value);
        io.i64(leg.when.start);
        io.i64(leg.when.end);
      });
    }
    fields(io, car.full);
    fields(io, car.trunc);
    io.vec_u64(car.day_words);
  });

  io.vec_u32(s.cars_per_day);
  io.seq(s.cell_days, 4 + 8, [](auto& io, auto& cell) {
    io.u32(cell.first);
    io.vec_u64(cell.second);
  });

  for (auto& v : s.usage.values) io.f64(v);
  io.u64(s.sessions_closed);
  fields(io, s.session_span);

  // Cell ids strictly ascend, so each is stored as its distance from the
  // previous entry's (the first from 0).
  std::uint64_t prev_cell = 0;
  bool first_cell = true;
  io.seq(s.cell_durations, 1 + 1 + kP2MinBytes, [&](auto& io, auto& cd) {
    std::uint64_t delta = 0;
    if constexpr (!IO::kReading) delta = cd.cell - prev_cell;
    io.uvarint(delta);
    if constexpr (IO::kReading) {
      if ((delta == 0 && !first_cell) ||
          delta > std::numeric_limits<std::uint32_t>::max() - prev_cell) {
        throw ParseFault{cdr::FaultClass::kCheckpointMismatch,
                         "per-cell duration ids do not strictly ascend "
                         "within u32"};
      }
      cd.cell = static_cast<std::uint32_t>(prev_cell + delta);
    }
    prev_cell = cd.cell;
    first_cell = false;
    varint(io, cd.connections);
    fields(io, cd.median);
  });

  io.seq(s.reorder, cdr::kConnectionBytes,
         [](auto& io, auto& c) { fields(io, c); });
  io.u64(s.reorder_peak);

  io.seq(s.active_bins, 8 + 8 + 8, [](auto& io, auto& bin) {
    io.i64(bin.bin);
    io.vec_u32(bin.cars);
    io.seq(bin.per_cell, 4 + 8, [](auto& io, auto& cell) {
      io.u32(cell.first);
      io.vec_u32(cell.second);
    });
  });

  io.seq(s.folded_bins, 8 + 4 + 1 + 8, [](auto& io, auto& bin) {
    io.i64(bin.bin);
    io.u32(bin.cars);
    io.boolean(bin.provisional);
    io.seq(bin.cells, 4 + 4, [](auto& io, auto& cell) {
      io.u32(cell.first);
      io.u32(cell.second);
    });
  });

  io.u64(s.records);
  io.i64(s.max_day_seen);
  io.boolean(s.closed);
}

/// Appends one framed section whose payload `write` produces.
template <class Fn>
void append_section(std::vector<std::uint8_t>& out,
                    std::vector<std::uint8_t>& payload, std::uint32_t tag,
                    Fn write) {
  payload.clear();
  Writer p(payload);
  write(p);
  Writer w(out);
  w.u32(tag);
  w.u64(payload.size());
  w.bytes(payload);
  w.u32(crc32(payload));
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

std::vector<std::uint8_t> encode(const Checkpoint& checkpoint) {
  std::vector<std::uint8_t> out(kMagic.begin(), kMagic.end());
  Writer(out).u32(Checkpoint::kVersion);

  std::vector<std::uint8_t> payload;
  append_section(out, payload, kTagConfig,
                 [&](Writer& w) { conf(w, checkpoint); });
  append_section(out, payload, kTagProducer,
                 [&](Writer& w) { fields(w, checkpoint.producer); });
  for (std::size_t i = 0; i < checkpoint.shards.size(); ++i) {
    append_section(out, payload, kTagShard,
                   [&](Writer& w) { shrd(w, i, checkpoint.shards[i]); });
  }
  return out;
}

std::optional<Checkpoint> decode(std::span<const std::uint8_t> bytes,
                                 const cdr::IngestOptions& options,
                                 cdr::IngestReport& report) {
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
    if (bytes.size() - pos < 16) {
      return fault(cdr::FaultClass::kTruncatedPayload,
                   "file ends inside a section header", pos);
    }
    std::uint32_t tag = 0;
    std::uint64_t len = 0;
    Reader frame(bytes.subspan(pos, 12));
    frame.u32(tag);
    frame.u64(len);
    if (len > bytes.size() - pos - 16) {
      return fault(cdr::FaultClass::kTruncatedPayload,
                   "section payload overruns the file", pos);
    }
    const auto payload = bytes.subspan(pos + 12, static_cast<std::size_t>(len));
    std::uint32_t stored_crc = 0;
    Reader(bytes.subspan(pos + 12 + static_cast<std::size_t>(len), 4))
        .u32(stored_crc);
    if (crc32(payload) != stored_crc) {
      return fault(cdr::FaultClass::kChecksumMismatch,
                   "section CRC32 does not match its payload", pos);
    }

    const std::uint32_t expected_tag =
        sections_seen == 0 ? kTagConfig
        : sections_seen == 1 ? kTagProducer
                             : kTagShard;
    if (tag != expected_tag) {
      return fault(cdr::FaultClass::kCheckpointMismatch,
                   "unexpected section tag", pos);
    }

    try {
      Reader r(payload);
      if (sections_seen == 0) {
        conf(r, checkpoint);
      } else if (sections_seen == 1) {
        fields(r, checkpoint.producer);
      } else {
        ShardCheckpoint shard;
        shrd(r, checkpoint.shards.size(), shard);
        checkpoint.shards.push_back(std::move(shard));
      }
    } catch (const ParseFault& pf) {
      return fault(pf.fault, pf.reason, pos);
    } catch (const binio::Truncated& t) {
      return fault(cdr::FaultClass::kTruncatedPayload, t.reason, pos);
    }
    ++sections_seen;
    pos += 16 + static_cast<std::size_t>(len);
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
