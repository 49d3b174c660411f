#include "stream/checkpoint.h"

#include <array>
#include <cstring>
#include <fstream>
#include <utility>

#include "util/binio.h"
#include "util/csv.h"

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

// --- Section payload codecs.

void write_p2(Writer& w, const stats::P2Quantile::State& s) {
  w.f64(s.q);
  w.i64(s.count);
  w.i64(s.ignored);
  for (double v : s.heights) w.f64(v);
  for (double v : s.positions) w.f64(v);
  for (double v : s.desired) w.f64(v);
  for (double v : s.increments) w.f64(v);
}

stats::P2Quantile::State read_p2(Reader& r) {
  stats::P2Quantile::State s;
  s.q = r.f64();
  s.count = r.i64();
  s.ignored = r.i64();
  for (double& v : s.heights) v = r.f64();
  for (double& v : s.positions) v = r.f64();
  for (double& v : s.desired) v = r.f64();
  for (double& v : s.increments) v = r.f64();
  return s;
}

void write_accumulator(Writer& w, const stats::Accumulator::State& s) {
  w.i64(s.n);
  w.f64(s.mean);
  w.f64(s.m2);
  w.f64(s.sum);
  w.f64(s.min);
  w.f64(s.max);
}

stats::Accumulator::State read_accumulator(Reader& r) {
  stats::Accumulator::State s;
  s.n = r.i64();
  s.mean = r.f64();
  s.m2 = r.f64();
  s.sum = r.f64();
  s.min = r.f64();
  s.max = r.f64();
  return s;
}

void write_run(Writer& w, const cdr::IntervalUnionRun::State& s) {
  w.i64(s.run_start);
  w.i64(s.run_end);
  w.i64(s.banked);
  w.boolean(s.open);
}

cdr::IntervalUnionRun::State read_run(Reader& r) {
  cdr::IntervalUnionRun::State s;
  s.run_start = r.i64();
  s.run_end = r.i64();
  s.banked = r.i64();
  s.open = r.boolean();
  return s;
}

void write_config(Writer& w, const Checkpoint& checkpoint) {
  const ConfigFingerprint& c = checkpoint.config;
  w.i32(c.shards);
  w.i64(c.allowed_lateness);
  w.i64(c.session_gap);
  w.i32(c.truncation_cap);
  w.i32(c.clean_artifact_duration_s);
  w.i32(c.clean_max_plausible_duration_s);
  w.u32(c.fleet_size);
  w.i32(c.study_days);
  w.i32(c.recent_bins);
  w.boolean(c.exactly_once);
  w.boolean(checkpoint.finished);
}

void read_config(Reader& r, Checkpoint& checkpoint) {
  ConfigFingerprint& c = checkpoint.config;
  c.shards = r.i32();
  c.allowed_lateness = r.i64();
  c.session_gap = r.i64();
  c.truncation_cap = r.i32();
  c.clean_artifact_duration_s = r.i32();
  c.clean_max_plausible_duration_s = r.i32();
  c.fleet_size = r.u32();
  c.study_days = r.i32();
  c.recent_bins = r.i32();
  c.exactly_once = r.boolean();
  checkpoint.finished = r.boolean();
}

void write_producer(Writer& w, const Checkpoint::Producer& p) {
  const cdr::IngestReport& ing = p.ingest;
  w.u8(static_cast<std::uint8_t>(ing.mode));
  w.u64(ing.bytes_consumed);
  w.u64(ing.rows_read);
  w.u64(ing.records_accepted);
  w.u64(ing.records_dropped);
  w.u64(ing.records_repaired);
  w.boolean(ing.bom_stripped);
  w.u64(ing.counters.size());
  for (std::uint64_t c : ing.counters) w.u64(c);
  w.u64(ing.quarantine.size());
  for (const cdr::QuarantineEntry& q : ing.quarantine) {
    w.u8(static_cast<std::uint8_t>(q.fault));
    w.u64(q.byte_offset);
    w.str(q.reason);
    w.str(q.raw);
  }
  w.u64(ing.quarantine_overflow);

  w.u64(p.clean.input_records);
  w.u64(p.clean.hour_artifacts_removed);
  w.u64(p.clean.nonpositive_removed);
  w.u64(p.clean.implausible_removed);

  w.vec_u64(p.durations.hist);
  write_p2(w, p.durations.p2);

  w.i64(p.max_start);
  w.i64(p.watermark);
  w.u64(p.offered);
  w.u64(p.routed);
  w.u64(p.replayed);
  w.vec_u64(p.routed_per_shard);
  w.u64(p.cursors.size());
  for (const AckCursor& cursor : p.cursors) {
    w.u32(cursor.car);
    w.i64(cursor.start);
    w.u32(cursor.cell);
    w.i32(cursor.duration_s);
  }
}

void read_producer(Reader& r, Checkpoint::Producer& p) {
  cdr::IngestReport& ing = p.ingest;
  ing.mode = static_cast<cdr::ParseMode>(r.u8());
  ing.bytes_consumed = r.u64();
  ing.rows_read = r.u64();
  ing.records_accepted = r.u64();
  ing.records_dropped = r.u64();
  ing.records_repaired = r.u64();
  ing.bom_stripped = r.boolean();
  const std::uint64_t n_counters = r.u64();
  if (n_counters != ing.counters.size()) {
    throw ParseFault{cdr::FaultClass::kCheckpointMismatch,
                     "fault-counter table has " + std::to_string(n_counters) +
                         " classes, this build has " +
                         std::to_string(ing.counters.size())};
  }
  for (std::uint64_t& c : ing.counters) c = r.u64();
  const std::uint64_t n_quarantine = r.count(r.u64(), 21);
  ing.quarantine.reserve(static_cast<std::size_t>(n_quarantine));
  for (std::uint64_t i = 0; i < n_quarantine; ++i) {
    cdr::QuarantineEntry entry;
    entry.fault = static_cast<cdr::FaultClass>(r.u8());
    entry.byte_offset = r.u64();
    entry.reason = r.str();
    entry.raw = r.str();
    ing.quarantine.push_back(std::move(entry));
  }
  ing.quarantine_overflow = r.u64();

  p.clean.input_records = static_cast<std::size_t>(r.u64());
  p.clean.hour_artifacts_removed = static_cast<std::size_t>(r.u64());
  p.clean.nonpositive_removed = static_cast<std::size_t>(r.u64());
  p.clean.implausible_removed = static_cast<std::size_t>(r.u64());

  p.durations.hist = r.vec_u64();
  p.durations.p2 = read_p2(r);

  p.max_start = r.i64();
  p.watermark = r.i64();
  p.offered = r.u64();
  p.routed = r.u64();
  p.replayed = r.u64();
  p.routed_per_shard = r.vec_u64();
  const std::uint64_t n_cursors = r.count(r.u64(), 20);
  p.cursors.reserve(static_cast<std::size_t>(n_cursors));
  for (std::uint64_t i = 0; i < n_cursors; ++i) {
    AckCursor cursor;
    cursor.car = r.u32();
    cursor.start = r.i64();
    cursor.cell = r.u32();
    cursor.duration_s = r.i32();
    p.cursors.push_back(cursor);
  }
}

void write_connection(Writer& w, const cdr::Connection& c) {
  w.u32(c.car.value);
  w.u32(c.cell.value);
  w.i64(c.start);
  w.i32(c.duration_s);
}

cdr::Connection read_connection(Reader& r) {
  cdr::Connection c;
  c.car.value = r.u32();
  c.cell.value = r.u32();
  c.start = r.i64();
  c.duration_s = r.i32();
  return c;
}

void write_shard(Writer& w, const ShardCheckpoint& s) {
  w.u64(s.cars.size());
  for (const ShardCheckpoint::Car& car : s.cars) {
    w.u32(car.local_index);
    w.boolean(car.session_open);
    if (car.session_open) {
      w.u32(car.open_session.car.value);
      w.i64(car.open_session.span.start);
      w.i64(car.open_session.span.end);
      w.u64(car.open_session.legs.size());
      for (const cdr::SessionLeg& leg : car.open_session.legs) {
        w.u32(leg.cell.value);
        w.i64(leg.when.start);
        w.i64(leg.when.end);
      }
    }
    write_run(w, car.full);
    write_run(w, car.trunc);
    w.vec_u64(car.day_words);
  }

  w.vec_u32(s.cars_per_day);

  w.u64(s.cell_days.size());
  for (const auto& [cell, words] : s.cell_days) {
    w.u32(cell);
    w.vec_u64(words);
  }

  for (double v : s.usage.values) w.f64(v);
  w.u64(s.sessions_closed);
  write_accumulator(w, s.session_span);

  w.u64(s.cell_durations.size());
  for (const ShardCheckpoint::CellDuration& cd : s.cell_durations) {
    w.u32(cd.cell);
    w.u64(cd.connections);
    write_p2(w, cd.median);
  }

  w.u64(s.reorder.size());
  for (const cdr::Connection& c : s.reorder) write_connection(w, c);
  w.u64(s.reorder_peak);

  w.u64(s.active_bins.size());
  for (const ShardCheckpoint::ActiveBin& bin : s.active_bins) {
    w.i64(bin.bin);
    w.vec_u32(bin.cars);
    w.u64(bin.per_cell.size());
    for (const auto& [cell, cars] : bin.per_cell) {
      w.u32(cell);
      w.vec_u32(cars);
    }
  }

  w.u64(s.folded_bins.size());
  for (const BinCounts& bin : s.folded_bins) {
    w.i64(bin.bin);
    w.u32(bin.cars);
    w.boolean(bin.provisional);
    w.u64(bin.cells.size());
    for (const auto& [cell, count] : bin.cells) {
      w.u32(cell);
      w.u32(count);
    }
  }

  w.u64(s.records);
  w.i64(s.max_day_seen);
  w.boolean(s.closed);
}

void read_shard(Reader& r, ShardCheckpoint& s) {
  const std::uint64_t n_cars = r.count(r.u64(), 30);
  s.cars.reserve(static_cast<std::size_t>(n_cars));
  for (std::uint64_t i = 0; i < n_cars; ++i) {
    ShardCheckpoint::Car car;
    car.local_index = r.u32();
    car.session_open = r.boolean();
    if (car.session_open) {
      car.open_session.car.value = r.u32();
      car.open_session.span.start = r.i64();
      car.open_session.span.end = r.i64();
      const std::uint64_t n_legs = r.count(r.u64(), 20);
      car.open_session.legs.reserve(static_cast<std::size_t>(n_legs));
      for (std::uint64_t l = 0; l < n_legs; ++l) {
        cdr::SessionLeg leg;
        leg.cell.value = r.u32();
        leg.when.start = r.i64();
        leg.when.end = r.i64();
        car.open_session.legs.push_back(leg);
      }
    }
    car.full = read_run(r);
    car.trunc = read_run(r);
    car.day_words = r.vec_u64();
    s.cars.push_back(std::move(car));
  }

  s.cars_per_day = r.vec_u32();

  const std::uint64_t n_cells = r.count(r.u64(), 12);
  s.cell_days.reserve(static_cast<std::size_t>(n_cells));
  for (std::uint64_t i = 0; i < n_cells; ++i) {
    const std::uint32_t cell = r.u32();
    s.cell_days.emplace_back(cell, r.vec_u64());
  }

  for (double& v : s.usage.values) v = r.f64();
  s.sessions_closed = r.u64();
  s.session_span = read_accumulator(r);

  const std::uint64_t n_durations = r.count(r.u64(), 12);
  s.cell_durations.reserve(static_cast<std::size_t>(n_durations));
  for (std::uint64_t i = 0; i < n_durations; ++i) {
    ShardCheckpoint::CellDuration cd;
    cd.cell = r.u32();
    cd.connections = r.u64();
    cd.median = read_p2(r);
    s.cell_durations.push_back(cd);
  }

  const std::uint64_t n_reorder = r.count(r.u64(), 20);
  s.reorder.reserve(static_cast<std::size_t>(n_reorder));
  for (std::uint64_t i = 0; i < n_reorder; ++i) {
    s.reorder.push_back(read_connection(r));
  }
  s.reorder_peak = r.u64();

  const std::uint64_t n_active = r.count(r.u64(), 8);
  s.active_bins.reserve(static_cast<std::size_t>(n_active));
  for (std::uint64_t i = 0; i < n_active; ++i) {
    ShardCheckpoint::ActiveBin bin;
    bin.bin = r.i64();
    bin.cars = r.vec_u32();
    const std::uint64_t n_per_cell = r.count(r.u64(), 12);
    bin.per_cell.reserve(static_cast<std::size_t>(n_per_cell));
    for (std::uint64_t c = 0; c < n_per_cell; ++c) {
      const std::uint32_t cell = r.u32();
      bin.per_cell.emplace_back(cell, r.vec_u32());
    }
    s.active_bins.push_back(std::move(bin));
  }

  const std::uint64_t n_folded = r.count(r.u64(), 13);
  s.folded_bins.reserve(static_cast<std::size_t>(n_folded));
  for (std::uint64_t i = 0; i < n_folded; ++i) {
    BinCounts bin;
    bin.bin = r.i64();
    bin.cars = r.u32();
    bin.provisional = r.boolean();
    const std::uint64_t n_bin_cells = r.count(r.u64(), 8);
    bin.cells.reserve(static_cast<std::size_t>(n_bin_cells));
    for (std::uint64_t c = 0; c < n_bin_cells; ++c) {
      const std::uint32_t cell = r.u32();
      const std::uint32_t count = r.u32();
      bin.cells.emplace_back(cell, count);
    }
    s.folded_bins.push_back(std::move(bin));
  }

  s.records = r.u64();
  s.max_day_seen = r.i64();
  s.closed = r.boolean();
}

void append_section(std::vector<std::uint8_t>& out, std::uint32_t tag,
                    const std::vector<std::uint8_t>& payload) {
  Writer w(out);
  w.u32(tag);
  w.u64(payload.size());
  out.insert(out.end(), payload.begin(), payload.end());
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
  ++report.counters[static_cast<std::size_t>(fault)];
  if (report.quarantine.size() < options.quarantine_cap) {
    cdr::QuarantineEntry entry;
    entry.fault = fault;
    entry.byte_offset = offset;
    entry.reason = reason;
    report.quarantine.push_back(std::move(entry));
  } else {
    ++report.quarantine_overflow;
  }
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
  std::vector<std::uint8_t> out;
  out.insert(out.end(), kMagic.begin(), kMagic.end());
  {
    Writer w(out);
    w.u32(Checkpoint::kVersion);
  }

  std::vector<std::uint8_t> payload;
  {
    Writer w(payload);
    write_config(w, checkpoint);
  }
  append_section(out, kTagConfig, payload);

  payload.clear();
  {
    Writer w(payload);
    write_producer(w, checkpoint.producer);
  }
  append_section(out, kTagProducer, payload);

  for (std::size_t i = 0; i < checkpoint.shards.size(); ++i) {
    payload.clear();
    Writer w(payload);
    // The payload leads with its own shard index: SHRD sections all carry
    // the same tag, so without it two swapped (individually valid) shard
    // images would silently restore into the wrong shards.
    w.u32(static_cast<std::uint32_t>(i));
    write_shard(w, checkpoint.shards[i]);
    append_section(out, kTagShard, payload);
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
  Reader header(bytes.subspan(4, 4));
  const std::uint32_t version = header.u32();
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
    Reader frame(bytes.subspan(pos, 12));
    const std::uint32_t tag = frame.u32();
    const std::uint64_t len = frame.u64();
    if (len > bytes.size() - pos - 16) {
      return fault(cdr::FaultClass::kTruncatedPayload,
                   "section payload overruns the file", pos);
    }
    const auto payload = bytes.subspan(pos + 12, static_cast<std::size_t>(len));
    Reader crc_frame(
        bytes.subspan(pos + 12 + static_cast<std::size_t>(len), 4));
    const std::uint32_t stored_crc = crc_frame.u32();
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
        read_config(r, checkpoint);
      } else if (sections_seen == 1) {
        read_producer(r, checkpoint.producer);
      } else {
        const std::uint32_t index = r.u32();
        if (index != checkpoint.shards.size()) {
          throw ParseFault{cdr::FaultClass::kCheckpointMismatch,
                           "shard section " +
                               std::to_string(checkpoint.shards.size()) +
                               " carries index " + std::to_string(index) +
                               " (sections out of order)"};
        }
        ShardCheckpoint shard;
        read_shard(r, shard);
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
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw util::CsvError("checkpoint: cannot open " + path + " for writing");
  }
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  out.flush();
  if (!out) {
    throw util::CsvError("checkpoint: short write to " + path);
  }
}

std::optional<Checkpoint> load_checkpoint(const std::string& path,
                                          const cdr::IngestOptions& options,
                                          cdr::IngestReport& report) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (options.mode == cdr::ParseMode::kStrict) {
      throw util::CsvError("checkpoint: cannot open " + path);
    }
    account_fault(report, options, cdr::FaultClass::kBadHeader,
                  "cannot open " + path, 0);
    return std::nullopt;
  }
  std::vector<std::uint8_t> bytes(
      (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  return decode(bytes, options, report);
}

}  // namespace ccms::stream
