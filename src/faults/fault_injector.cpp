#include "faults/fault_injector.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <optional>

#include "util/csv.h"

namespace ccms::faults {

namespace {

using cdr::Connection;
using cdr::FaultClass;

constexpr std::string_view kBom = "\xEF\xBB\xBF";
constexpr std::int64_t kOverflowValue = 4000000000LL;  // > INT32_MAX

/// The record-level classes in fixed draw order (one uniform draw per
/// record walks this cumulative ladder, so at most one fault per record).
enum class CsvFault : int {
  kNone = -1,
  kTruncated = 0,
  kGarbage,
  kDuplicate,
  kOutOfOrder,
  kHour,
  kSkew,
  kNegative,
  kOverflow,
  kUnknown,
};

std::array<double, 9> ladder(const CsvFaultRates& r) {
  return {r.truncated_line,    r.garbage_field,     r.duplicate_record,
          r.out_of_order,      r.hour_artifact,     r.clock_skew,
          r.negative_duration, r.overflow_duration, r.unknown_cell};
}

CsvFault draw_fault(util::Rng& rng, const CsvFaultRates& rates) {
  const auto steps = ladder(rates);
  double u = rng.uniform();
  for (std::size_t i = 0; i < steps.size(); ++i) {
    if (u < steps[i]) return static_cast<CsvFault>(i);
    u -= steps[i];
  }
  return CsvFault::kNone;
}

std::optional<Connection> parse_record(std::string_view line) {
  std::vector<std::string> fields;
  try {
    fields = util::split_csv_line(line);
    if (fields.size() < 4) return std::nullopt;
    const std::int64_t car = util::parse_i64(fields[0]);
    const std::int64_t cell = util::parse_i64(fields[1]);
    const std::int64_t start = util::parse_i64(fields[2]);
    const std::int64_t duration = util::parse_i64(fields[3]);
    return Connection{CarId{static_cast<std::uint32_t>(car)},
                      CellId{static_cast<std::uint32_t>(cell)}, start,
                      static_cast<std::int32_t>(duration)};
  } catch (const util::CsvError&) {
    return std::nullopt;
  }
}

std::string format_fields(std::int64_t car, std::int64_t cell,
                          std::int64_t start, std::int64_t duration) {
  return std::to_string(car) + ',' + std::to_string(cell) + ',' +
         std::to_string(start) + ',' + std::to_string(duration);
}

std::string garbage_token(util::Rng& rng) {
  static constexpr char kChars[] = "abcdefgh!@%_";
  const std::size_t n = 4 + static_cast<std::size_t>(rng.uniform_int(0, 2));
  std::string out;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(kChars[static_cast<std::size_t>(
        rng.uniform_int(0, sizeof kChars - 2))]);
  }
  return out;
}

void log_fault(FaultLog& log, FaultClass fault, std::uint64_t offset,
               std::uint64_t record_index) {
  log.faults.push_back(InjectedFault{fault, offset, record_index});
  ++log.counts[static_cast<std::size_t>(fault)];
}

}  // namespace

CsvFaultRates CsvFaultRates::uniform(double total) {
  CsvFaultRates rates;
  const double each = total / 9.0;
  rates.truncated_line = each;
  rates.garbage_field = each;
  rates.duplicate_record = each;
  rates.out_of_order = each;
  rates.hour_artifact = each;
  rates.clock_skew = each;
  rates.negative_duration = each;
  rates.overflow_duration = each;
  rates.unknown_cell = each;
  return rates;
}

double CsvFaultRates::total() const {
  double total = 0;
  for (const double r : ladder(*this)) total += r;
  return total;
}

std::uint64_t FaultLog::ingest_detectable() const {
  std::uint64_t n = 0;
  for (const InjectedFault& f : faults) {
    if (cdr::detected_at_ingest(f.fault)) ++n;
  }
  return n;
}

std::uint64_t FaultLog::first_fatal_offset() const {
  std::uint64_t best = std::numeric_limits<std::uint64_t>::max();
  for (const InjectedFault& f : faults) {
    if (cdr::detected_at_ingest(f.fault) && f.byte_offset < best) {
      best = f.byte_offset;
    }
  }
  return best;
}

FaultInjector::FaultInjector(std::uint64_t seed, FaultEnv env)
    : rng_(seed), env_(env) {}

FaultInjector::CorruptedCsv FaultInjector::corrupt_csv(
    std::string_view canonical_csv, const CsvFaultRates& rates) {
  // Split into physical lines (canonical exports use bare '\n').
  std::vector<std::string_view> lines;
  std::size_t pos = 0;
  while (pos < canonical_csv.size()) {
    auto eol = canonical_csv.find('\n', pos);
    if (eol == std::string_view::npos) eol = canonical_csv.size();
    lines.push_back(canonical_csv.substr(pos, eol - pos));
    pos = eol + 1;
  }

  // A line to emit, optionally tagged with the fault it carries. The tag
  // sits on the line where the hardened reader *detects* the fault (e.g.
  // the second copy of a duplicate, the displaced half of a swap).
  struct Emitted {
    std::string text;
    FaultClass tag = FaultClass::kCount;
    std::uint64_t record_index = 0;
  };
  std::vector<Emitted> emitted;
  emitted.reserve(lines.size() + 8);

  // Pre-parse the data rows so swap feasibility can be decided.
  std::vector<std::optional<Connection>> parsed(lines.size());
  std::vector<bool> is_data(lines.size(), false);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string_view line = lines[i];
    if (line.empty() || line[0] == '#' ||
        line.substr(0, 4) == "car,") {
      continue;
    }
    parsed[i] = parse_record(line);
    is_data[i] = parsed[i].has_value();
  }

  std::uint64_t record_ordinal = 0;
  std::vector<bool> consumed(lines.size(), false);
  // The last emitted record the reader's order screen sees (rows with a
  // value fault are quarantined before it).
  std::optional<Connection> sequenced;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (consumed[i]) continue;
    if (!is_data[i]) {
      emitted.push_back(Emitted{std::string(lines[i])});
      continue;
    }
    const Connection rec = *parsed[i];
    const std::uint64_t ordinal = record_ordinal++;
    CsvFault fault = draw_fault(rng_, rates);
    Connection hour = rec;  // the kHour rewrite
    hour.duration_s = 3600;

    // Feasibility: skip classes the current record/environment cannot make
    // unambiguously detectable.
    switch (fault) {
      case CsvFault::kOutOfOrder: {
        const bool next_ok = i + 1 < lines.size() && is_data[i + 1] &&
                             !consumed[i + 1] &&
                             cdr::ByCarThenStart{}(rec, *parsed[i + 1]);
        if (!next_ok) fault = CsvFault::kNone;
        break;
      }
      case CsvFault::kHour: {
        // Duration breaks ties in the sort key, so the rewritten record
        // must still sort strictly between its emitted predecessor and the
        // next data row; otherwise the reader flags an out-of-order or
        // duplicate record the log never saw.
        std::size_t next = i + 1;
        while (next < lines.size() && !is_data[next]) ++next;
        const bool fits =
            (!sequenced || cdr::ByCarThenStart{}(*sequenced, hour)) &&
            (next == lines.size() ||
             cdr::ByCarThenStart{}(hour, *parsed[next]));
        if (rec.duration_s == 3600 || !fits) fault = CsvFault::kNone;
        break;
      }
      case CsvFault::kSkew:
        if (env_.horizon_s <= 0) fault = CsvFault::kNone;
        break;
      case CsvFault::kUnknown:
        if (env_.cell_universe == 0) fault = CsvFault::kNone;
        break;
      default:
        break;
    }

    switch (fault) {
      case CsvFault::kNone:
        emitted.push_back(Emitted{std::string(lines[i])});
        sequenced = rec;
        break;
      case CsvFault::kTruncated: {
        // Keep 1..3 fields: the row still looks like data but is short.
        const int keep = 1 + static_cast<int>(rng_.uniform_int(0, 2));
        std::string_view line = lines[i];
        std::size_t cut = 0;
        int commas = 0;
        while (cut < line.size() && commas < keep) {
          if (line[cut] == ',') ++commas;
          if (commas < keep) ++cut;
        }
        emitted.push_back(Emitted{std::string(line.substr(0, cut)),
                                  FaultClass::kTruncatedLine, ordinal});
        break;
      }
      case CsvFault::kGarbage: {
        std::vector<std::string> fields =
            util::split_csv_line(lines[i]);
        fields[static_cast<std::size_t>(rng_.uniform_int(0, 3))] =
            garbage_token(rng_);
        std::string text = fields[0];
        for (std::size_t f = 1; f < fields.size(); ++f) {
          text += ',';
          text += fields[f];
        }
        emitted.push_back(
            Emitted{std::move(text), FaultClass::kBadField, ordinal});
        break;
      }
      case CsvFault::kDuplicate:
        emitted.push_back(Emitted{std::string(lines[i])});
        emitted.push_back(Emitted{std::string(lines[i]),
                                  FaultClass::kDuplicateRecord, ordinal});
        sequenced = rec;
        break;
      case CsvFault::kOutOfOrder:
        // Swap with the successor; detection fires on the displaced row.
        emitted.push_back(Emitted{std::string(lines[i + 1])});
        emitted.push_back(Emitted{std::string(lines[i]),
                                  FaultClass::kOutOfOrderRecord, ordinal});
        consumed[i + 1] = true;
        ++record_ordinal;  // the successor was emitted here
        sequenced = rec;
        break;
      case CsvFault::kHour:
        emitted.push_back(Emitted{
            format_fields(rec.car.value, rec.cell.value, rec.start, 3600),
            FaultClass::kHourArtifact, ordinal});
        sequenced = hour;
        break;
      case CsvFault::kSkew: {
        const std::int64_t start =
            env_.horizon_s + 3600 + rng_.uniform_int(0, 86399);
        emitted.push_back(Emitted{format_fields(rec.car.value, rec.cell.value,
                                                start, rec.duration_s),
                                  FaultClass::kClockSkew, ordinal});
        break;
      }
      case CsvFault::kNegative: {
        const std::int64_t d = -(1 + rng_.uniform_int(0, 999));
        emitted.push_back(Emitted{
            format_fields(rec.car.value, rec.cell.value, rec.start, d),
            FaultClass::kNegativeDuration, ordinal});
        break;
      }
      case CsvFault::kOverflow:
        emitted.push_back(Emitted{format_fields(rec.car.value, rec.cell.value,
                                                rec.start, kOverflowValue),
                                  FaultClass::kOverflowDuration, ordinal});
        break;
      case CsvFault::kUnknown: {
        const std::int64_t cell =
            env_.cell_universe + rng_.uniform_int(0, 999);
        emitted.push_back(Emitted{
            format_fields(rec.car.value, cell, rec.start, rec.duration_s),
            FaultClass::kUnknownCell, ordinal});
        break;
      }
    }
  }

  for (int b = 0; b < rates.trailing_blank_lines; ++b) {
    emitted.push_back(Emitted{std::string()});
  }

  // Assemble, computing each line's byte offset exactly as the readers do.
  const std::string_view eol = rates.crlf ? "\r\n" : "\n";
  CorruptedCsv out;
  out.text.reserve(canonical_csv.size() + 64);
  if (rates.add_bom) out.text.append(kBom);
  bool first = true;
  for (const Emitted& line : emitted) {
    // Readers treat a leading BOM as part of the first line, so the first
    // line anchors at offset 0 even when a BOM precedes it.
    const std::uint64_t anchor = first ? 0 : out.text.size();
    first = false;
    if (line.tag != FaultClass::kCount) {
      log_fault(out.log, line.tag, anchor, line.record_index);
    }
    out.text.append(line.text);
    out.text.append(eol);
  }
  return out;
}

FaultInjector::CorruptedBinary FaultInjector::corrupt_binary(
    std::string_view ccdr1_bytes, const BinaryFaultPlan& plan) {
  constexpr std::size_t kHeaderSize = 24;
  constexpr std::size_t kRecordSize = 24;
  CorruptedBinary out;
  out.bytes.assign(ccdr1_bytes);

  if (plan.corrupt_magic) {
    if (out.bytes.size() >= 8) {
      out.bytes[2] = static_cast<char>(out.bytes[2] ^ 0x40);
      log_fault(out.log, FaultClass::kBadHeader, 0, 0);
    }
    return out;  // a dead header masks everything else
  }
  if (out.bytes.size() < kHeaderSize) return out;

  std::uint64_t claimed = 0;
  std::memcpy(&claimed, out.bytes.data() + 8, sizeof claimed);

  if (plan.truncate_records > 0) {
    const std::uint64_t have = (out.bytes.size() - kHeaderSize) / kRecordSize;
    const std::uint64_t chop =
        std::min<std::uint64_t>(plan.truncate_records, have);
    out.bytes.resize(out.bytes.size() - chop * kRecordSize);
  }
  if (plan.inflate_record_count) {
    const std::uint64_t inflated =
        claimed + 1 + static_cast<std::uint64_t>(rng_.uniform_int(0, 9999));
    std::memcpy(out.bytes.data() + 8, &inflated, sizeof inflated);
    claimed = inflated;
  }
  const std::uint64_t available =
      (out.bytes.size() - kHeaderSize) / kRecordSize;
  if (claimed > available) {
    // One detection event regardless of how the mismatch was produced.
    log_fault(out.log, FaultClass::kTruncatedPayload, 8, 0);
  }

  const std::uint64_t n = std::min(claimed, available);
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t offset = kHeaderSize + i * kRecordSize;
    double u = rng_.uniform();
    if (u < plan.flip_duration_sign) {
      // Little-endian int32 at record offset 16: the sign lives in byte 19.
      out.bytes[offset + 19] = static_cast<char>(
          static_cast<unsigned char>(out.bytes[offset + 19]) | 0x80);
      log_fault(out.log, FaultClass::kNegativeDuration, offset, i);
      continue;
    }
    u -= plan.flip_duration_sign;
    if (u < plan.flip_cell_high_bit && env_.cell_universe > 0) {
      // Little-endian uint32 at record offset 4: top bit in byte 7.
      out.bytes[offset + 7] = static_cast<char>(
          static_cast<unsigned char>(out.bytes[offset + 7]) | 0x80);
      log_fault(out.log, FaultClass::kUnknownCell, offset, i);
    }
  }
  return out;
}

FaultInjector::CorruptedDataset FaultInjector::corrupt_dataset(
    const cdr::Dataset& input, const CsvFaultRates& rates) {
  CorruptedDataset out;
  out.dataset.set_fleet_size(input.fleet_size());
  out.dataset.set_study_days(input.study_days());
  out.dataset.reserve(input.size());

  std::uint64_t index = 0;
  for (Connection c : input.all()) {
    const std::uint64_t ordinal = index++;
    CsvFault fault = draw_fault(rng_, rates);
    switch (fault) {
      // Line-structure classes do not exist inside a Dataset; a finalized
      // Dataset is sorted, so swaps cannot survive either.
      case CsvFault::kTruncated:
      case CsvFault::kGarbage:
      case CsvFault::kOutOfOrder:
        fault = CsvFault::kNone;
        break;
      case CsvFault::kHour:
        if (c.duration_s == 3600) fault = CsvFault::kNone;
        break;
      case CsvFault::kSkew:
        if (env_.horizon_s <= 0) fault = CsvFault::kNone;
        break;
      case CsvFault::kUnknown:
        if (env_.cell_universe == 0) fault = CsvFault::kNone;
        break;
      default:
        break;
    }
    switch (fault) {
      case CsvFault::kDuplicate:
        out.dataset.add(c);
        out.dataset.add(c);
        log_fault(out.log, FaultClass::kDuplicateRecord, ordinal, ordinal);
        continue;
      case CsvFault::kHour:
        c.duration_s = 3600;
        log_fault(out.log, FaultClass::kHourArtifact, ordinal, ordinal);
        break;
      case CsvFault::kSkew:
        c.start = env_.horizon_s + 3600 + rng_.uniform_int(0, 86399);
        log_fault(out.log, FaultClass::kClockSkew, ordinal, ordinal);
        break;
      case CsvFault::kNegative:
        c.duration_s = static_cast<std::int32_t>(-(1 + rng_.uniform_int(0, 999)));
        log_fault(out.log, FaultClass::kNegativeDuration, ordinal, ordinal);
        break;
      case CsvFault::kOverflow:
        c.duration_s = std::numeric_limits<std::int32_t>::max();
        log_fault(out.log, FaultClass::kOverflowDuration, ordinal, ordinal);
        break;
      case CsvFault::kUnknown:
        c.cell = CellId{env_.cell_universe +
                        static_cast<std::uint32_t>(rng_.uniform_int(0, 999))};
        log_fault(out.log, FaultClass::kUnknownCell, ordinal, ordinal);
        break;
      default:
        break;
    }
    out.dataset.add(c);
  }
  out.dataset.finalize();
  return out;
}

FaultInjector::JitteredFeed FaultInjector::jitter_feed(
    std::span<const cdr::Connection> start_sorted_feed,
    const FeedJitter& jitter) {
  // Why the late records are *provably* quarantined and everything else is
  // *provably* not:
  //  - A delayed record y arrives at y.start + delay with delay <= L (the
  //    allowed lateness). Every record z that arrived before it satisfies
  //    z.start <= z.arrival <= y.arrival <= y.start + L, so the watermark
  //    max(z.start) - L <= y.start: y is inside the window.
  //  - A late-flagged record r is scheduled right after a non-flagged
  //    witness x with x.start >= r.start + L + 1. x arrives at most at
  //    x.start + L < r.arrival, so when r arrives the watermark is already
  //    >= x.start - L >= r.start + 1: r is past the window.
  // Quarantined records never advance the watermark, so late records cannot
  // eject one another's witnesses. Records the engine's clean screen removes
  // (see `screened` below) never reach the watermark at all, so they are
  // excluded from both roles.
  const std::size_t n = start_sorted_feed.size();
  const time::Seconds lateness = std::max<time::Seconds>(0,
                                                         jitter.allowed_lateness);
  const time::Seconds max_delay =
      std::clamp<time::Seconds>(jitter.max_delay, 0, lateness);

  // A record the engine's clean screen removes never reaches the watermark:
  // it cannot be quarantined as late, and as a witness it would never
  // advance the watermark past its flagged record's start.
  const auto screened = [&](std::size_t i) {
    const std::int32_t d = start_sorted_feed[i].duration_s;
    return d <= 0 ||
           (jitter.artifact_duration_s > 0 &&
            d == jitter.artifact_duration_s) ||
           (jitter.max_plausible_duration_s > 0 &&
            d > jitter.max_plausible_duration_s);
  };

  // One flag draw + one delay draw per record, unconditionally, so the rng
  // stream (and thus the whole feed) is deterministic per seed.
  std::vector<char> flagged(n, 0);
  std::vector<time::Seconds> delay(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    flagged[i] = rng_.uniform() < jitter.late_rate && !screened(i) ? 1 : 0;
    delay[i] = max_delay > 0 ? rng_.uniform_int(0, max_delay) : 0;
  }

  // Resolve witnesses; records with no usable witness stay on time.
  struct Arrival {
    time::Seconds at = 0;
    std::uint64_t index = 0;
  };
  std::vector<Arrival> order;
  order.reserve(n);
  JitteredFeed out;
  for (std::size_t i = 0; i < n; ++i) {
    const cdr::Connection& r = start_sorted_feed[i];
    time::Seconds at = r.start + delay[i];
    if (flagged[i]) {
      const time::Seconds needed = r.start + lateness + 1;
      auto w = std::lower_bound(
          start_sorted_feed.begin(), start_sorted_feed.end(), needed,
          [](const cdr::Connection& c, time::Seconds t) { return c.start < t; });
      while (w != start_sorted_feed.end() &&
             (flagged[static_cast<std::size_t>(w -
                                               start_sorted_feed.begin())] ||
              screened(static_cast<std::size_t>(w -
                                                start_sorted_feed.begin())))) {
        ++w;
      }
      if (w != start_sorted_feed.end()) {
        at = w->start + max_delay + 1;
        out.late.push_back(r);
      } else {
        flagged[i] = 0;
      }
    }
    order.push_back({at, static_cast<std::uint64_t>(i)});
  }
  std::sort(order.begin(), order.end(), [](const Arrival& a, const Arrival& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.index < b.index;
  });
  out.arrivals.reserve(n);
  for (const Arrival& a : order) {
    out.arrivals.push_back(start_sorted_feed[static_cast<std::size_t>(a.index)]);
  }
  return out;
}

}  // namespace ccms::faults
