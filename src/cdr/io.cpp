#include "cdr/io.h"

#include <algorithm>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>

#include "exec/thread_pool.h"
#include "util/csv.h"

namespace ccms::cdr {

namespace {

constexpr std::string_view kBom = "\xEF\xBB\xBF";

/// Default minimum chunk granularity for parallel ingest (1 MiB): small
/// inputs parse as one chunk, paper-scale traces split into width*4 chunks.
constexpr std::size_t kDefaultIngestChunkBytes = std::size_t{1} << 20;

/// Legacy behaviour: structural strictness, no semantic screening.
IngestOptions legacy_options() {
  IngestOptions options;
  options.mode = ParseMode::kStrict;
  options.check_order = false;
  options.check_duplicates = false;
  return options;
}

/// Everything one ingest chunk produces. Chunks parse independently (in
/// parallel); merge_outcomes() stitches them back together in byte order so
/// the result is bitwise identical to a single sequential pass.
struct ChunkOutcome {
  std::vector<Connection> accepted;
  IngestReport report;  ///< this chunk's slice; byte offsets are absolute

  /// Sequence-chain stitching state: the order/duplicate screen compares
  /// each record against its predecessor, which crosses chunk seams. The
  /// merge re-applies the check between the previous chunk's last screened
  /// record and this chunk's first.
  bool has_seen = false;  ///< a record reached the sequence screen
  Connection first_seen{};
  Connection last_seen{};
  std::uint64_t first_seen_offset = 0;
  std::string first_seen_raw;
  std::uint64_t rows_at_first_seen = 0;  ///< rows_read incl. first_seen

  /// CSV metadata rows seen in this chunk (last value wins, as in the
  /// sequential pass).
  std::optional<std::uint32_t> meta_fleet_size;
  std::optional<int> meta_study_days;

  /// Strict mode: the chunk's first fault, captured instead of thrown so
  /// the merge can rethrow the fault with the *lowest byte offset* — the
  /// same fault a sequential strict pass would hit first.
  bool has_fault = false;
  std::uint64_t fault_offset = 0;
  std::string fault_message;
};

/// Fault sink for the CSV chunk parser. Lenient mode
/// quarantines and counts; strict mode captures the first fault and stops
/// the chunk (the caller rethrows the earliest fault across chunks, so a
/// single-chunk parse throws exactly what the pre-chunking reader did).
class FaultSink {
 public:
  FaultSink(const IngestOptions& options, ChunkOutcome& out,
            const std::string& label)
      : options_(options), out_(out), label_(label) {}

  /// True once a strict-mode fault stopped this chunk.
  [[nodiscard]] bool stopped() const { return out_.has_fault; }

  void fault(FaultClass fault, std::uint64_t byte_offset, std::string reason,
             std::string raw) {
    if (options_.mode == ParseMode::kStrict) {
      ++out_.report.counters[static_cast<std::size_t>(fault)];
      if (!out_.has_fault) {
        out_.has_fault = true;
        out_.fault_offset = byte_offset;
        out_.fault_message = reason + " at byte offset " +
                             std::to_string(byte_offset) + " in " + label_;
      }
      return;
    }
    out_.report.record_fault(options_.quarantine_cap, fault, byte_offset,
                             std::move(reason), std::move(raw));
  }

  /// Record-level value screening. `duration` is the pre-cast 64-bit value
  /// so text overflow is caught before narrowing. Returns true if the record
  /// is acceptable.
  bool validate(std::int64_t start, std::uint32_t cell, std::int64_t duration,
                std::uint64_t byte_offset, std::string_view raw) {
    if (duration < 0) {
      fault(FaultClass::kNegativeDuration, byte_offset,
            "negative duration " + std::to_string(duration), std::string(raw));
      return false;
    }
    if (duration > std::numeric_limits<std::int32_t>::max() ||
        (options_.max_duration_s > 0 && duration > options_.max_duration_s)) {
      fault(FaultClass::kOverflowDuration, byte_offset,
            "duration " + std::to_string(duration) + " beyond ceiling",
            std::string(raw));
      return false;
    }
    if (options_.horizon_s > 0 && (start < 0 || start >= options_.horizon_s)) {
      fault(FaultClass::kClockSkew, byte_offset,
            "start " + std::to_string(start) + " outside [0, " +
                std::to_string(options_.horizon_s) + ")",
            std::string(raw));
      return false;
    }
    if (options_.cell_universe > 0 && cell >= options_.cell_universe) {
      fault(FaultClass::kUnknownCell, byte_offset,
            "cell " + std::to_string(cell) + " outside universe of " +
                std::to_string(options_.cell_universe),
            std::string(raw));
      return false;
    }
    return true;
  }

  /// Order/duplicate screening against the previously screened record of
  /// this chunk. Returns true if the record should be appended.
  bool sequence(const Connection& c, std::uint64_t byte_offset,
                std::string_view raw) {
    if (!out_.has_seen) {
      out_.has_seen = true;
      out_.first_seen = c;
      out_.first_seen_offset = byte_offset;
      out_.first_seen_raw = std::string(raw);
      out_.rows_at_first_seen = out_.report.rows_read;
    }
    bool accept = true;
    if (have_previous_) {
      if (options_.check_duplicates && c == previous_) {
        fault(FaultClass::kDuplicateRecord, byte_offset,
              "exact duplicate of the previous record", std::string(raw));
        // The surviving copy stands in for it (not counted when a strict
        // fault stopped the chunk — the sequential pass throws before this).
        if (!stopped()) ++out_.report.records_repaired;
        accept = false;
      } else if (options_.check_order && ByCarThenStart{}(c, previous_)) {
        fault(FaultClass::kOutOfOrderRecord, byte_offset,
              "record sorts before its predecessor", std::string(raw));
        if (!stopped()) ++out_.report.records_repaired;
      }
    }
    previous_ = c;
    have_previous_ = true;
    out_.last_seen = c;
    return accept && !stopped();
  }

 private:
  const IngestOptions& options_;
  ChunkOutcome& out_;
  const std::string& label_;
  Connection previous_{};
  bool have_previous_ = false;
};

/// Line-oriented CSV chunk parser; the caller feeds raw lines (without
/// '\n') plus their absolute byte offsets.
class CsvIngester {
 public:
  CsvIngester(const IngestOptions& options, ChunkOutcome& out,
              const std::string& label, bool first_chunk)
      : out_(out), sink_(options, out, label), first_line_(first_chunk) {}

  void process_line(std::string_view line, std::uint64_t offset) {
    if (sink_.stopped()) return;
    if (first_line_) {
      first_line_ = false;
      if (line.substr(0, kBom.size()) == kBom) {
        line.remove_prefix(kBom.size());
        out_.report.bom_stripped = true;
      }
    }
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line.find_first_not_of(" \t") == std::string_view::npos) return;
    if (line[0] == '#') {
      parse_metadata(line);
      return;
    }

    std::vector<std::string> fields;
    try {
      fields = util::split_csv_line(line);
    } catch (const util::CsvError& e) {
      ++out_.report.rows_read;
      ++out_.report.records_dropped;
      sink_.fault(FaultClass::kBadField, offset, e.what(), std::string(line));
      return;
    }
    if (fields.empty() || fields[0].empty()) return;
    if (fields[0] == "car") return;  // header row

    ++out_.report.rows_read;
    if (fields.size() < 4) {
      ++out_.report.records_dropped;
      sink_.fault(FaultClass::kTruncatedLine, offset,
                  "row has " + std::to_string(fields.size()) +
                      " fields, need 4",
                  std::string(line));
      return;
    }

    std::int64_t car = 0, cell = 0, start = 0, duration = 0;
    try {
      car = util::parse_i64(fields[0]);
      cell = util::parse_i64(fields[1]);
      start = util::parse_i64(fields[2]);
      duration = util::parse_i64(fields[3]);
    } catch (const util::CsvError& e) {
      ++out_.report.records_dropped;
      sink_.fault(FaultClass::kBadField, offset, e.what(), std::string(line));
      return;
    }
    constexpr std::int64_t kIdMax = std::numeric_limits<std::uint32_t>::max();
    if (car < 0 || car > kIdMax || cell < 0 || cell > kIdMax) {
      ++out_.report.records_dropped;
      sink_.fault(FaultClass::kBadField, offset,
                  "car/cell id outside uint32 range", std::string(line));
      return;
    }
    if (!sink_.validate(start, static_cast<std::uint32_t>(cell), duration,
                        offset, line)) {
      // A strict fault throws mid-validate in the sequential pass, before
      // the drop is recorded; match that here.
      if (!sink_.stopped()) ++out_.report.records_dropped;
      return;
    }
    const Connection c{CarId{static_cast<std::uint32_t>(car)},
                       CellId{static_cast<std::uint32_t>(cell)}, start,
                       static_cast<std::int32_t>(duration)};
    if (!sink_.sequence(c, offset, line)) return;
    out_.accepted.push_back(c);
    ++out_.report.records_accepted;
  }

 private:
  void parse_metadata(std::string_view line) {
    // Metadata row: "#fleet_size=N,study_days=M".
    try {
      const std::vector<std::string> fields = util::split_csv_line(line);
      if (fields.empty()) return;
      const std::string& f0 = fields[0];
      const auto eq = f0.find('=');
      if (eq != std::string::npos && f0.substr(1, eq - 1) == "fleet_size") {
        out_.meta_fleet_size =
            static_cast<std::uint32_t>(util::parse_i64(f0.substr(eq + 1)));
      }
      if (fields.size() > 1) {
        const auto eq2 = fields[1].find('=');
        if (eq2 != std::string::npos &&
            fields[1].substr(0, eq2) == "study_days") {
          out_.meta_study_days =
              static_cast<int>(util::parse_i64(fields[1].substr(eq2 + 1)));
        }
      }
    } catch (const util::CsvError&) {
      // Damaged metadata degrades to the derived defaults.
    }
  }

  ChunkOutcome& out_;
  FaultSink sink_;
  bool first_line_;
};

void apply_meta(Dataset& dataset, const ChunkOutcome& part) {
  if (part.meta_fleet_size) dataset.set_fleet_size(*part.meta_fleet_size);
  if (part.meta_study_days) dataset.set_study_days(*part.meta_study_days);
}

/// Stitches chunk outcomes back into one Dataset + IngestReport, in chunk
/// (= byte) order. `report` arrives pre-seeded with mode/bytes_consumed.
/// Re-applies the
/// order/duplicate screen across chunk seams, merges the chunk reports in
/// offset order (IngestReport::merge re-applies the global quarantine cap),
/// and — in strict mode — throws the earliest fault with a report state
/// identical to where the sequential pass would have stopped.
Dataset merge_outcomes(std::vector<ChunkOutcome>& parts,
                       const IngestOptions& options, IngestReport& report,
                       const std::string& label, exec::ThreadPool* pool) {
  Dataset dataset;
  const bool strict = options.mode == ParseMode::kStrict;
  std::size_t total_accepted = 0;
  const ChunkOutcome* prev = nullptr;

  for (ChunkOutcome& part : parts) {
    // Seam screen: this chunk's first screened record vs the previous
    // chunk's last. Within-chunk screening already matched the sequential
    // pass (the screen is a 1-step chain over *screened* records), so the
    // seam comparison is the only missing link.
    if (prev != nullptr && part.has_seen) {
      const Connection& prior = prev->last_seen;
      const Connection& cur = part.first_seen;
      FaultClass seam = FaultClass::kCount;
      std::string reason;
      if (options.check_duplicates && cur == prior) {
        seam = FaultClass::kDuplicateRecord;
        reason = "exact duplicate of the previous record";
      } else if (options.check_order && ByCarThenStart{}(cur, prior)) {
        seam = FaultClass::kOutOfOrderRecord;
        reason = "record sorts before its predecessor";
      }
      if (seam != FaultClass::kCount) {
        if (strict) {
          // Sequential parity: every row of this chunk up to and including
          // the seam record was read, and all but the seam record accepted
          // (an earlier in-chunk fault would have preempted this seam).
          report.rows_read += part.rows_at_first_seen;
          report.records_accepted += part.rows_at_first_seen - 1;
          ++report.counters[static_cast<std::size_t>(seam)];
          throw util::CsvError(reason + " at byte offset " +
                               std::to_string(part.first_seen_offset) +
                               " in " + label);
        }
        ++part.report.counters[static_cast<std::size_t>(seam)];
        ++part.report.records_repaired;
        if (seam == FaultClass::kDuplicateRecord) {
          // The seam record is this chunk's first accepted record; the
          // surviving copy lives at the tail of an earlier chunk.
          part.accepted.erase(part.accepted.begin());
          --part.report.records_accepted;
        }
        QuarantineEntry entry{seam, part.first_seen_offset, std::move(reason),
                              part.first_seen_raw};
        auto& q = part.report.quarantine;
        const auto pos = std::lower_bound(
            q.begin(), q.end(), entry.byte_offset,
            [](const QuarantineEntry& e, std::uint64_t off) {
              return e.byte_offset < off;
            });
        q.insert(pos, std::move(entry));
      }
    }

    if (strict && part.has_fault) {
      // Chunks before this one merged fault-free; this chunk's slice stops
      // at its first fault — exactly the sequential pass's state.
      report.merge(std::move(part.report), options.quarantine_cap);
      throw util::CsvError(part.fault_message);
    }

    report.merge(std::move(part.report), options.quarantine_cap);
    apply_meta(dataset, part);
    total_accepted += part.accepted.size();
    if (part.has_seen) prev = &part;
  }

  dataset.reserve(total_accepted);
  for (const ChunkOutcome& part : parts) {
    dataset.add(std::span<const Connection>(part.accepted));
  }
  if (pool != nullptr) {
    dataset.finalize(*pool);
  } else {
    dataset.finalize();
  }
  // The ingest result lives for the whole study, so hand it back trimmed.
  dataset.shrink_to_fit();
  return dataset;
}

/// Resolved chunk count for an input of `bytes` bytes: one chunk when
/// sequential, otherwise enough chunks to load-balance `width` threads
/// without dropping below the minimum granularity.
std::size_t ingest_chunk_count(std::size_t bytes, int width,
                               std::size_t chunk_bytes) {
  if (width <= 1) return 1;
  const std::size_t min_chunk =
      chunk_bytes > 0 ? chunk_bytes : kDefaultIngestChunkBytes;
  const std::size_t by_size = std::max<std::size_t>(1, bytes / min_chunk);
  return std::min(by_size, static_cast<std::size_t>(width) * 4);
}

/// Newline-aligned chunk start offsets: nominal even splits advanced to the
/// next line start, so no line straddles a seam. Depends only on the text
/// and the chunk count, never on which thread parses what.
std::vector<std::size_t> line_chunk_starts(std::string_view text,
                                           std::size_t chunks) {
  std::vector<std::size_t> starts{0};
  for (std::size_t i = 1; i < chunks; ++i) {
    const std::size_t nominal = text.size() * i / chunks;
    const auto nl = text.find('\n', nominal);
    if (nl == std::string_view::npos) break;
    const std::size_t start = nl + 1;
    if (start >= text.size()) break;
    if (start > starts.back()) starts.push_back(start);
  }
  return starts;
}

void write_csv_stream(const Dataset& dataset, std::ostream& out) {
  out << "#fleet_size=" << dataset.fleet_size()
      << ",study_days=" << dataset.study_days() << "\n";
  out << "car,cell,start_s,duration_s\n";
  for (const Connection& c : dataset.all()) {
    out << c.car.value << ',' << c.cell.value << ',' << c.start << ','
        << c.duration_s << '\n';
  }
}

}  // namespace

void write_csv(const Dataset& dataset, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw util::CsvError("cannot open for writing: " + path);
  write_csv_stream(dataset, out);
  out.flush();
  if (!out) throw util::CsvError("write failed: " + path);
}

std::string write_csv_text(const Dataset& dataset) {
  std::ostringstream out;
  write_csv_stream(dataset, out);
  return std::move(out).str();
}

Dataset read_csv_text(std::string_view text, const IngestOptions& options,
                      IngestReport& report, const std::string& label) {
  report = IngestReport{};
  report.mode = options.mode;
  report.bytes_consumed = text.size();

  const int width = exec::ThreadPool::resolve_threads(options.threads);
  const auto starts = line_chunk_starts(
      text, ingest_chunk_count(text.size(), width, options.chunk_bytes));
  std::vector<ChunkOutcome> parts(starts.size());

  exec::ThreadPool pool(width);
  pool.parallel_for(starts.size(), [&](std::size_t c) {
    const std::size_t begin = starts[c];
    const std::size_t end = c + 1 < starts.size() ? starts[c + 1] : text.size();
    ChunkOutcome& out = parts[c];
    out.accepted.reserve((end - begin) / 16);  // >= lines in the chunk
    CsvIngester ingester(options, out, label, /*first_chunk=*/c == 0);
    std::size_t offset = begin;
    while (offset < end) {
      auto eol = text.find('\n', offset);
      if (eol == std::string_view::npos || eol >= end) eol = end;
      ingester.process_line(text.substr(offset, eol - offset), offset);
      offset = eol + 1;
    }
  });

  return merge_outcomes(parts, options, report, label,
                        width > 1 ? &pool : nullptr);
}

Dataset read_csv(const std::string& path, const IngestOptions& options,
                 IngestReport& report) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw util::CsvError("cannot open for reading: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) throw util::CsvError("read failed: " + path);
  const std::string text = std::move(buffer).str();
  return read_csv_text(text, options, report, path);
}

Dataset read_csv(const std::string& path) {
  IngestReport report;
  return read_csv(path, legacy_options(), report);
}

}  // namespace ccms::cdr
