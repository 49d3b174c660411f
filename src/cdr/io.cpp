#include "cdr/io.h"

#include <algorithm>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <utility>

#include "exec/thread_pool.h"
#include "util/csv.h"
#include "util/file_io.h"

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
  /// This chunk's slice of the accounting (byte offsets are absolute), cut
  /// where its first record reaches the sequence rule: `lead` holds what
  /// came before, `report` that record on. The record's sequence check
  /// needs the previous chunk's last record, so the merge books it between
  /// the two halves, where the sequential pass booked it.
  IngestReport lead;
  IngestReport report;

  bool has_seen = false;  ///< a record reached the sequence rule
  Connection first_seen{};
  std::uint64_t first_seen_offset = 0;
  std::string first_seen_raw;
  Connection last_seen{};

  /// CSV metadata rows seen in this chunk (last value wins, as in the
  /// sequential pass).
  std::optional<std::uint32_t> meta_fleet_size;
  std::optional<int> meta_study_days;

  /// Strict mode: the chunk's first fault, caught instead of propagated so
  /// the merge can rethrow the fault with the *lowest byte offset* — the
  /// same fault a sequential strict pass would hit first.
  bool has_fault = false;
  std::string fault_message;
};

/// Line-oriented CSV chunk parser; the caller feeds raw lines (without
/// '\n') plus their absolute byte offsets. Every fault is booked through
/// the §7 RecordScreen, so a strict-mode fault throws util::CsvError out of
/// process_line.
class CsvIngester {
 public:
  CsvIngester(const IngestOptions& options, ChunkOutcome& out,
              const std::string& label, bool first_chunk)
      : out_(out), screen_(options, out.report, label),
        first_line_(first_chunk) {}

  void process_line(std::string_view line, std::uint64_t offset) {
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
      drop(FaultClass::kBadField, offset, e.what(), line);
      return;
    }
    if (fields.empty() || fields[0].empty()) return;
    if (fields[0] == "car") return;  // header row

    ++out_.report.rows_read;
    if (fields.size() < 4) {
      drop(FaultClass::kTruncatedLine, offset,
           "row has " + std::to_string(fields.size()) + " fields, need 4",
           line);
      return;
    }

    std::int64_t car = 0, cell = 0, start = 0, duration = 0;
    try {
      car = util::parse_i64(fields[0]);
      cell = util::parse_i64(fields[1]);
      start = util::parse_i64(fields[2]);
      duration = util::parse_i64(fields[3]);
    } catch (const util::CsvError& e) {
      drop(FaultClass::kBadField, offset, e.what(), line);
      return;
    }
    constexpr std::int64_t kIdMax = std::numeric_limits<std::uint32_t>::max();
    if (car < 0 || car > kIdMax || cell < 0 || cell > kIdMax) {
      drop(FaultClass::kBadField, offset, "car/cell id outside uint32 range",
           line);
      return;
    }
    if (!screen_.values(start, static_cast<std::uint32_t>(cell), duration,
                        offset, line)) {
      return;
    }
    const Connection c{CarId{static_cast<std::uint32_t>(car)},
                       CellId{static_cast<std::uint32_t>(cell)}, start,
                       static_cast<std::int32_t>(duration)};
    if (!out_.has_seen) {
      out_.has_seen = true;
      out_.first_seen = c;
      out_.first_seen_offset = offset;
      out_.first_seen_raw = std::string(line);
      out_.lead = std::exchange(out_.report, IngestReport{});
    }
    out_.last_seen = c;
    if (!screen_.sequence(c, offset, line)) return;
    out_.accepted.push_back(c);
    ++out_.report.records_accepted;
  }

 private:
  /// A row that never became a record: counted dropped, then booked.
  void drop(FaultClass fault, std::uint64_t offset, std::string reason,
            std::string_view line) {
    ++out_.report.records_dropped;
    screen_.fault(fault, offset, std::move(reason), line);
  }

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
  RecordScreen screen_;
  bool first_line_;
};

void apply_meta(Dataset& dataset, const ChunkOutcome& part) {
  if (part.meta_fleet_size) dataset.set_fleet_size(*part.meta_fleet_size);
  if (part.meta_study_days) dataset.set_study_days(*part.meta_study_days);
}

/// Stitches chunk outcomes back into one Dataset + IngestReport, in chunk
/// (= byte) order. `report` arrives pre-seeded with mode/bytes_consumed.
/// Books each chunk's first sequence check against the previous chunk's
/// last record, merges the chunk reports in offset order
/// (IngestReport::merge re-applies the global quarantine cap), and — in
/// strict mode — throws the earliest fault with a report state identical to
/// where the sequential pass would have stopped.
Dataset merge_outcomes(std::vector<ChunkOutcome>& parts,
                       const IngestOptions& options, IngestReport& report,
                       const std::string& label, exec::ThreadPool* pool) {
  Dataset dataset;
  std::size_t total_accepted = 0;
  const ChunkOutcome* prev = nullptr;

  for (ChunkOutcome& part : parts) {
    report.merge(std::move(part.lead), options.quarantine_cap);
    // Seam: the sequential pass screened this chunk's first record right
    // after the previous chunk's last, so replay that pair through the
    // screen (the first of them has no predecessor and cannot fault). In
    // strict mode a seam fault throws here, after the lead: every row of
    // this chunk up to and including the seam record was read.
    if (prev != nullptr && part.has_seen) {
      RecordScreen seam(options, report, label);
      (void)seam.sequence(prev->last_seen, 0);
      if (!seam.sequence(part.first_seen, part.first_seen_offset,
                         part.first_seen_raw)) {
        // A duplicate: its surviving copy ends an earlier chunk.
        part.accepted.erase(part.accepted.begin());
        --part.report.records_accepted;
      }
    }
    // Chunks before this one merged fault-free; this chunk's slice stops
    // at its first fault — exactly the sequential pass's state.
    report.merge(std::move(part.report), options.quarantine_cap);
    if (part.has_fault) throw util::CsvError(part.fault_message);

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
    try {
      while (offset < end) {
        auto eol = text.find('\n', offset);
        if (eol == std::string_view::npos || eol >= end) eol = end;
        ingester.process_line(text.substr(offset, eol - offset), offset);
        offset = eol + 1;
      }
    } catch (const util::CsvError& e) {
      // Strict mode: the chunk stops at its first fault; the merge
      // rethrows the earliest one across chunks.
      out.has_fault = true;
      out.fault_message = e.what();
    }
  });

  return merge_outcomes(parts, options, report, label,
                        width > 1 ? &pool : nullptr);
}

Dataset read_csv(const std::string& path, const IngestOptions& options,
                 IngestReport& report) {
  const std::optional<std::string> text = util::read_file(path);
  if (!text) throw util::CsvError("cannot open for reading: " + path);
  return read_csv_text(*text, options, report, path);
}

Dataset read_csv(const std::string& path) {
  IngestReport report;
  return read_csv(path, legacy_options(), report);
}

}  // namespace ccms::cdr
