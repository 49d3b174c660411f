#include "cdr/columnar.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>

#include "util/binio.h"
#include "util/csv.h"
#include "util/file_io.h"

#ifdef __unix__
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#define CCMS_HAVE_MMAP 1
#endif

namespace ccms::cdr {

namespace {

using binio::get_uvarint;
using binio::put_uvarint;
using binio::unzigzag64;
using binio::zigzag64;

constexpr char kMagic2[8] = {'C', 'C', 'D', 'R', '2', '\0', '\0', '\0'};

struct ColumnarHeader {
  char magic[8];
  std::uint64_t record_count;
  std::uint32_t fleet_size;
  std::int32_t study_days;
  std::uint32_t block_count;
  std::uint32_t cell_universe;
  std::uint64_t index_offset;
};
static_assert(sizeof(ColumnarHeader) == 40);

// CRC32 — the same framing the checkpoint format uses, so a flipped bit in
// a block payload is detected exactly like one in a checkpoint section.
std::uint32_t crc32(const void* data, std::size_t len) {
  return binio::crc32({static_cast<const std::uint8_t*>(data), len});
}

}  // namespace

void ColumnBlock::clear() {
  car.clear();
  cell.clear();
  start.clear();
  duration.clear();
}

// --- Writer ----------------------------------------------------------------

ColumnarWriter::ColumnarWriter(std::ostream& out, std::uint32_t fleet_size,
                               int study_days, std::size_t block_records)
    : out_(out),
      fleet_size_(fleet_size),
      study_days_(study_days),
      block_records_(std::max<std::size_t>(1, block_records)) {
  // Placeholder header; finish() patches it with the real counts.
  ColumnarHeader header{};
  std::memcpy(header.magic, kMagic2, sizeof kMagic2);
  out_.write(reinterpret_cast<const char*>(&header), sizeof header);
  offset_ = sizeof header;
  pending_.reserve(block_records_);
}

void ColumnarWriter::add(const Connection& c) {
  if (has_last_ && ByCarThenStart{}(c, last_)) {
    throw util::CsvError(
        "ColumnarWriter::add out of order: records must arrive sorted by "
        "(car, start, cell, duration)");
  }
  // Car-aligned cut: flush only when the incoming record starts a new car
  // and the buffer has reached the target, so one car never straddles two
  // blocks.
  if (pending_.size() >= block_records_ && has_last_ &&
      c.car.value != last_.car.value) {
    flush_block();
  }
  pending_.push_back(c);
  last_ = c;
  has_last_ = true;
  ++records_;
  if (c.cell.value >= cell_universe_) cell_universe_ = c.cell.value + 1;
}

void ColumnarWriter::flush_block() {
  if (pending_.empty()) return;
  ColumnarBlockDesc desc{};
  desc.offset = offset_;
  desc.records = static_cast<std::uint32_t>(pending_.size());
  desc.first_car = pending_.front().car.value;
  desc.last_car = pending_.back().car.value;
  desc.min_start = pending_.front().start;
  desc.max_start = pending_.front().start;
  for (const Connection& c : pending_) {
    desc.min_start = std::min(desc.min_start, c.start);
    desc.max_start = std::max(desc.max_start, c.start);
  }

  scratch_.clear();
  std::size_t col_end[4];
  // Car column: delta varint (ascending, deltas >= 0).
  std::uint32_t prev_car = 0;
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    const std::uint32_t v = pending_[i].car.value;
    put_uvarint(scratch_, i == 0 ? v : v - prev_car);
    prev_car = v;
  }
  col_end[0] = scratch_.size();
  // Cell column: plain varint.
  for (const Connection& c : pending_) put_uvarint(scratch_, c.cell.value);
  col_end[1] = scratch_.size();
  // Start column: zigzag delta varint (ascending within a car; the delta at
  // a car boundary may be negative).
  std::int64_t prev_start = 0;
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    const std::int64_t v = pending_[i].start;
    put_uvarint(scratch_, zigzag64(i == 0 ? v : v - prev_start));
    prev_start = v;
  }
  col_end[2] = scratch_.size();
  // Duration column: zigzag varint (raw datasets may carry negatives).
  for (const Connection& c : pending_) {
    put_uvarint(scratch_, zigzag64(c.duration_s));
  }
  col_end[3] = scratch_.size();

  desc.col_bytes[0] = static_cast<std::uint32_t>(col_end[0]);
  for (int k = 1; k < 4; ++k) {
    desc.col_bytes[k] = static_cast<std::uint32_t>(col_end[k] - col_end[k - 1]);
  }
  desc.payload_bytes = static_cast<std::uint32_t>(scratch_.size());
  desc.crc32 = crc32(scratch_.data(), scratch_.size());

  out_.write(scratch_.data(), static_cast<std::streamsize>(scratch_.size()));
  offset_ += scratch_.size();
  index_.push_back(desc);
  pending_.clear();
}

std::uint64_t ColumnarWriter::finish() {
  if (finished_) throw util::CsvError("ColumnarWriter::finish called twice");
  finished_ = true;
  flush_block();

  const std::uint64_t index_offset = offset_;
  if (!index_.empty()) {
    out_.write(reinterpret_cast<const char*>(index_.data()),
               static_cast<std::streamsize>(index_.size() *
                                            sizeof(ColumnarBlockDesc)));
  }
  const std::uint32_t index_crc =
      crc32(index_.data(), index_.size() * sizeof(ColumnarBlockDesc));
  out_.write(reinterpret_cast<const char*>(&index_crc), sizeof index_crc);

  ColumnarHeader header{};
  std::memcpy(header.magic, kMagic2, sizeof kMagic2);
  header.record_count = records_;
  header.fleet_size = fleet_size_;
  header.study_days = study_days_;
  header.block_count = static_cast<std::uint32_t>(index_.size());
  header.cell_universe = cell_universe_;
  header.index_offset = index_offset;
  out_.seekp(0);
  out_.write(reinterpret_cast<const char*>(&header), sizeof header);
  out_.seekp(0, std::ios::end);
  if (!out_) throw util::CsvError("CCDR2 write failed");
  return records_;
}

void write_columnar(const Dataset& dataset, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw util::CsvError("cannot open for writing: " + path);
  ColumnarWriter writer(out, dataset.fleet_size(), dataset.study_days());
  for (const Connection& c : dataset.all()) writer.add(c);
  writer.finish();
  if (!out) throw util::CsvError("write failed: " + path);
}

std::string write_columnar_buffer(const Dataset& dataset) {
  std::stringstream out(std::ios::in | std::ios::out | std::ios::binary);
  ColumnarWriter writer(out, dataset.fleet_size(), dataset.study_days());
  for (const Connection& c : dataset.all()) writer.add(c);
  writer.finish();
  return std::move(out).str();
}

// --- Reader ----------------------------------------------------------------

ColumnarFile ColumnarFile::parse(std::span<const std::uint8_t> bytes,
                                 const IngestOptions& options,
                                 IngestReport& report,
                                 const std::string& label) {
  ColumnarFile file;
  file.bytes_ = bytes;
  RecordScreen book(options, report, label);  // books header/index faults

  if (bytes.size() < sizeof(ColumnarHeader)) {
    book.fault(FaultClass::kBadHeader, 0,
               "file shorter than the CCDR2 header (" +
                   std::to_string(bytes.size()) + " bytes)");
    return file;
  }
  ColumnarHeader header{};
  std::memcpy(&header, bytes.data(), sizeof header);
  if (std::memcmp(header.magic, kMagic2, sizeof kMagic2) != 0) {
    book.fault(FaultClass::kBadHeader, 0, "bad CCDR2 magic");
    return file;
  }
  file.fleet_size_ = header.fleet_size;
  file.study_days_ = header.study_days;
  file.cell_universe_ = header.cell_universe;

  // Index bounds are validated before any allocation sized from the header:
  // a hostile block_count cannot force a huge reserve.
  const std::uint64_t index_bytes =
      std::uint64_t{header.block_count} * sizeof(ColumnarBlockDesc);
  if (header.index_offset < sizeof(ColumnarHeader) ||
      header.index_offset > bytes.size() ||
      index_bytes > bytes.size() - header.index_offset) {
    book.fault(FaultClass::kTruncatedPayload,
               offsetof(ColumnarHeader, index_offset),
               "index (" + std::to_string(header.block_count) +
                   " blocks) does not fit the file");
    return file;
  }
  if (bytes.size() - header.index_offset - index_bytes < sizeof(std::uint32_t)) {
    book.fault(FaultClass::kTruncatedPayload,
               header.index_offset + index_bytes, "index checksum missing");
    return file;
  }
  std::uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, bytes.data() + header.index_offset + index_bytes,
              sizeof stored_crc);
  if (crc32(bytes.data() + header.index_offset, index_bytes) != stored_crc) {
    book.fault(FaultClass::kChecksumMismatch, header.index_offset,
               "block index CRC32 does not match its bytes");
    return file;
  }

  file.index_.resize(header.block_count);
  if (index_bytes > 0) {
    std::memcpy(file.index_.data(), bytes.data() + header.index_offset,
                index_bytes);
  }
  // Per-block bounds screen: a descriptor pointing outside the payload
  // region is structural damage; lenient drops that block and keeps going.
  // Every column holds at least one varint byte per record, so a block
  // cannot claim more records than its smallest column has bytes: the
  // decode reserve stays bounded by the file size.
  std::vector<ColumnarBlockDesc> valid;
  valid.reserve(file.index_.size());
  for (std::size_t b = 0; b < file.index_.size(); ++b) {
    const ColumnarBlockDesc& d = file.index_[b];
    const auto* col = d.col_bytes;
    const bool in_bounds =
        d.offset >= sizeof(ColumnarHeader) && d.offset <= header.index_offset &&
        d.payload_bytes <= header.index_offset - d.offset &&
        std::uint64_t{col[0]} + col[1] + col[2] + col[3] == d.payload_bytes &&
        d.records <= std::min({col[0], col[1], col[2], col[3]});
    if (!in_bounds) {
      book.fault(FaultClass::kTruncatedPayload, d.offset,
                 "block " + std::to_string(b) +
                     " descriptor outside the payload region");
      continue;
    }
    valid.push_back(d);
  }
  file.index_ = std::move(valid);
  for (const ColumnarBlockDesc& d : file.index_) {
    file.record_count_ += d.records;
  }
  if (file.record_count_ != header.record_count &&
      file.index_.size() == header.block_count) {
    book.fault(FaultClass::kTruncatedPayload,
               offsetof(ColumnarHeader, record_count),
               "header claims " + std::to_string(header.record_count) +
                   " records, index holds " +
                   std::to_string(file.record_count_));
  }
  return file;
}

ColumnarFile ColumnarFile::from_buffer(std::string_view bytes,
                                       const IngestOptions& options,
                                       IngestReport& report,
                                       const std::string& label) {
  report = IngestReport{};
  report.mode = options.mode;
  report.bytes_consumed = bytes.size();
  return parse(
      std::span<const std::uint8_t>(
          reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size()),
      options, report, label);
}

ColumnarFile ColumnarFile::open(const std::string& path,
                                const IngestOptions& options,
                                IngestReport& report) {
  report = IngestReport{};
  report.mode = options.mode;
#ifdef CCMS_HAVE_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) throw util::CsvError("cannot open for reading: " + path);
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    throw util::CsvError("cannot stat: " + path);
  }
  const auto len = static_cast<std::size_t>(st.st_size);
  void* map = nullptr;
  if (len > 0) {
    map = ::mmap(nullptr, len, PROT_READ, MAP_PRIVATE, fd, 0);
    if (map == MAP_FAILED) {
      ::close(fd);
      throw util::CsvError("mmap failed: " + path);
    }
  }
  report.bytes_consumed = len;
  ColumnarFile file = parse(
      std::span<const std::uint8_t>(static_cast<const std::uint8_t*>(map),
                                    len),
      options, report, path);
  file.map_ = map;
  file.map_len_ = len;
  file.fd_ = fd;
  return file;
#else
  // Portable fallback: slurp the file and keep the buffer alive in the
  // mapping slot.
  std::optional<std::string> bytes = util::read_file(path);
  if (!bytes) throw util::CsvError("cannot open for reading: " + path);
  auto* owned = new std::string(std::move(*bytes));
  report.bytes_consumed = owned->size();
  ColumnarFile file = parse(
      std::span<const std::uint8_t>(
          reinterpret_cast<const std::uint8_t*>(owned->data()), owned->size()),
      options, report, path);
  file.map_ = owned;
  file.map_len_ = 0;
  file.fd_ = -2;  // marks owned-string fallback
  return file;
#endif
}

ColumnarFile::ColumnarFile(ColumnarFile&& other) noexcept {
  *this = std::move(other);
}

ColumnarFile& ColumnarFile::operator=(ColumnarFile&& other) noexcept {
  if (this == &other) return *this;
  this->~ColumnarFile();
  bytes_ = other.bytes_;
  index_ = std::move(other.index_);
  record_count_ = other.record_count_;
  fleet_size_ = other.fleet_size_;
  study_days_ = other.study_days_;
  cell_universe_ = other.cell_universe_;
  map_ = other.map_;
  map_len_ = other.map_len_;
  fd_ = other.fd_;
  other.map_ = nullptr;
  other.map_len_ = 0;
  other.fd_ = -1;
  other.bytes_ = {};
  other.index_.clear();
  return *this;
}

ColumnarFile::~ColumnarFile() {
#ifdef CCMS_HAVE_MMAP
  if (map_ != nullptr && fd_ >= 0) {
    ::munmap(map_, map_len_);
  }
  if (fd_ >= 0) ::close(fd_);
#endif
  if (fd_ == -2) delete static_cast<std::string*>(map_);
  map_ = nullptr;
  fd_ = -1;
}

void ColumnarFile::advise_sequential() const {
#ifdef CCMS_HAVE_MMAP
  if (map_ != nullptr && fd_ >= 0) {
    ::madvise(map_, map_len_, MADV_SEQUENTIAL);
  }
#endif
}

void ColumnarFile::drop_consumed(std::size_t first_block,
                                 std::size_t last_block) const {
#ifdef CCMS_HAVE_MMAP
  if (map_ == nullptr || fd_ < 0 || first_block >= last_block ||
      last_block > index_.size()) {
    return;
  }
  const long page = ::sysconf(_SC_PAGESIZE);
  if (page <= 0) return;
  const auto pg = static_cast<std::uint64_t>(page);
  const std::uint64_t lo = (index_[first_block].offset / pg) * pg;
  const std::uint64_t hi = index_[last_block - 1].offset +
                           index_[last_block - 1].payload_bytes;
  if (hi <= lo) return;
  ::madvise(static_cast<char*>(map_) + lo, hi - lo, MADV_DONTNEED);
#else
  (void)first_block;
  (void)last_block;
#endif
}

ColumnarFile::DecodeStatus ColumnarFile::decode_block(std::size_t b,
                                                      ColumnBlock& out) const {
  out.clear();
  const ColumnarBlockDesc& d = index_[b];
  const std::uint8_t* base = bytes_.data() + d.offset;
  if (crc32(base, d.payload_bytes) != d.crc32) {
    return DecodeStatus::kChecksumMismatch;
  }
  const std::size_t n = d.records;
  out.car.reserve(n);
  out.cell.reserve(n);
  out.start.reserve(n);
  out.duration.reserve(n);

  const std::uint8_t* p = base;
  const std::uint8_t* end = base + d.col_bytes[0];
  std::uint64_t v = 0;
  std::uint64_t car = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!get_uvarint(p, end, v)) return DecodeStatus::kMalformed;
    car = i == 0 ? v : car + v;
    if (car > std::numeric_limits<std::uint32_t>::max()) {
      return DecodeStatus::kMalformed;
    }
    out.car.push_back(static_cast<std::uint32_t>(car));
  }
  if (p != end) return DecodeStatus::kMalformed;

  end = p + d.col_bytes[1];
  for (std::size_t i = 0; i < n; ++i) {
    if (!get_uvarint(p, end, v) ||
        v > std::numeric_limits<std::uint32_t>::max()) {
      return DecodeStatus::kMalformed;
    }
    out.cell.push_back(static_cast<std::uint32_t>(v));
  }
  if (p != end) return DecodeStatus::kMalformed;

  end = p + d.col_bytes[2];
  std::int64_t start = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!get_uvarint(p, end, v)) return DecodeStatus::kMalformed;
    const std::int64_t delta = unzigzag64(v);
    start = i == 0 ? delta : start + delta;
    out.start.push_back(start);
  }
  if (p != end) return DecodeStatus::kMalformed;

  end = p + d.col_bytes[3];
  for (std::size_t i = 0; i < n; ++i) {
    if (!get_uvarint(p, end, v)) return DecodeStatus::kMalformed;
    const std::int64_t dur = unzigzag64(v);
    if (dur < std::numeric_limits<std::int32_t>::min() ||
        dur > std::numeric_limits<std::int32_t>::max()) {
      return DecodeStatus::kMalformed;
    }
    out.duration.push_back(static_cast<std::int32_t>(dur));
  }
  if (p != end) return DecodeStatus::kMalformed;
  return DecodeStatus::kOk;
}

// --- Block entry -----------------------------------------------------------

bool enter_block(const ColumnarFile& file, std::size_t b, ColumnBlock& out,
                 RecordScreen& screen) {
  screen.reset();
  const ColumnarFile::DecodeStatus status = file.decode_block(b, out);
  if (status == ColumnarFile::DecodeStatus::kOk) return true;
  const ColumnarBlockDesc& desc = file.blocks()[b];
  const bool crc = status == ColumnarFile::DecodeStatus::kChecksumMismatch;
  screen.fault(
      crc ? FaultClass::kChecksumMismatch : FaultClass::kTruncatedPayload,
      desc.offset,
      "block " + std::to_string(b) +
          (crc ? " payload CRC32 does not match"
               : " column stream is malformed"));
  screen.report().rows_read += desc.records;
  screen.report().records_dropped += desc.records;
  return false;
}

// --- Dataset materializer --------------------------------------------------

Dataset materialize_columnar(const ColumnarFile& file,
                             const IngestOptions& options,
                             IngestReport& report, const std::string& label) {
  Dataset dataset;
  dataset.set_fleet_size(file.fleet_size());
  dataset.set_study_days(file.study_days());
  dataset.reserve(static_cast<std::size_t>(file.record_count()));

  RecordScreen screen(options, report, label);
  ColumnBlock block;
  for (std::size_t b = 0; b < file.blocks().size(); ++b) {
    if (!enter_block(file, b, block, screen)) continue;
    const std::uint64_t offset = file.blocks()[b].offset;
    for (std::size_t i = 0; i < block.size(); ++i) {
      const Connection c{CarId{block.car[i]}, CellId{block.cell[i]},
                         block.start[i], block.duration[i]};
      if (screen.screen(c, offset)) dataset.add(c);
    }
  }
  dataset.finalize();
  dataset.shrink_to_fit();
  return dataset;
}

Dataset read_columnar_buffer(std::string_view bytes,
                             const IngestOptions& options,
                             IngestReport& report, const std::string& label) {
  ColumnarFile file = ColumnarFile::from_buffer(bytes, options, report, label);
  return materialize_columnar(file, options, report, label);
}

Dataset read_columnar(const std::string& path, const IngestOptions& options,
                      IngestReport& report) {
  ColumnarFile file = ColumnarFile::open(path, options, report);
  file.advise_sequential();
  return materialize_columnar(file, options, report, path);
}

}  // namespace ccms::cdr
