#include "cdr/integrity.h"

#include <iterator>
#include <utility>

#include "util/csv.h"

namespace ccms::cdr {

const char* name(FaultClass fault) {
  switch (fault) {
    case FaultClass::kTruncatedLine:
      return "truncated-line";
    case FaultClass::kBadField:
      return "bad-field";
    case FaultClass::kNegativeDuration:
      return "negative-duration";
    case FaultClass::kOverflowDuration:
      return "overflow-duration";
    case FaultClass::kClockSkew:
      return "clock-skew";
    case FaultClass::kUnknownCell:
      return "unknown-cell";
    case FaultClass::kDuplicateRecord:
      return "duplicate-record";
    case FaultClass::kOutOfOrderRecord:
      return "out-of-order-record";
    case FaultClass::kBadHeader:
      return "bad-header";
    case FaultClass::kTruncatedPayload:
      return "truncated-payload";
    case FaultClass::kHourArtifact:
      return "hour-artifact";
    case FaultClass::kChecksumMismatch:
      return "checksum-mismatch";
    case FaultClass::kCheckpointMismatch:
      return "checkpoint-mismatch";
    case FaultClass::kCount:
      break;
  }
  return "unknown";
}

std::uint64_t IngestReport::total_faults() const {
  std::uint64_t total = 0;
  for (const std::uint64_t c : counters) total += c;
  return total;
}

void IngestReport::record_fault(std::size_t quarantine_cap, FaultClass fault,
                                std::uint64_t byte_offset, std::string reason,
                                std::string raw) {
  ++counters[static_cast<std::size_t>(fault)];
  if (quarantine.size() < quarantine_cap) {
    quarantine.push_back(
        QuarantineEntry{fault, byte_offset, std::move(reason), std::move(raw)});
  } else {
    ++quarantine_overflow;
  }
}

void IngestReport::merge(IngestReport&& later, std::size_t quarantine_cap) {
  rows_read += later.rows_read;
  records_accepted += later.records_accepted;
  records_dropped += later.records_dropped;
  records_repaired += later.records_repaired;
  bom_stripped = bom_stripped || later.bom_stripped;
  for (std::size_t i = 0; i < kFaultClassCount; ++i) {
    counters[i] += later.counters[i];
  }
  quarantine.insert(quarantine.end(),
                    std::make_move_iterator(later.quarantine.begin()),
                    std::make_move_iterator(later.quarantine.end()));
  quarantine_overflow += later.quarantine_overflow;
  cap_quarantine(quarantine_cap);
}

void IngestReport::cap_quarantine(std::size_t quarantine_cap) {
  if (quarantine.size() > quarantine_cap) {
    quarantine_overflow += quarantine.size() - quarantine_cap;
    quarantine.resize(quarantine_cap);
  }
}

void RecordScreen::fault(FaultClass fault, std::uint64_t offset,
                         std::string reason, std::string_view raw) {
  if (options_.mode == ParseMode::kStrict) {
    ++report_.counters[static_cast<std::size_t>(fault)];
    throw util::CsvError(reason + " at byte offset " + std::to_string(offset) +
                         " in " + label_);
  }
  report_.record_fault(options_.quarantine_cap, fault, offset,
                       std::move(reason), std::string(raw));
}

void RecordScreen::drop(FaultClass fault, std::uint32_t car,
                        std::int64_t start, std::uint32_t cell,
                        std::int64_t duration, std::uint64_t offset,
                        std::string_view raw) {
  std::string reason;
  switch (fault) {
    case FaultClass::kBadField:
      reason = "car id " + std::to_string(car) +
               " is reserved: a fleet size cannot count it";
      break;
    case FaultClass::kNegativeDuration:
      reason = "negative duration " + std::to_string(duration);
      break;
    case FaultClass::kOverflowDuration:
      reason = "duration " + std::to_string(duration) + " beyond ceiling";
      break;
    case FaultClass::kClockSkew:
      reason = "start " + std::to_string(start) + " outside [0, " +
               std::to_string(options_.horizon_s) + ")";
      break;
    default:  // kUnknownCell
      reason = "cell " + std::to_string(cell) + " outside universe of " +
               std::to_string(options_.cell_universe);
      break;
  }
  this->fault(fault, offset, std::move(reason), raw);
  ++report_.records_dropped;
}

void RecordScreen::repair(FaultClass fault, std::uint64_t offset,
                          std::string_view raw) {
  this->fault(fault, offset,
              fault == FaultClass::kDuplicateRecord
                  ? "exact duplicate of the previous record"
                  : "record sorts before its predecessor",
              raw);
  ++report_.records_repaired;
}

}  // namespace ccms::cdr
