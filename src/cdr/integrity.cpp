#include "cdr/integrity.h"

#include <iterator>
#include <utility>

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
  if (quarantine.size() > quarantine_cap) {
    quarantine_overflow += quarantine.size() - quarantine_cap;
    quarantine.resize(quarantine_cap);
  }
}

}  // namespace ccms::cdr
