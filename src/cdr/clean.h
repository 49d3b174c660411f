// CDR cleaning, mirroring §3's pre-processing:
//
//  "We pre-process the logs to remove erroneous records, such as the ones
//   where connections appear to have lasted exactly 1 hour. These are
//   presumably caused by an automatic periodic reporting feature of the
//   network, where disconnections at the radio level were not recorded
//   correctly. Then, during the data analysis, we also truncate long
//   connections to a single cell to 600 seconds, to mitigate some modems
//   tendency to improperly disconnect."
//
// Cleaning (artifact removal) happens once, up front; truncation is an
// *analysis-time* variant — Figs 3 and 9 report both the full and the
// truncated distribution — so it is exposed both as a whole-dataset
// transform and as a per-duration helper analyses can apply on the fly.
#pragma once

#include <cstdint>

#include "cdr/dataset.h"

namespace ccms::cdr {

/// Options for artifact removal.
struct CleanOptions {
  /// Records whose duration is exactly this value are dropped (the paper's
  /// "lasted exactly 1 hour" reporting artifact). Set <= 0 to disable.
  std::int32_t artifact_duration_s = 3600;
  /// Records with non-positive duration are always dropped.
  /// Records whose duration exceeds this hard ceiling are dropped as
  /// corrupt (well beyond any plausible radio session). Set <= 0 to disable.
  std::int32_t max_plausible_duration_s = 48 * 3600;
};

/// Result of cleaning: the surviving dataset plus removal accounting.
struct CleanReport {
  std::size_t input_records = 0;
  std::size_t hour_artifacts_removed = 0;
  std::size_t nonpositive_removed = 0;
  std::size_t implausible_removed = 0;
  [[nodiscard]] std::size_t total_removed() const {
    return hour_artifacts_removed + nonpositive_removed + implausible_removed;
  }

  friend bool operator==(const CleanReport&, const CleanReport&) = default;
};

/// The §3 screen for one record, shared by clean() and the batch study's
/// fold: counts `c` into `report` (input_records, and its removal reason if
/// any) and returns true if the record survives.
[[nodiscard]] inline bool survives_clean(const Connection& c,
                                         const CleanOptions& options,
                                         CleanReport& report) {
  ++report.input_records;
  if (c.duration_s <= 0) {
    ++report.nonpositive_removed;
    return false;
  }
  if (options.artifact_duration_s > 0 &&
      c.duration_s == options.artifact_duration_s) {
    ++report.hour_artifacts_removed;
    return false;
  }
  if (options.max_plausible_duration_s > 0 &&
      c.duration_s > options.max_plausible_duration_s) {
    ++report.implausible_removed;
    return false;
  }
  return true;
}

/// Returns a cleaned copy of `input` (finalized) and fills `report`.
[[nodiscard]] Dataset clean(const Dataset& input, const CleanOptions& options,
                            CleanReport& report);

/// The paper's truncation threshold for per-cell connections.
inline constexpr std::int32_t kTruncationSeconds = 600;

/// Duration after truncation at `cap` (the Fig 3/9 "truncated" variant).
[[nodiscard]] constexpr std::int32_t truncated_duration(
    std::int32_t duration_s, std::int32_t cap = kTruncationSeconds) {
  return duration_s > cap ? cap : duration_s;
}

/// Returns a copy of `input` with every duration truncated at `cap`.
[[nodiscard]] Dataset truncate_durations(const Dataset& input,
                                         std::int32_t cap = kTruncationSeconds);

}  // namespace ccms::cdr
