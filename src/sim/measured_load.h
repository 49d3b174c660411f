// Measured cell load: background + the cars' own radio traffic.
//
// The paper's U_PRB telemetry is what the *network* measures, which includes
// the connected cars' transfers. The background model alone misses that
// feedback; this module closes the loop by adding a per-connected-car
// utilisation contribution to each (cell, 15-minute weekly bin), averaged
// over the study:
//
//   u(cell, bin) = clamp(background(cell, bin)
//                        + car_share * avg_concurrent_cars(cell, bin), 0, 1)
//
// With the default share (a car's telemetry/streaming occupies a few percent
// of a cell), the feedback is small — as the paper expects today — but the
// high-concurrency funnel cells of Fig 10/11 visibly ride above their
// background, and the term grows with fleet scale, which is the paper's
// warning about FOTA-era demand.
#pragma once

#include "cdr/dataset.h"
#include "core/concurrency.h"
#include "core/load_view.h"
#include "net/load.h"

namespace ccms::sim {

/// Per-connected-car PRB share while it is on a cell (telemetry + the odd
/// stream, averaged).
inline constexpr double kDefaultCarPrbShare = 0.02;

/// Builds the measured load grid: background plus the fleet's contribution
/// derived from the (cleaned) dataset's concurrency.
[[nodiscard]] core::CellLoad measured_load(const net::CellLoad& background,
                                           const cdr::Dataset& cleaned,
                                           double car_prb_share = kDefaultCarPrbShare);

}  // namespace ccms::sim
