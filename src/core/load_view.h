// The analyses' cell-load type, defined with its cells x 672 layout in
// net/load.h. The busy-hour analyses take any such grid: the simulator's
// background, sim::measured_load, estimate_load or an operator's telemetry.
#pragma once

#include "net/load.h"

namespace ccms::core {

using net::CellLoad;
using net::kBusyPrbThreshold;

}  // namespace ccms::core
