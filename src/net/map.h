// ASCII maps of the synthetic service area — one glyph per base station.
// Used by examples and benches to show the geography behind the numbers
// (where the busy radios sit, where the saturated core is).
#pragma once

#include <string>

#include "net/load.h"
#include "net/topology.h"

namespace ccms::net {

/// Geography-class map: 'D' downtown, 's' suburban, '+' highway corridor,
/// '.' rural.
[[nodiscard]] std::string render_geo_map(const Topology& topology);

/// Load map: each station shaded by the mean weekly utilisation of its
/// cells, ' ' (idle) .. '@' (saturated).
[[nodiscard]] std::string render_load_map(const Topology& topology,
                                          const CellLoad& background);

}  // namespace ccms::net
