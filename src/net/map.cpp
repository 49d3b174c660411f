#include "net/map.h"

namespace ccms::net {

std::string render_geo_map(const Topology& topology) {
  std::string out;
  const int w = topology.config().grid_width;
  const int h = topology.config().grid_height;
  out.reserve(static_cast<std::size_t>((w + 1) * h));
  for (int iy = h - 1; iy >= 0; --iy) {  // north at the top
    for (int ix = 0; ix < w; ++ix) {
      switch (topology.station_class(topology.station_at({ix, iy}))) {
        case GeoClass::kDowntown:
          out.push_back('D');
          break;
        case GeoClass::kSuburban:
          out.push_back('s');
          break;
        case GeoClass::kHighway:
          out.push_back('+');
          break;
        case GeoClass::kRural:
          out.push_back('.');
          break;
      }
    }
    out.push_back('\n');
  }
  return out;
}

std::string render_load_map(const Topology& topology,
                            const CellLoad& background) {
  static constexpr char kShades[] = " .:-=+*#%@";
  std::string out;
  const int w = topology.config().grid_width;
  const int h = topology.config().grid_height;
  for (int iy = h - 1; iy >= 0; --iy) {
    for (int ix = 0; ix < w; ++ix) {
      const StationId station = topology.station_at({ix, iy});
      double sum = 0;
      int n = 0;
      for (const CellId cell : topology.cells().cells_of(station)) {
        sum += background.weekly_mean(cell);
        ++n;
      }
      const double mean = n > 0 ? sum / n : 0;
      int level = static_cast<int>(mean * 10);
      if (level > 9) level = 9;
      if (level < 0) level = 0;
      out.push_back(kShades[level]);
    }
    out.push_back('\n');
  }
  return out;
}

}  // namespace ccms::net
