#include "net/map.h"

#include <gtest/gtest.h>

#include "test_helpers.h"

namespace ccms::net {
namespace {

TEST(MapTest, GeoMapDimensions) {
  const Topology topo = test::small_topology();
  const std::string map = render_geo_map(topo);
  int lines = 0;
  for (const char c : map) lines += c == '\n';
  EXPECT_EQ(lines, topo.config().grid_height);
  EXPECT_EQ(map.size(), static_cast<std::size_t>(
                            (topo.config().grid_width + 1) *
                            topo.config().grid_height));
}

TEST(MapTest, GeoMapShowsAllClasses) {
  const Topology topo = test::small_topology();
  const std::string map = render_geo_map(topo);
  EXPECT_NE(map.find('D'), std::string::npos);
  EXPECT_NE(map.find('s'), std::string::npos);
  EXPECT_NE(map.find('+'), std::string::npos);
  EXPECT_NE(map.find('.'), std::string::npos);
}

TEST(MapTest, GeoMapCentreIsDowntown) {
  const Topology topo = test::small_topology();
  const std::string map = render_geo_map(topo);
  // Row for iy=4 (printed north-first, so line index = h-1-iy = 3),
  // column ix=4.
  const int w = topo.config().grid_width + 1;
  EXPECT_EQ(map[static_cast<std::size_t>(3 * w + 4)], 'D');
  // Corner is rural.
  EXPECT_EQ(map[static_cast<std::size_t>(7 * w + 0)], '.');
}

TEST(MapTest, LoadMapShadesDowntownDarker) {
  const Topology topo = test::small_topology();
  util::Rng rng(3);
  const CellLoad load = background_load(topo, LoadModelConfig{}, rng);
  const std::string map = render_load_map(topo, load);

  static const std::string shades = " .:-=+*#%@";
  const int w = topo.config().grid_width + 1;
  const auto level = [&](int ix, int iy) {
    const char c =
        map[static_cast<std::size_t>((topo.config().grid_height - 1 - iy) * w +
                                     ix)];
    return static_cast<int>(shades.find(c));
  };
  // Centre (downtown) strictly darker than the rural corner.
  EXPECT_GT(level(4, 4), level(0, 0));
}

}  // namespace
}  // namespace ccms::net
