// Concurrency clustering of busy radios — Fig 11 (§4.4).
//
// "We picked all cells such that the average PRB utilization during one week
// is larger than or equal to 70%. ... For each of these radios, we create a
// 96-sized vector that contains the number of cars whose aggregated sessions
// straddle a 15-minute time bin of the day. Within these vectors, we applied
// the classic k-means algorithm which returned two clusters."
//
// The paper's outcome: both clusters share the diurnal shape; cluster 2 has
// ~5x the concurrent cars of cluster 1, while cluster 1 contains ~4x more
// cells.
#pragma once

#include <vector>

#include "core/concurrency.h"
#include "core/load_view.h"
#include "stats/kmeans.h"

namespace ccms::core {

/// One resulting cluster.
struct ConcurrencyCluster {
  std::vector<double> centroid;   ///< 96-bin average concurrency curve
  std::size_t cell_count = 0;
  double mean_cars = 0;           ///< average of the centroid
  double peak_cars = 0;           ///< peak of the centroid

  friend bool operator==(const ConcurrencyCluster&,
                         const ConcurrencyCluster&) = default;
};

/// Output of the Fig 11 analysis.
struct ConcurrencyClusters {
  /// Cells that passed the busy filter, in the order fed to k-means.
  std::vector<CellId> busy_cells;
  /// Cluster assignment per busy cell (index into `clusters`).
  std::vector<int> assignment;
  /// Clusters sorted by mean_cars ascending (cluster 0 = the low-
  /// concurrency majority, matching the paper's "Cluster 1").
  std::vector<ConcurrencyCluster> clusters;
  double load_threshold = 0;

  friend bool operator==(const ConcurrencyClusters&,
                         const ConcurrencyClusters&) = default;
};

/// Runs the clustering. `load_threshold` is the weekly-average U_PRB filter
/// (paper: 0.70), `k` the cluster count (paper: 2).
[[nodiscard]] ConcurrencyClusters cluster_busy_cells(
    const ConcurrencyGrid& concurrency, const CellLoad& load,
    double load_threshold = 0.70, int k = 2, std::uint64_t seed = 1);

}  // namespace ccms::core
