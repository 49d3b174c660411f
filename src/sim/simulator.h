// Study simulation: fleet + topology + 90 days -> CDR dataset.
//
// This replaces the paper's proprietary input (anonymized CDRs of 1M cars on
// a production network) with a synthetic study of identical schema and
// calibrated statistics; see DESIGN.md for the substitution argument.
#pragma once

#include <vector>

#include "cdr/dataset.h"
#include "fleet/car.h"
#include "fleet/connection_gen.h"
#include "net/load.h"
#include "net/topology.h"
#include "sim/config.h"
#include "util/rng.h"

namespace ccms::sim {

/// Everything a simulated study produces. The raw dataset is *uncleaned*:
/// it still contains the 1-hour artifacts, exactly as the paper's §3 input
/// does; run cdr::clean before analysis.
struct Study {
  SimConfig config;
  net::Topology topology;
  net::CellLoad background;
  std::vector<fleet::CarProfile> fleet;
  cdr::Dataset raw;

  /// Per-day global activity factors actually used (for tests/diagnostics).
  std::vector<double> day_factors;
};

/// Runs the full simulation. Deterministic: equal configs give equal
/// studies, bit for bit.
[[nodiscard]] Study simulate(const SimConfig& config);

/// The simulation's shared world — topology, background load, fleet and
/// the per-day activity factors — with per-car trace generation on demand.
///
/// simulate() materializes the whole fleet's trace before censoring it;
/// at the paper's scale (1M cars, 90 days) that buffer alone is tens of
/// gigabytes. StreamSim builds the same world once and then emits one
/// car's *surviving* records at a time: emit_car(i) appends exactly the
/// records simulate() would have kept for fleet()[i], in the same order
/// (every car draws from its own counter-based RNG stream, so per-car
/// generation is bitwise independent of every other car). simulate() is
/// a thin chunked loop over emit_car, which is the equivalence proof.
///
/// Not movable: the connection generator holds a reference to the owned
/// topology.
class StreamSim {
 public:
  explicit StreamSim(const SimConfig& config);
  StreamSim(const StreamSim&) = delete;
  StreamSim& operator=(const StreamSim&) = delete;

  [[nodiscard]] const SimConfig& config() const { return config_; }
  [[nodiscard]] const net::Topology& topology() const { return topology_; }
  [[nodiscard]] const net::CellLoad& background() const {
    return background_;
  }
  [[nodiscard]] const std::vector<fleet::CarProfile>& fleet() const {
    return fleet_;
  }
  [[nodiscard]] const std::vector<double>& day_factors() const {
    return day_factors_;
  }

  /// Appends car `i`'s censored, loss-filtered records to `out`, sorted by
  /// cdr::ByCarThenStart.
  /// `raw_scratch` is caller-owned generation scratch (cleared here), so
  /// concurrent emit_car calls with distinct scratch/out are safe.
  void emit_car(std::size_t i, std::vector<cdr::Connection>& raw_scratch,
                std::vector<cdr::Connection>& out) const;

  /// Consumes the world into a Study around an externally-built dataset
  /// (simulate()'s tail).
  [[nodiscard]] Study into_study(cdr::Dataset raw) &&;

 private:
  SimConfig config_;
  util::Rng master_;
  net::Topology topology_;
  net::CellLoad background_;
  std::vector<fleet::CarProfile> fleet_;
  std::vector<double> day_factors_;
  std::vector<char> lossy_day_;
  fleet::ConnectionGenerator generator_;
  time::Seconds study_end_ = 0;
};

}  // namespace ccms::sim
