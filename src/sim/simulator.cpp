#include "sim/simulator.h"

#include <algorithm>

#include "exec/thread_pool.h"
#include "fleet/schedule.h"
#include "util/rng.h"

namespace ccms::sim {

SimConfig SimConfig::paper_default() {
  SimConfig config;
  config.fleet.size = 4000;
  config.topology.grid_width = 40;
  config.topology.grid_height = 40;
  return config;
}

SimConfig SimConfig::quick() {
  SimConfig config;
  config.seed = 7;
  config.study_days = 28;
  config.fleet.size = 300;
  config.topology.grid_width = 12;
  config.topology.grid_height = 12;
  return config;
}

SimConfig SimConfig::pristine() {
  SimConfig config = quick();
  config.gen.hour_artifact_per_trip = 0;
  config.data_loss_days.clear();
  config.data_loss_fraction = 0;
  return config;
}

StreamSim::StreamSim(const SimConfig& config)
    : config_(config),
      master_(config.seed),
      topology_([&] {
        util::Rng topo_rng = master_.split(0x701ULL);
        return net::Topology(config.topology, topo_rng);
      }()),
      background_([&] {
        util::Rng load_rng = master_.split(0x10ADULL);
        return net::background_load(topology_, config.load, load_rng);
      }()),
      generator_(topology_, config_.gen),
      study_end_(static_cast<time::Seconds>(config.study_days) *
                 time::kSecondsPerDay) {
  exec::ThreadPool pool(config.threads);
  util::Rng fleet_rng = master_.split(0xF1EE7ULL);
  fleet_ = fleet::build_fleet(topology_, config.fleet, fleet_rng, pool);

  // Global per-day activity factors: slow adoption trend plus day-of-week
  // dependent variability (Friday/Saturday are the noisy days in Table 1).
  util::Rng day_rng = master_.split(0xDA75ULL);
  day_factors_.assign(static_cast<std::size_t>(config.study_days), 1.0);
  for (int d = 0; d < config.study_days; ++d) {
    const auto dow = static_cast<std::size_t>(
        time::weekday(static_cast<time::Seconds>(d) * time::kSecondsPerDay));
    const double noise = day_rng.normal(0.0, config.dow_noise_sigma[dow]);
    day_factors_[static_cast<std::size_t>(d)] =
        std::max(0.2, (1.0 + config.daily_trend * d) * (1.0 + noise));
  }

  lossy_day_.assign(static_cast<std::size_t>(config.study_days), 0);
  for (const int d : config.data_loss_days) {
    if (d >= 0 && d < config.study_days) {
      lossy_day_[static_cast<std::size_t>(d)] = 1;
    }
  }
}

void StreamSim::emit_car(std::size_t i,
                         std::vector<cdr::Connection>& raw_scratch,
                         std::vector<cdr::Connection>& out) const {
  const fleet::CarProfile& car = fleet_[i];
  const std::size_t first = out.size();
  raw_scratch.clear();
  util::Rng car_rng = master_.split(0xCACA000000ULL + car.id.value);
  for (int day = 0; day < config_.study_days; ++day) {
    const fleet::DayContext ctx{
        day, day_factors_[static_cast<std::size_t>(day)]};
    const std::vector<fleet::Trip> trips =
        fleet::plan_day(car, topology_, ctx, car_rng);
    for (const fleet::Trip& trip : trips) {
      generator_.generate_trip(car, trip, car_rng, raw_scratch);
    }
  }

  // Right-censor at the study boundary (the export window ends), drop
  // records that fall outside entirely, and apply the partial-loss days.
  // Per-record decisions (the loss draw comes from a fresh counter-based
  // stream per (car, day)), so filtering per car here yields exactly the
  // records the whole-trace filter kept.
  for (cdr::Connection c : raw_scratch) {
    if (c.start >= study_end_ || c.end() <= 0) continue;
    if (c.start < 0) {
      c.duration_s = static_cast<std::int32_t>(c.end());
      c.start = 0;
    }
    if (c.end() > study_end_) {
      c.duration_s = static_cast<std::int32_t>(study_end_ - c.start);
    }
    if (c.duration_s <= 0) continue;
    // Data loss hits whole reporting chains: either a car's records for a
    // lossy day all survive or they are all gone - that is what makes "the
    // number of cars appear smaller" on those days (S4).
    const auto day = static_cast<std::size_t>(time::day_index(c.start));
    if (day < lossy_day_.size() && lossy_day_[day]) {
      util::Rng chain_rng = master_.split(
          0x1055'0000'0000ULL +
          static_cast<std::uint64_t>(c.car.value) * 1000003ULL + day);
      if (chain_rng.bernoulli(config_.data_loss_fraction)) continue;
    }
    out.push_back(c);
  }
  // Trips append in trip order; hand the car over in (car, start) order so
  // Dataset::finalize finds the trace ascending and skips its sort.
  // ByCarThenStart is a total order (two records it does not order are
  // equal), so this sort yields the one order any stable sort would.
  std::sort(out.begin() + static_cast<std::ptrdiff_t>(first), out.end(),
            cdr::ByCarThenStart{});
}

Study StreamSim::into_study(cdr::Dataset raw) && {
  return Study{std::move(config_),
               std::move(topology_),
               std::move(background_),
               std::move(fleet_),
               std::move(raw),
               std::move(day_factors_)};
}

Study simulate(const SimConfig& config) {
  StreamSim sim(config);
  exec::ThreadPool pool(config.threads);

  // Per-car trace generation, parallelized over fixed-size car chunks.
  // Every car's draws come from its own counter-based stream
  // (master.split(tag + car id)), and per-chunk buffers concatenate in car
  // order, so the record sequence below is byte-for-byte the one the
  // sequential loop produced. Each car's records come out sorted, so the
  // whole sequence ascends and finalize() skips its sort.
  constexpr std::size_t kCarChunk = 32;
  const std::size_t car_count = sim.fleet().size();
  const std::size_t chunk_count = (car_count + kCarChunk - 1) / kCarChunk;
  std::vector<std::vector<cdr::Connection>> chunks(chunk_count);
  pool.parallel_for(chunk_count, [&](std::size_t c) {
    std::vector<cdr::Connection>& out = chunks[c];
    const std::size_t begin = c * kCarChunk;
    const std::size_t end = std::min(car_count, begin + kCarChunk);
    out.reserve((end - begin) *
                static_cast<std::size_t>(config.study_days) * 8);
    std::vector<cdr::Connection> raw_scratch;
    for (std::size_t i = begin; i < end; ++i) {
      sim.emit_car(i, raw_scratch, out);
    }
  });

  cdr::Dataset dataset;
  dataset.set_fleet_size(static_cast<std::uint32_t>(config.fleet.size));
  dataset.set_study_days(config.study_days);
  std::size_t total_records = 0;
  for (const auto& chunk : chunks) total_records += chunk.size();
  dataset.reserve(total_records);
  for (auto& chunk : chunks) {
    dataset.add(chunk);
    chunk.clear();
    chunk.shrink_to_fit();
  }
  dataset.finalize(pool);

  return std::move(sim).into_study(std::move(dataset));
}

}  // namespace ccms::sim
