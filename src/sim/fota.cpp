#include "sim/fota.h"

#include <algorithm>

#include "util/time.h"

namespace ccms::sim {

std::vector<double> weekday_average_day(const net::CellLoad& background,
                                        CellId cell) {
  std::vector<double> day(time::kBins15PerDay, 0.0);
  for (int bin = 0; bin < time::kBins15PerDay; ++bin) {
    double sum = 0;
    for (int d = 0; d < 5; ++d) {  // Monday..Friday
      sum += background.at(cell, d * time::kBins15PerDay + bin);
    }
    day[static_cast<std::size_t>(bin)] = sum / 5.0;
  }
  return day;
}

SaturationResult saturation_experiment(const net::CellLoad& background,
                                       const net::CellTable& cells,
                                       CellId cell, int start_bin,
                                       int duration_bins) {
  SaturationResult result;
  result.cell = cell;
  result.average_day = weekday_average_day(background, cell);

  const net::GreedyFlow flow{start_bin, duration_bins, 1.0};
  const CarrierId carrier = cells.info(cell).carrier;
  const net::PrbDayResult day = net::simulate_day(
      result.average_day, std::span<const net::GreedyFlow>(&flow, 1), carrier);

  result.test_day = day.utilization;
  result.delivered_mb = day.delivered_mb;
  for (int k = 0; k < duration_bins; ++k) {
    const int bin = (start_bin + k) % time::kBins15PerDay;
    result.peak_utilization =
        std::max(result.peak_utilization,
                 result.test_day[static_cast<std::size_t>(bin)]);
  }
  return result;
}

std::vector<CellId> pick_test_cells(const net::CellLoad& background,
                                    const net::CellTable& cells, int count,
                                    double lo, double hi) {
  std::vector<CellId> picked;
  for (const net::CellInfo& info : cells.all()) {
    const double mean = background.weekly_mean(info.id);
    if (mean >= lo && mean <= hi) {
      picked.push_back(info.id);
      if (static_cast<int>(picked.size()) >= count) break;
    }
  }
  return picked;
}

const char* name(DeliveryPolicy policy) {
  switch (policy) {
    case DeliveryPolicy::kImmediate:
      return "immediate";
    case DeliveryPolicy::kRandomizedOffCommute:
      return "randomized-off-commute";
    case DeliveryPolicy::kOffPeakWindow:
      return "off-peak-window";
  }
  return "?";
}

CampaignPlan plan_campaign(std::span<const FotaCarInput> cars,
                           const net::CellLoad& background,
                           const net::CellTable& cells,
                           const CampaignConfig& config) {
  CampaignPlan plan;
  plan.cars.reserve(cars.size());

  for (const FotaCarInput& input : cars) {
    CarPlan car_plan;
    car_plan.car = input.car;

    if (input.days_on_network <= config.rare_days) {
      car_plan.policy = DeliveryPolicy::kImmediate;
      car_plan.start_bin = config.immediate_bin;
    } else if (input.busy_share > config.busy_share_special) {
      car_plan.policy = DeliveryPolicy::kOffPeakWindow;
      car_plan.start_bin = config.offpeak_bin;
    } else {
      car_plan.policy = DeliveryPolicy::kRandomizedOffCommute;
      car_plan.start_bin = config.randomized_bin;
    }
    ++plan.policy_counts[static_cast<std::size_t>(car_plan.policy)];

    car_plan.planned_seconds =
        fota_download_seconds(background, cells, input.home_cell,
                              config.update_mb, car_plan.start_bin);
    car_plan.naive_seconds =
        fota_download_seconds(background, cells, input.home_cell,
                              config.update_mb, config.naive_bin);

    if (car_plan.planned_seconds < 0 || car_plan.naive_seconds < 0) {
      ++plan.deferred;
    } else {
      plan.naive_hours += car_plan.naive_seconds / 3600.0;
      plan.planned_hours += car_plan.planned_seconds / 3600.0;
    }
    plan.cars.push_back(car_plan);
  }
  return plan;
}

double fota_download_seconds(const net::CellLoad& background,
                             const net::CellTable& cells, CellId cell,
                             double megabytes, int start_bin) {
  const std::vector<double> day = weekday_average_day(background, cell);
  return net::download_time_seconds(megabytes, day, start_bin,
                                    cells.info(cell).carrier);
}

}  // namespace ccms::sim
