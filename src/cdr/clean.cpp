#include "cdr/clean.h"

namespace ccms::cdr {

Dataset clean(const Dataset& input, const CleanOptions& options,
              CleanReport& report) {
  report = CleanReport{};

  Dataset output;
  output.reserve(input.size());
  output.set_fleet_size(input.fleet_size());
  output.set_study_days(input.study_days());

  for (const Connection& c : input.all()) {
    if (survives_clean(c, options, report)) output.add(c);
  }
  output.finalize();
  return output;
}

Dataset truncate_durations(const Dataset& input, std::int32_t cap) {
  Dataset output;
  output.reserve(input.size());
  output.set_fleet_size(input.fleet_size());
  output.set_study_days(input.study_days());
  for (Connection c : input.all()) {
    c.duration_s = truncated_duration(c.duration_s, cap);
    output.add(c);
  }
  output.finalize();
  return output;
}

}  // namespace ccms::cdr
