// make_study: generate a synthetic CDR study to a file — the dataset-
// production CLI for anyone who wants the records without linking the
// library (feeds spreadsheet/pandas workflows, or the trace_analyze tool).
//
// Usage:
//   make_study [--cars N] [--days N] [--seed S] [--grid W]
//              [--anonymize SALT] [--out PATH]
//
// The output format follows the extension: .csv, or .ccdr2 for the
// columnar binary format (cdr/columnar.h).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "cdr/anonymize.h"
#include "cdr/columnar.h"
#include "cdr/io.h"
#include "sim/simulator.h"

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--cars N] [--days N] [--seed S] [--grid W]\n"
               "          [--anonymize SALT] [--out PATH(.csv|.ccdr2)]\n",
               argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ccms;

  sim::SimConfig config = sim::SimConfig::paper_default();
  config.fleet.size = 2000;
  std::string out = "study.csv";
  bool do_anonymize = false;
  std::uint64_t salt = 0;

  for (int i = 1; i < argc; ++i) {
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--cars") == 0) {
      config.fleet.size = std::atoi(next());
    } else if (std::strcmp(argv[i], "--days") == 0) {
      config.study_days = std::atoi(next());
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      config.seed = static_cast<std::uint64_t>(std::atoll(next()));
    } else if (std::strcmp(argv[i], "--grid") == 0) {
      config.topology.grid_width = std::atoi(next());
      config.topology.grid_height = config.topology.grid_width;
    } else if (std::strcmp(argv[i], "--anonymize") == 0) {
      do_anonymize = true;
      salt = static_cast<std::uint64_t>(std::atoll(next()));
    } else if (std::strcmp(argv[i], "--out") == 0) {
      out = next();
    } else {
      usage(argv[0]);
    }
  }
  if (config.fleet.size <= 0 || config.study_days <= 0 ||
      config.topology.grid_width <= 0) {
    usage(argv[0]);
  }

  std::fprintf(stderr, "simulating %d cars x %d days (grid %dx%d, seed %llu)...\n",
               config.fleet.size, config.study_days,
               config.topology.grid_width, config.topology.grid_height,
               static_cast<unsigned long long>(config.seed));
  sim::Study study = sim::simulate(config);
  cdr::Dataset dataset = std::move(study.raw);
  if (do_anonymize) {
    dataset = cdr::anonymize(dataset, {.salt = salt});
    std::fprintf(stderr, "anonymized with salt %llu\n",
                 static_cast<unsigned long long>(salt));
  }

  const bool columnar = out.ends_with(".ccdr2");
  try {
    if (columnar) {
      cdr::write_columnar(dataset, out);
    } else {
      cdr::write_csv(dataset, out);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "write failed: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "wrote %zu records to %s (%s)\n", dataset.size(),
               out.c_str(), columnar ? "CCDR2" : "CSV");
  return 0;
}
