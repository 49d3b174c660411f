#include "harness/replay.h"

#include <filesystem>
#include <set>
#include <stdexcept>
#include <string>

#include "util/csv.h"
#include "util/file_io.h"

namespace ccms::harness {
namespace {

namespace fs = std::filesystem;

std::string checkpoint_name(std::size_t index) {
  return "checkpoint_" + std::to_string(index) + ".bin";
}

/// violation.txt: three `key=value` lines. The detail is single-line by
/// construction (the runner never embeds newlines in check details).
std::string serialize_violation(const CheckResult& violation) {
  return "invariant=" + violation.invariant + "\nstage=" + violation.stage +
         "\ndetail=" + violation.detail + "\n";
}

bool parse_violation(std::string_view text, CheckResult& violation,
                     std::string* error) {
  std::set<std::string_view> seen;
  std::string why = read_key_values(
      text, [&](std::string_view key, std::string_view value) -> std::string {
        std::string* field = key == "invariant" ? &violation.invariant
                             : key == "stage"   ? &violation.stage
                             : key == "detail"  ? &violation.detail
                                                : nullptr;
        if (field == nullptr) return "unknown key: " + std::string(key);
        *field = std::string(value);
        seen.insert(key);
        return {};
      });
  if (why.empty() && seen.size() < 3) why = "missing field";
  if (!why.empty()) {
    if (error != nullptr) *error = "violation.txt: " + why;
    return false;
  }
  violation.pass = false;
  return true;
}

}  // namespace

std::string write_bundle(const std::string& dir, const Scenario& scenario,
                         const ScenarioResult& result) {
  const CheckResult* failure = result.first_failure();
  if (failure == nullptr) {
    throw std::logic_error("write_bundle: result has no failing check");
  }
  const fs::path root(dir);
  std::error_code ec;
  fs::create_directories(root, ec);
  if (ec) throw util::CsvError("cannot create " + root.string());

  util::write_file(root / "scenario.txt",
                   serialize_scenario(scenario, result.seed));
  util::write_file(root / "violation.txt", serialize_violation(*failure));
  for (std::size_t i = 0; i < result.checkpoint_images.size(); ++i) {
    const std::vector<std::uint8_t>& image = result.checkpoint_images[i];
    util::write_file(
        root / checkpoint_name(i),
        std::string_view(reinterpret_cast<const char*>(image.data()),
                         image.size()));
  }
  return root.string();
}

std::optional<ReplayBundle> load_bundle(const std::string& dir,
                                        std::string* error) {
  const fs::path root(dir);
  ReplayBundle bundle;

  const std::optional<std::string> scenario_text =
      util::read_file(root / "scenario.txt");
  if (!scenario_text) {
    if (error != nullptr) *error = "cannot read scenario.txt in " + dir;
    return std::nullopt;
  }
  const std::optional<ParsedScenario> parsed =
      parse_scenario(*scenario_text, error);
  if (!parsed.has_value()) return std::nullopt;
  bundle.scenario = parsed->scenario;
  bundle.seed = parsed->seed;

  const std::optional<std::string> violation_text =
      util::read_file(root / "violation.txt");
  if (!violation_text) {
    if (error != nullptr) *error = "cannot read violation.txt in " + dir;
    return std::nullopt;
  }
  if (!parse_violation(*violation_text, bundle.violation, error)) {
    return std::nullopt;
  }

  for (std::size_t i = 0;; ++i) {
    const fs::path path = root / checkpoint_name(i);
    if (!fs::exists(path)) break;
    const std::optional<std::string> bytes = util::read_file(path);
    if (!bytes) {
      if (error != nullptr) *error = "cannot read " + path.string();
      return std::nullopt;
    }
    bundle.checkpoint_images.emplace_back(bytes->begin(), bytes->end());
  }
  return bundle;
}

ReplayOutcome replay_bundle(const ReplayBundle& bundle) {
  ReplayOutcome outcome;
  outcome.result = run_scenario(bundle.scenario, bundle.seed);

  const CheckResult* failure = outcome.result.first_failure();
  outcome.violation_reproduced =
      failure != nullptr && failure->invariant == bundle.violation.invariant &&
      failure->stage == bundle.violation.stage &&
      failure->detail == bundle.violation.detail;

  // Checkpoint images are compared positionally: the recorded run and the
  // replay execute the same kill-point list in the same order.
  outcome.checkpoints_identical =
      outcome.result.checkpoint_images.size() ==
      bundle.checkpoint_images.size();
  for (std::size_t i = 0;
       outcome.checkpoints_identical && i < bundle.checkpoint_images.size();
       ++i) {
    outcome.checkpoints_identical =
        outcome.result.checkpoint_images[i] == bundle.checkpoint_images[i];
  }
  return outcome;
}

}  // namespace ccms::harness
