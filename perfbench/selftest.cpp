// Self-tests of measure.h: quantiles, steal shares, the JSON result line
// and spans.
// Exits non-zero on the first failed check.
#include <cmath>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "measure.h"

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    std::cerr << "FAIL: " << what << "\n";
    ++failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

template <typename Fn>
bool throws(Fn&& fn) {
  try {
    fn();
  } catch (const std::exception&) {
    return true;
  }
  return false;
}

void test_quantiles() {
  using perfbench::median;
  using perfbench::quantile;
  check(near(median({3, 1, 2}), 2), "odd median");
  check(near(median({4, 1, 3, 2}), 2.5), "even median interpolates");
  check(near(median({7}), 7), "single sample");
  // Type 7 on 1..10: q=0.9 -> position 8.1 -> 9.1.
  std::vector<double> ten;
  for (int i = 1; i <= 10; ++i) ten.push_back(i);
  check(near(quantile(ten, 0.9), 9.1), "p90 interpolates");
  check(near(quantile(ten, 0.0), 1) && near(quantile(ten, 1.0), 10),
        "quantile endpoints");
  check(near(quantile(ten, 0.25), 3.25), "first quartile");
  check(throws([] { (void)median({}); }), "median of nothing throws");
  check(throws([&] { (void)quantile(ten, 1.5); }), "q > 1 throws");
}

void test_steal() {
  using perfbench::parse_host_ticks;
  // user nice system idle iowait irq softirq steal guest guest_nice
  const perfbench::HostTicks before =
      parse_host_ticks("cpu  100 5 20 900 7 1 2 10 0 0");
  check(before.busy == 138 && before.steal == 10, "busy excludes idle, iowait");
  const perfbench::HostTicks after =
      parse_host_ticks("cpu  160 5 30 950 7 1 2 40 0 0");
  check(near(perfbench::steal_share(before, after), 30.0 / 100.0),
        "steal share of busy time");
  check(near(perfbench::steal_share(after, after), 0), "nothing ran");
  check(throws([] { (void)parse_host_ticks("cpu0 1 2 3 4 5 6 7 8"); }),
        "a per-CPU line is refused");
  check(throws([] { (void)parse_host_ticks("cpu  1 2 3"); }),
        "a short line is refused");
}

void test_json() {
  using perfbench::json_number;
  check(json_number(0.1) == "0.1", "shortest round-trip text");
  check(std::stod(json_number(1.0 / 3.0)) == 1.0 / 3.0, "all digits kept");
  check(json_number(2871289) == "2871289", "integers print plainly");
  check(throws([] { (void)json_number(std::nan("")); }), "NaN refused");
  check(throws([] { (void)json_number(INFINITY); }), "infinity refused");
  check(perfbench::json_string("a\"b\\c\n") == "\"a\\\"b\\\\c\\n\"",
        "string escapes");

  perfbench::Metrics metrics;
  metrics.add("latency_ms", 1.5, "ms");
  metrics.add("setup_s", 0.5, "s");
  const std::string line = perfbench::result_line(true, 12, 1, metrics);
  check(line ==
            "{\"correct\": true, \"attempted\": 12, \"failed\": 1, "
            "\"metrics\": {\"latency_ms\": {\"value\": 1.5, \"unit\": \"ms\"}, "
            "\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}",
        "result line: " + line);
}

void test_spans() {
  perfbench::Tracer tracer(true);
  {
    perfbench::Tracer::Scope outer(tracer, "outer");
    perfbench::Tracer::Scope inner(tracer, "inner");
  }
  { perfbench::Tracer::Scope again(tracer, "inner"); }
  const auto& spans = tracer.spans();
  check(spans.size() == 3, "three spans recorded");
  check(spans[0].parent == -1 && spans[1].parent == 0 && spans[2].parent == -1,
        "parents follow nesting");
  check(spans[1].end_s >= spans[1].start_s && spans[0].end_s >= spans[1].end_s,
        "child closes inside parent");
  check(tracer.durations("inner").size() == 2, "durations by name");

  perfbench::Tracer off(false);
  { perfbench::Tracer::Scope ignored(off, "x"); }
  check(off.spans().empty(), "a disabled tracer records nothing");
}

}  // namespace

int main() {
  test_quantiles();
  test_steal();
  test_json();
  test_spans();
  if (failures > 0) {
    std::cerr << failures << " check(s) failed\n";
    return 1;
  }
  std::cout << "perfbench self-test: all checks passed\n";
  return 0;
}
