// Sample statistics, in-memory spans and the result line of perfbench.
//
// Header-only so that perfbench.cpp and selftest.cpp share one copy.
#pragma once

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <system_error>
#include <vector>

namespace perfbench {

/// Linear-interpolation quantile of `samples` (type 7, the same rule as
/// numpy's default), `q` in [0, 1]. Throws on an empty sample: a metric
/// with no samples must not be reported as a number.
inline double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) throw std::invalid_argument("quantile of no samples");
  if (!(q >= 0.0 && q <= 1.0)) throw std::invalid_argument("q outside [0,1]");
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (pos - static_cast<double>(lo)) * (samples[hi] - samples[lo]);
}

inline double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}

/// CPU time of the whole machine in clock ticks, from the `cpu` line of
/// /proc/stat: time busy (stolen time included) and the part of it the
/// hypervisor gave to other guests.
struct HostTicks {
  std::uint64_t busy = 0;
  std::uint64_t steal = 0;
};

/// Parses `cpu  user nice system idle iowait irq softirq steal ...`.
inline HostTicks parse_host_ticks(const std::string& line) {
  std::istringstream in(line);
  std::string label;
  in >> label;
  if (label != "cpu") throw std::invalid_argument("not the cpu line: " + line);
  std::uint64_t f[8] = {};
  for (std::uint64_t& value : f) {
    if (!(in >> value)) throw std::invalid_argument("short cpu line: " + line);
  }
  // Idle (f[3]) and iowait (f[4]) are not busy.
  return {f[0] + f[1] + f[2] + f[5] + f[6] + f[7], f[7]};
}

/// Share of the machine's busy CPU time that was stolen between two
/// readings; 0 when nothing ran.
inline double steal_share(const HostTicks& before, const HostTicks& after) {
  const std::uint64_t busy = after.busy - before.busy;
  if (busy == 0) return 0.0;
  return static_cast<double>(after.steal - before.steal) /
         static_cast<double>(busy);
}

/// Shortest decimal text that reads back as exactly `value`. JSON has no
/// NaN or infinity, so those throw.
inline std::string json_number(double value) {
  if (!std::isfinite(value)) throw std::invalid_argument("non-finite metric");
  char buffer[64];
  const auto [end, ec] = std::to_chars(buffer, buffer + sizeof buffer, value);
  if (ec != std::errc()) throw std::runtime_error("to_chars failed");
  return std::string(buffer, end);
}

inline std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char escape[8];
          std::snprintf(escape, sizeof escape, "\\u%04x", c);
          out += escape;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

/// Named metrics with units, kept in insertion order.
class Metrics {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    entries_.push_back({name, value, unit});
  }

  /// `{"name": {"value": v, "unit": "u"}, ...}`
  [[nodiscard]] std::string json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (i > 0) out += ", ";
      out += json_string(entries_[i].name) +
             ": {\"value\": " + json_number(entries_[i].value) +
             ", \"unit\": " + json_string(entries_[i].unit) + "}";
    }
    return out + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value = 0;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// The benchmark's last stdout line.
inline std::string result_line(bool correct, std::uint64_t attempted,
                               std::uint64_t failed, const Metrics& metrics) {
  return std::string("{\"correct\": ") + (correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted) +
         ", \"failed\": " + std::to_string(failed) +
         ", \"metrics\": " + metrics.json() + "}";
}

/// Spans recorded in memory around public calls: name, start, end and the
/// enclosing span. Disabled tracers record nothing, so the untraced run
/// pays one branch per call site.
class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  struct Span {
    std::string name;
    double start_s = 0;  ///< since the tracer was created
    double end_s = 0;
    int parent = -1;     ///< index into spans(), -1 for a root span
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// RAII span; closes at scope exit (exception paths included).
  class Scope {
   public:
    Scope(Tracer& tracer, std::string name) : tracer_(tracer) {
      if (!tracer_.enabled_) return;
      index_ = static_cast<int>(tracer_.spans_.size());
      tracer_.spans_.push_back(
          {std::move(name), tracer_.now(), 0,
           tracer_.open_.empty() ? -1 : tracer_.open_.back()});
      tracer_.open_.push_back(index_);
    }
    ~Scope() {
      if (index_ < 0) return;
      tracer_.spans_[static_cast<std::size_t>(index_)].end_s = tracer_.now();
      tracer_.open_.pop_back();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    int index_ = -1;
  };

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Durations in seconds of every closed span called `name`.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const {
    std::vector<double> out;
    for (const Span& span : spans_) {
      if (span.name == name) out.push_back(span.end_s - span.start_s);
    }
    return out;
  }

  /// Sum of the durations of every span called `name`.
  [[nodiscard]] double total(const std::string& name) const {
    double sum = 0;
    for (const double d : durations(name)) sum += d;
    return sum;
  }

  /// Writes the spans as one JSON object per line.
  void write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write spans to " + path);
    for (const Span& span : spans_) {
      out << "{\"name\": " << json_string(span.name)
          << ", \"start_s\": " << json_number(span.start_s)
          << ", \"end_s\": " << json_number(span.end_s)
          << ", \"parent\": " << span.parent << "}\n";
    }
  }

 private:
  [[nodiscard]] double now() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }

  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace perfbench
