// Shared types of the serving benchmark: options, the metric record, and
// the small statistics helpers every workload uses.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace servebench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;  // traced run: obs span JSON written here
};

/// One reported number. Every value is printed with all its digits.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run produced. `e2e` holds every end-to-end metric of
/// an untraced run; `layer` every per-layer metric of a traced run.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> e2e;
  std::vector<Metric> layer;
  /// Human-readable lines (gate verdicts, ledgers, provenance details)
  /// printed before the final JSON line.
  std::vector<std::string> notes;

  void fail(const std::string& why) {
    correct = false;
    notes.push_back("GATE FAILED: " + why);
  }
};

/// The percentile of per-call times that every rate of repeated calls
/// (offline_sps, the replay's events per second, the kernel probes and the
/// peaks) is computed from. The shared host swings between a fast and a
/// slow state (the same int8 batch call takes ~6 ms or ~9 ms, CPU time as
/// well as wall time), on a scale of seconds to tens of seconds, so the
/// median and even the 10th percentile flip with the mix of states a run
/// happens to see. The 1st percentile is the speed in the fast state.
constexpr double kFastPct = 1.0;

/// Nearest-rank percentile, p in [0, 100]; 0 for an empty sample.
double percentile(std::vector<double> v, double p);
inline double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

/// Peak resident set size of this process in MB (getrusage).
double peak_rss_mb();

/// Monotonic clock in ns (the serving layer's own clock).
std::uint64_t now_ns();

inline double seconds_since(std::uint64_t t0) {
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

}  // namespace servebench
