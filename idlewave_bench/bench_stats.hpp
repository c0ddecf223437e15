// Measurement helpers of the idlewave_bench program: the VmHWM reader, the
// order-independent record fingerprint and the result row schema
// {layer, workload, metric, unit, median, p10, p90, reps}. Medians and
// percentiles are iw::median / iw::percentile (linear interpolation);
// compare.py computes the quartiles of repeated runs.
#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "support/hash.hpp"
#include "support/stats.hpp"

namespace iw::bench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Peak resident set size of this process in MiB (VmHWM of
/// /proc/self/status); 0 when the file is unavailable.
inline double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      status >> kib;
      return kib / 1024.0;
    }
    status.ignore(1 << 12, '\n');
  }
  return 0.0;
}

/// Order-independent fingerprint of a set of record lines: the wrapping sum
/// of each line's FNV-1a hash, so records arriving in any order (worker
/// pool, several connections) fingerprint alike. Simulated statistics are
/// deterministic, so a seed must always reproduce the same value.
class RecordFingerprint {
 public:
  void add(const std::string& line) {
    sum_ += fnv1a64(line);
    lines_ += 1;
  }
  [[nodiscard]] std::string hex() const { return hash_hex(sum_); }
  [[nodiscard]] std::size_t lines() const { return lines_; }

 private:
  std::uint64_t sum_ = 0;
  std::size_t lines_ = 0;
};

/// One measured metric of a workload, in the result row schema (the JSON
/// output adds the workload's name). `median`, `p10` and `p90` summarize the
/// `reps` samples behind the reported value; a rate measured once over the
/// whole run has reps = 1.
struct Row {
  std::string layer;
  std::string metric;
  std::string unit;
  double value = 0.0;  ///< the reported number (a percentile or a rate)
  double median = 0.0;
  double p10 = 0.0;
  double p90 = 0.0;
  std::size_t reps = 1;
};

/// Row of a value measured once.
inline Row scalar_row(std::string layer, std::string metric, std::string unit,
                      double value) {
  return Row{std::move(layer), std::move(metric), std::move(unit),
             value, value, value, value, 1};
}

/// Row whose reported value is the `reported_pct` percentile of `samples`.
inline Row sample_row(std::string layer, std::string metric, std::string unit,
                      std::span<const double> samples,
                      double reported_pct = 50.0) {
  Row r{std::move(layer), std::move(metric), std::move(unit)};
  r.value = iw::percentile(samples, reported_pct);
  r.median = iw::median(samples);
  r.p10 = iw::percentile(samples, 10.0);
  r.p90 = iw::percentile(samples, 90.0);
  r.reps = samples.size();
  return r;
}

}  // namespace iw::bench
