// The four idlewave_bench workloads and the result they report.
//
// Each workload runs from one process on `threads` worker threads, makes all
// of its inputs from `seed`, times passes (of campaigns, verifications or
// service jobs) until `seconds` have passed with its timed set-ups, each a
// fresh process, between them, and checks its outputs outside the timed
// window. A traced run repeats the same passes with spans recorded and then
// profiles every layer on the workload's own campaigns (phase_split.hpp).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench_stats.hpp"
#include "spans.hpp"
#include "sweep/scenario.hpp"

namespace iw::bench {

inline const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "catalog_campaign", "decay_long", "verify_corpus", "service_mix"};
  return names;
}

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int threads = 1;
  /// ~1% of the normal work: one operation per workload, reduced decay and
  /// verify sizes, every check still on.
  bool smoke = false;
  bool trace = false;
  std::string scratch;     ///< directory for sink files and sockets
  std::string golden_dir;  ///< tests/golden of the checkout
};

/// One campaign a workload ran: the scenario (spec with the seed used, and
/// the oracle bounds) and its expanded points.
struct Campaign {
  sweep::Scenario scenario;
  std::vector<sweep::SweepPoint> points;
};

struct WorkloadResult {
  std::string workload;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< the first few, for the log
  RecordFingerprint fingerprint;
  std::vector<Row> e2e;
  std::vector<Row> layers;
  std::map<std::string, Spans::SelfTime> self_times;

  /// Counts one failed operation or check.
  void fail(const std::string& why, std::uint64_t count = 1) {
    failed += count;
    if (failures.size() < 8) failures.push_back(why);
  }
};

/// Runs `cfg.workload`: the untraced measurement, or (cfg.trace) the
/// untraced and traced halves plus the layer profile.
[[nodiscard]] WorkloadResult run_workload(const RunConfig& cfg);

/// One set-up of `cfg.workload`, as the first thing a fresh process does:
/// build the workload and run its warm-up pass number `rep` (for
/// service_mix: start a server, connect and run the warm-up pass). False
/// when an operation of it failed.
[[nodiscard]] bool run_setup(const RunConfig& cfg, int rep);

}  // namespace iw::bench
