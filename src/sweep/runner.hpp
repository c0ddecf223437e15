// Sharded campaign runner: a worker pool over expanded sweep points.
//
// Each point is an independent single-shot simulation whose RNG seed was
// fixed at expansion time, so workers can claim points in any order without
// perturbing results. Completed records are delivered to the sinks in
// ascending point order (a contiguous-prefix cursor advances as workers
// finish), which makes an N-thread campaign byte-identical to the
// single-threaded one. Cancellation stops workers at the next point
// boundary; every record completed before the stop is still delivered.
// The calling thread is worker 0 of its own campaign: a call starts
// threads - 1 helper threads (none at threads = 1), runs a worker itself
// and then joins the helpers. Every worker takes its core::WaveRunner from
// a process-wide idle list and returns it, so consecutive campaigns
// recycle their clusters; the list holds at most as many runners as were
// ever running at once, each keeping the pools of the largest point it ran.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <vector>

#include "sweep/record.hpp"
#include "sweep/spec.hpp"

namespace iw::obs {
class MetricsRegistry;
}

namespace iw::sweep {

struct RunnerOptions {
  /// Workers, the calling thread included; clamped to [1, points]. Every
  /// thread count runs the same worker body, so threads = 1 is the
  /// caller alone, with no thread started.
  int threads = 1;
  /// Called after each completed point with (completed, total), serialized
  /// under the collector lock. Cheap callbacks only.
  std::function<void(std::size_t, std::size_t)> on_progress;
  /// Optional cancellation flag. Workers stop claiming points once it reads
  /// true; in-flight points run to completion and are delivered.
  const std::atomic<bool>* cancel = nullptr;
  /// Optional unified metrics registry. The campaign accumulates each
  /// record's engine/transport counters as it completes (under the
  /// collector lock) and publishes the sweep.* throughput metrics —
  /// points done/total, elapsed, points/sec, worker count and peak
  /// per-worker busy time — when the pool drains. Non-owning.
  obs::MetricsRegistry* metrics = nullptr;
  /// Record destinations. write() is invoked in ascending index order, one
  /// record at a time — from whichever worker (the calling thread or a
  /// helper) completes the prefix, under the collector lock, while the
  /// campaign runs, and from the calling thread (after every helper has
  /// joined) for records a cancellation left beyond the streamed prefix.
  /// At threads = 1 every write runs on the calling thread.
  std::vector<RecordSink*> sinks;
};

struct CampaignResult {
  /// Records of all completed points, in point order. A full run has
  /// exactly total_points entries; a cancelled run may have gaps (records
  /// carry their index).
  std::vector<SweepRecord> records;
  std::size_t total_points = 0;
  bool cancelled = false;
  double seconds = 0.0;  ///< wall-clock time of the campaign

  [[nodiscard]] double points_per_sec() const {
    return seconds > 0.0 ? static_cast<double>(records.size()) / seconds : 0.0;
  }
};

/// Runs all `points` on the calling thread plus options.threads - 1
/// helpers. Rethrows the first worker exception (after joining every
/// helper).
[[nodiscard]] CampaignResult run_campaign(const std::vector<SweepPoint>& points,
                                          const RunnerOptions& options = {});

/// Convenience: expand + run.
[[nodiscard]] CampaignResult run_campaign(const SweepSpec& spec,
                                          const RunnerOptions& options = {});

}  // namespace iw::sweep
