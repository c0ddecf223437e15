// Idle-wave analysis: extracting the paper's observables from traces.
//
// An injected one-off delay shows up on other ranks as long waiting periods
// in WaitAll — the "idle wave". This module turns raw traces into:
//   * per-rank idle periods (filtered by a minimum duration),
//   * the wave front: per-rank arrival time and local idle amplitude,
//   * the propagation speed (ranks/s) via a least-squares front fit,
//   * the decay rate beta (us/rank) via an amplitude fit (paper Fig. 8),
//   * the survival distance (hops until the wave fell below threshold).
// The probe streams: it walks hop by hop, counts survival as it goes and
// keeps only the ranks the wave reached, so a 10^5-rank machine whose wave
// reaches a few dozen ranks costs a few dozen entries, not one per hop. On
// a fast-forward trace, whose silent ranks share a handful of rows, each
// row is scanned once per probe (memoized by row index).
#pragma once

#include <optional>
#include <vector>

#include "mpi/trace.hpp"
#include "support/stats.hpp"
#include "support/time.hpp"
#include "workload/ring.hpp"

namespace iw::core {

/// A contiguous waiting period of one rank.
struct IdlePeriod {
  int rank = 0;
  SimTime begin;
  SimTime end;
  std::int32_t step = -1;

  [[nodiscard]] Duration duration() const { return end - begin; }
};

/// All idle periods of `rank` no shorter than `min_duration`.
[[nodiscard]] std::vector<IdlePeriod> idle_periods(const mpi::Trace& trace,
                                                   int rank,
                                                   Duration min_duration);

/// The wave as observed at one rank it reached.
struct WaveObservation {
  int rank = 0;
  int hops = 0;           ///< distance from the injection rank (boundary-aware)
  SimTime arrival;        ///< begin of the first qualifying idle period
  Duration amplitude;     ///< duration of that idle period
};

struct WaveProbe {
  int injection_rank = 0;
  SimTime injection_time = SimTime::zero();
  /// Idle periods shorter than this do not count as "the wave" (filters
  /// regular communication delays and noise-scale waits).
  Duration min_idle = milliseconds(0.5);
  /// +1: analyze the wave moving toward higher ranks; -1: toward lower.
  int direction = +1;
  workload::Boundary boundary = workload::Boundary::open;
  /// Limits how many hops to follow; 0 = to the boundary (open) or once
  /// around minus one (periodic).
  int max_hops = 0;
};

struct WaveAnalysis {
  /// Hops the probe walked. Ranks it passed without finding a qualifying
  /// idle period keep no entry: at machine scale that is nearly all of
  /// them.
  int hops_probed = 0;
  /// The ranks the wave reached, in hop order: the points of both fits.
  std::vector<WaveObservation> front;
  /// Arrival-time fit over reached ranks: seconds vs hops.
  LineFit front_fit;
  /// Propagation speed in ranks per second (1/front slope); 0 if the wave
  /// reached fewer than two ranks.
  double speed_ranks_per_sec = 0.0;
  /// Amplitude fit over reached ranks: microseconds vs hops.
  LineFit amplitude_fit;
  /// Decay rate beta >= 0 in us/rank (paper Fig. 8): how much idle duration
  /// the wave loses per hop.
  double decay_us_per_rank = 0.0;
  /// Hops the wave survived (count of consecutively reached ranks; <=
  /// front.size(), since a wave can skip a rank and reappear past it
  /// without extending survival).
  int survival_hops = 0;
  /// True when speed_ranks_per_sec came from a real fit: >= 2 reached ranks
  /// and a positive front slope. All edge cases — wave never arrives,
  /// single-observation front, every wait below min_idle — leave this false
  /// with zeroed speed/decay instead of NaN.
  bool front_valid = false;
  /// RMS residual of the front fit in microseconds: how far arrivals
  /// scatter around the fitted line. Principled basis for verification
  /// tolerances (a tolerance far below the residual is noise-chasing).
  double front_rmse_us = 0.0;
  /// RMS residual of the amplitude fit in microseconds.
  double amplitude_rmse_us = 0.0;
};

/// Follows the wave from the injection outward in `probe.direction` and
/// fits front and amplitude. With periodic boundaries ranks wrap.
[[nodiscard]] WaveAnalysis analyze_wave(const mpi::Trace& trace,
                                        const WaveProbe& probe);

/// Convenience: the rank `hops` away from `origin` in `direction` under the
/// boundary rule; nullopt when walking off an open chain. analyze_wave()
/// visits exactly this sequence for hops = 1, 2, ..., stepping one rank at a
/// time.
[[nodiscard]] std::optional<int> rank_at_hops(int origin, int hops,
                                              int direction, int ranks,
                                              workload::Boundary boundary);

}  // namespace iw::core
