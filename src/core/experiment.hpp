// High-level experiment driver: one-call idle-wave experiments.
//
// Bundles cluster assembly, workload construction (1-D ring/chain or 2-D
// halo-exchange grid), delay injection, optional fine-grained noise
// injection, and wave analysis in both directions — the shape of nearly
// every experiment in the paper.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "core/cluster.hpp"
#include "core/fast_forward.hpp"
#include "core/idle_wave.hpp"
#include "mpi/message.hpp"
#include "workload/grid2d.hpp"
#include "workload/ring.hpp"

namespace iw::core {

struct WaveExperiment {
  ClusterConfig cluster;
  workload::RingSpec ring;
  /// When set, the experiment runs the 2-D halo-exchange workload instead of
  /// the ring; `ring` is then ignored. The wave is probed along the +x/-x
  /// axis of the injection row (ranks are row-major, so hop-walking stays
  /// meaningful), the straightforward 2-D slice of the paper's Eq. 2.
  std::optional<workload::Grid2DSpec> grid;
  std::vector<workload::DelaySpec> delays;
  noise::NoiseSpec injected_noise = noise::NoiseSpec::none();
  /// Threshold below which a wait does not count as "the wave".
  Duration min_idle = milliseconds(0.5);
  /// Analytic fast-forward over silent regions (ring workloads only; see
  /// core/fast_forward.hpp). Off by default: the full event simulation is
  /// the reference semantics, and its engine counters are golden-pinned.
  FfwdMode ffwd = FfwdMode::off;
};

struct WaveResult {
  mpi::Trace trace;
  /// Wave analyses toward higher / lower ranks from the first delay.
  WaveAnalysis up{};
  WaveAnalysis down{};
  /// Protocol the transport chose for the workload's message size.
  mpi::WireProtocol protocol = mpi::WireProtocol::eager;
  /// Measured steady-state compute-communicate cycle length: the
  /// measured_cycle() median over steps 1 .. steps - 1 of one far rank, rank
  /// (injection + np/2) mod np on the ring and, on the grid, the corner
  /// farthest (Manhattan) from the injection. Zero below four steps or
  /// without a delay.
  Duration measured_cycle = Duration::zero();
  /// Eq. 2 prediction using the measured cycle: sigma*d / cycle.
  double predicted_speed = 0.0;
  /// Injection wall-clock time (begin of the injected segment).
  SimTime injection_time = SimTime::zero();
  /// Engine counters for the run: total events fired and the calendar's
  /// peak population (simulation-cost figures tracked by bench/perf_engine).
  std::uint64_t events_processed = 0;
  std::size_t peak_events_pending = 0;
  /// Eager-sized sends the transport demoted to rendezvous during the run
  /// because their pair's credit window was exhausted
  /// (Transport::Stats::credit_stalls). Zero under the ideal
  /// configuration; a sweep observable for the eager_credits axis.
  std::uint64_t eager_demotions = 0;
  /// Per-run transport protocol counters (Transport::Stats fields), named
  /// after the IW_METRIC_COLUMNS registry entries that turn them into
  /// sweep-record columns: injections parked behind a full NIC queue,
  /// rendezvous pushes deferred on a busy NIC, and unexpected eager/RTS
  /// arrivals (receive posted after the message landed).
  std::uint64_t nic_backlogged = 0;
  std::uint64_t deferred_pushes = 0;
  std::uint64_t unexpected_eager = 0;
  std::uint64_t unexpected_rts = 0;
  /// Fast-forward accounting, zero when the ffwd path was not taken:
  /// rank-steps whose event simulation was skipped, and the summed
  /// simulated time of the synthesized silent timelines.
  std::uint64_t ffwd_skips = 0;
  Duration ffwd_time_skipped = Duration::zero();
};

/// Runs the experiment on a fresh WaveRunner. If `delays` is empty the wave
/// analyses stay empty.
[[nodiscard]] WaveResult run_wave_experiment(const WaveExperiment& exp);

/// Reusable experiment driver: one Cluster is recycled across consecutive
/// runs via Cluster::reset(), so a sweep worker pays for the engine
/// calendar slab, transport pools, and process objects once instead of per
/// point, and the last fast-forward reference ring is kept until a point
/// needs a different one. Results are byte-identical to fresh-cluster runs
/// (guarded by the determinism suite). Not thread-safe: a campaign worker
/// holds one at a time, taken from and returned to a process-wide idle
/// list, so runners outlive the campaign that built them (see
/// sweep/runner.cpp).
class WaveRunner {
 public:
  [[nodiscard]] WaveResult run(const WaveExperiment& exp);

 private:
  std::unique_ptr<Cluster> cluster_;
  FfwdReference ffwd_reference_;
};

/// Median distance between consecutive step-begin markers of `rank` over
/// steps [from_step, to_step), rounded to the nanosecond: the steady-state
/// cycle time Texec + Tcomm, robust against the few steps a wave inflates.
[[nodiscard]] Duration measured_cycle(const mpi::Trace& trace, int rank,
                                      int from_step, int to_step);

/// Begin time of the first injected-delay segment of `rank`; zero when none.
[[nodiscard]] SimTime injection_begin(const mpi::Trace& trace, int rank);

/// Builds a packed ClusterConfig for a ring spec: one rank per node when
/// `ppn1`, otherwise `per_socket` ranks per socket.
[[nodiscard]] ClusterConfig cluster_for_ring(const workload::RingSpec& ring,
                                             bool ppn1 = true,
                                             int per_socket = 10);

}  // namespace iw::core
