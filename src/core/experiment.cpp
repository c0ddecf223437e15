#include "core/experiment.hpp"

#include <algorithm>
#include <utility>

#include "core/speed_model.hpp"
#include "support/stats.hpp"
#include "support/error.hpp"

namespace iw::core {

Duration measured_cycle(const mpi::Trace& trace, int rank, int from_step,
                        int to_step) {
  const auto& marks = trace.step_begin(rank);
  IW_REQUIRE(from_step >= 0 && to_step > from_step, "bad step range");
  IW_REQUIRE(static_cast<std::size_t>(to_step) < marks.size(),
             "step range exceeds the trace");
  // Median of consecutive step-begin differences: robust against the few
  // steps inflated by a passing idle wave.
  std::vector<double> diffs;
  diffs.reserve(static_cast<std::size_t>(to_step - from_step));
  for (int s = from_step; s < to_step; ++s)
    diffs.push_back(static_cast<double>(
        (marks[static_cast<std::size_t>(s + 1)] -
         marks[static_cast<std::size_t>(s)])
            .ns()));
  return Duration{static_cast<std::int64_t>(median(diffs) + 0.5)};
}

SimTime injection_begin(const mpi::Trace& trace, int rank) {
  for (const auto& seg : trace.segments(rank))
    if (seg.kind == mpi::SegKind::injected) return seg.begin;
  return SimTime::zero();
}

ClusterConfig cluster_for_ring(const workload::RingSpec& ring, bool ppn1,
                               int per_socket) {
  ClusterConfig config;
  config.topo = ppn1 ? net::TopologySpec::one_rank_per_node(ring.ranks)
                     : net::TopologySpec::packed(ring.ranks, per_socket);
  return config;
}

namespace {

/// Protocol the transport picks for `bytes` under `config` (static size
/// rule; the credit demotion is a per-run observable, eager_demotions).
mpi::WireProtocol protocol_for(const ClusterConfig& config,
                               std::int64_t bytes) {
  return config.transport.protocol_by_size(bytes,
                                           config.fabric.eager_limit_bytes);
}

/// Copies the per-run transport counters into the result: the demotion
/// observable (eager-sized sends pushed to rendezvous by exhausted credits)
/// plus the IW_METRIC_COLUMNS protocol counters.
void reduce_transport_stats(WaveResult& result, const Cluster& cluster) {
  const auto& s = cluster.transport_stats();
  result.eager_demotions = s.credit_stalls;
  result.nic_backlogged = s.nic_backlogged;
  result.deferred_pushes = s.deferred_pushes;
  result.unexpected_eager = s.unexpected_eager;
  result.unexpected_rts = s.unexpected_rts;
}

WaveResult run_grid_experiment(Cluster& cluster, const WaveExperiment& exp) {
  const workload::Grid2DSpec& grid = *exp.grid;
  const auto programs = workload::build_grid2d(grid, exp.delays);

  WaveResult result{cluster.run(programs, exp.injected_noise),
                    {}, {}, protocol_for(exp.cluster, grid.msg_bytes),
                    Duration::zero(), 0.0, SimTime::zero(),
                    cluster.events_processed(),
                    cluster.peak_events_pending()};
  reduce_transport_stats(result, cluster);
  if (exp.delays.empty()) return result;

  const int inj_rank = exp.delays.front().rank;
  result.injection_time = injection_begin(result.trace, inj_rank);
  const auto [x0, y0] = workload::grid_coords(grid, inj_rank);

  WaveProbe probe;
  probe.injection_rank = inj_rank;
  probe.injection_time = result.injection_time;
  probe.min_idle = exp.min_idle;
  // Ranks are row-major, so hop-walking ±1 traverses the injection row.
  // The probes never wrap (rank±1 modulo np would jump rows on a torus),
  // so they always run under the open-boundary rule, clamped to the row —
  // and on a torus additionally to half the row, before the branches meet.
  probe.boundary = workload::Boundary::open;
  const int wrap_limit =
      grid.boundary == workload::Boundary::periodic
          ? std::max(1, grid.px / 2 - 1)
          : grid.px;

  probe.direction = +1;
  probe.max_hops = std::min(wrap_limit, grid.px - 1 - x0);
  if (probe.max_hops > 0) result.up = analyze_wave(result.trace, probe);
  probe.direction = -1;
  probe.max_hops = std::min(wrap_limit, x0);
  if (probe.max_hops > 0) result.down = analyze_wave(result.trace, probe);

  // Steady-state cycle from the corner rank farthest (Manhattan) from the
  // injection; like the ring path, median over the post-transient steps.
  const int corners[] = {0, grid.ranks() - 1,
                         workload::grid_rank(grid, grid.px - 1, 0),
                         workload::grid_rank(grid, 0, grid.py - 1)};
  int far_rank = 0, far_dist = -1;
  for (const int c : corners) {
    const int dist = workload::grid_distance(grid, inj_rank, c);
    if (dist > far_dist) {
      far_dist = dist;
      far_rank = c;
    }
  }
  if (grid.steps >= 4)
    result.measured_cycle =
        measured_cycle(result.trace, far_rank, 1, grid.steps - 1);

  // Eq. 2 per hop: 4-neighbor halo exchange behaves like the bidirectional
  // d = 1 mode along each grid axis.
  if (result.measured_cycle.ns() > 0)
    result.predicted_speed =
        static_cast<double>(sigma_factor(workload::Direction::bidirectional,
                                         result.protocol,
                                         exp.cluster.transport)) /
        result.measured_cycle.sec();
  return result;
}

/// Runs the ring either through the fast-forward path (when requested and
/// eligible) or the full event simulation; fills the ffwd counters.
mpi::Trace run_ring_trace(Cluster& cluster, FfwdReference& reference,
                          const WaveExperiment& exp,
                          std::uint64_t& ffwd_skips,
                          Duration& ffwd_time_skipped) {
  if (exp.ffwd != FfwdMode::off) {
    const FastForwardPlan plan = plan_fast_forward(exp);
    IW_REQUIRE(exp.ffwd != FfwdMode::force || plan.eligible,
               "ffwd=force but the experiment is ineligible: " + plan.reason);
    // auto mode additionally requires a real silent region — fast-
    // forwarding an all-active machine is pure overhead.
    if (plan.eligible &&
        (exp.ffwd == FfwdMode::force ||
         plan.active.size() < static_cast<std::size_t>(exp.ring.ranks))) {
      FastForwardResult ff =
          run_ring_fast_forward(cluster, exp, plan, reference);
      ffwd_skips = ff.skips;
      ffwd_time_skipped = ff.time_skipped;
      return std::move(ff.trace);
    }
  }
  return cluster.run(workload::build_ring(exp.ring, exp.delays),
                     exp.injected_noise);
}

WaveResult run_ring_experiment(Cluster& cluster, FfwdReference& reference,
                               const WaveExperiment& exp) {
  std::uint64_t ffwd_skips = 0;
  Duration ffwd_time_skipped;
  WaveResult result{run_ring_trace(cluster, reference, exp, ffwd_skips,
                                   ffwd_time_skipped),
                    {}, {}, mpi::WireProtocol::eager, Duration::zero(), 0.0,
                    SimTime::zero(), cluster.events_processed(),
                    cluster.peak_events_pending()};
  result.ffwd_skips = ffwd_skips;
  result.ffwd_time_skipped = ffwd_time_skipped;
  reduce_transport_stats(result, cluster);

  result.protocol = protocol_for(exp.cluster, exp.ring.msg_bytes);

  if (exp.delays.empty()) return result;

  const int inj_rank = exp.delays.front().rank;
  result.injection_time = injection_begin(result.trace, inj_rank);

  WaveProbe probe;
  probe.injection_rank = inj_rank;
  probe.injection_time = result.injection_time;
  probe.min_idle = exp.min_idle;
  probe.boundary = exp.ring.boundary;

  // A wave moving in *both* directions exists for bidirectional
  // communication and for rendezvous (where the sender toward the delayed
  // rank blocks too). On a periodic ring the probes must stop before the
  // meeting point (both-ways) or before wrapping into the probed region
  // (one-way), otherwise the front fit mixes the two branches.
  const bool both_ways =
      exp.ring.direction == workload::Direction::bidirectional ||
      result.protocol == mpi::WireProtocol::rendezvous;
  const int n = exp.ring.ranks;
  if (exp.ring.boundary == workload::Boundary::periodic)
    probe.max_hops = both_ways ? std::max(1, n / 2 - 1) : n - 1;

  probe.direction = +1;
  result.up = analyze_wave(result.trace, probe);
  if (both_ways || exp.ring.boundary == workload::Boundary::open) {
    probe.direction = -1;
    result.down = analyze_wave(result.trace, probe);
  }

  // Steady-state cycle: median step length on the rank farthest from the
  // injection, over all steps past the start-up transient. The median is
  // robust against the handful of steps the wave inflates.
  const int far_rank =
      (inj_rank + exp.ring.ranks / 2) % exp.ring.ranks;
  if (exp.ring.steps >= 4)
    result.measured_cycle =
        measured_cycle(result.trace, far_rank, 1, exp.ring.steps - 1);

  if (result.measured_cycle.ns() > 0) {
    const int sigma = sigma_factor(exp.ring.direction, result.protocol,
                                   exp.cluster.transport);
    result.predicted_speed =
        static_cast<double>(sigma) *
        static_cast<double>(exp.ring.distance) / result.measured_cycle.sec();
  }
  return result;
}

WaveResult run_on(Cluster& cluster, FfwdReference& reference,
                  const WaveExperiment& exp) {
  return exp.grid ? run_grid_experiment(cluster, exp)
                  : run_ring_experiment(cluster, reference, exp);
}

}  // namespace

WaveResult run_wave_experiment(const WaveExperiment& exp) {
  Cluster cluster(exp.cluster);
  FfwdReference reference;
  return run_on(cluster, reference, exp);
}

WaveResult WaveRunner::run(const WaveExperiment& exp) {
  if (cluster_ == nullptr) {
    cluster_ = std::make_unique<Cluster>(exp.cluster);
  } else {
    cluster_->reset(exp.cluster);
  }
  return run_on(*cluster_, ffwd_reference_, exp);
}

}  // namespace iw::core
