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

/// What a ring and a grid differ in once their trace exists: the steps,
/// the probe axis and its hop limits, the rank whose step marks give the
/// cycle, and the Eq. 2 factors.
struct Geometry {
  int steps = 0;
  workload::Boundary probe_boundary = workload::Boundary::open;
  int up_hops = 0;  ///< probe hop limits; 0 = no probe
  int down_hops = 0;
  int far_rank = 0;
  workload::Direction direction = workload::Direction::bidirectional;
  int distance = 1;
};

/// A wave moving in *both* directions exists for bidirectional
/// communication and for rendezvous (where the sender toward the delayed
/// rank blocks too). On a periodic ring the probes must stop before the
/// meeting point (both-ways) or before wrapping into the probed region
/// (one-way), otherwise the front fit mixes the two branches. The cycle
/// comes from the rank half the ring away.
Geometry ring_geometry(const workload::RingSpec& ring,
                       mpi::WireProtocol protocol, int inj_rank) {
  const bool both_ways = ring.direction == workload::Direction::bidirectional ||
                         protocol == mpi::WireProtocol::rendezvous;
  const bool open = ring.boundary == workload::Boundary::open;
  const int n = ring.ranks;
  const int hops = !open && both_ways ? std::max(1, n / 2 - 1) : n - 1;
  return {.steps = ring.steps,
          .probe_boundary = ring.boundary,
          .up_hops = hops,
          .down_hops = both_ways || open ? hops : 0,
          .far_rank = (inj_rank + n / 2) % n,
          .direction = ring.direction,
          .distance = ring.distance};
}

/// Ranks are row-major, so hop-walking ±1 traverses the injection row. The
/// probes never wrap (rank±1 modulo np would jump rows on a torus), so they
/// run under the open-boundary rule, clamped to the row — and on a torus
/// additionally to half the row, before the branches meet. The cycle comes
/// from the corner farthest (Manhattan) from the injection. The 4-neighbor
/// exchange behaves like the bidirectional d = 1 ring along each axis.
Geometry grid_geometry(const workload::Grid2DSpec& grid, int inj_rank) {
  const int x0 = workload::grid_coords(grid, inj_rank).first;
  const int wrap_limit = grid.boundary == workload::Boundary::periodic
                             ? std::max(1, grid.px / 2 - 1)
                             : grid.px;
  Geometry g;
  g.steps = grid.steps;
  g.up_hops = std::min(wrap_limit, grid.px - 1 - x0);
  g.down_hops = std::min(wrap_limit, x0);
  const int corners[] = {0, grid.ranks() - 1,
                         workload::grid_rank(grid, grid.px - 1, 0),
                         workload::grid_rank(grid, 0, grid.py - 1)};
  int far_dist = -1;
  for (const int c : corners) {
    const int dist = workload::grid_distance(grid, inj_rank, c);
    if (dist > far_dist) {
      far_dist = dist;
      g.far_rank = c;
    }
  }
  return g;
}

/// The point's trace: a fast-forward run for a ring when requested and
/// eligible, the full event simulation (with zero skips) otherwise, and
/// always for the grid.
FastForwardResult run_trace(Cluster& cluster, FfwdReference& reference,
                            const WaveExperiment& exp) {
  if (!exp.grid && exp.ffwd != FfwdMode::off) {
    const FastForwardPlan plan = plan_fast_forward(exp);
    IW_REQUIRE(exp.ffwd != FfwdMode::force || plan.eligible,
               "ffwd=force but the experiment is ineligible: " + plan.reason);
    // auto mode additionally requires a real silent region — fast-
    // forwarding an all-active machine is pure overhead.
    if (plan.eligible &&
        (exp.ffwd == FfwdMode::force ||
         plan.active.size() < static_cast<std::size_t>(exp.ring.ranks)))
      return run_ring_fast_forward(cluster, exp, plan, reference);
  }
  return {cluster.run(exp.grid ? workload::build_grid2d(*exp.grid, exp.delays)
                               : workload::build_ring(exp.ring, exp.delays),
                      exp.injected_noise)};
}

}  // namespace

WaveResult run_wave_experiment(const WaveExperiment& exp) {
  return WaveRunner{}.run(exp);
}

WaveResult WaveRunner::run(const WaveExperiment& exp) {
  if (cluster_ == nullptr) {
    cluster_ = std::make_unique<Cluster>(exp.cluster);
  } else {
    cluster_->reset(exp.cluster);
  }
  FastForwardResult traced = run_trace(*cluster_, ffwd_reference_, exp);
  WaveResult result{.trace = std::move(traced.trace)};
  result.ffwd_skips = traced.skips;
  result.ffwd_time_skipped = traced.time_skipped;
  result.events_processed = cluster_->events_processed();
  result.peak_events_pending = cluster_->peak_events_pending();
  // The demotion observable (eager-sized sends pushed to rendezvous by
  // exhausted credits) plus the IW_METRIC_COLUMNS protocol counters.
  const auto& stats = cluster_->transport_stats();
  result.eager_demotions = stats.credit_stalls;
  result.nic_backlogged = stats.nic_backlogged;
  result.deferred_pushes = stats.deferred_pushes;
  result.unexpected_eager = stats.unexpected_eager;
  result.unexpected_rts = stats.unexpected_rts;
  // The static size rule; the credit demotion is the per-run observable.
  result.protocol = exp.cluster.transport.protocol_by_size(
      exp.grid ? exp.grid->msg_bytes : exp.ring.msg_bytes,
      exp.cluster.fabric.eager_limit_bytes);
  if (exp.delays.empty()) return result;

  const int inj_rank = exp.delays.front().rank;
  const Geometry g = exp.grid
                         ? grid_geometry(*exp.grid, inj_rank)
                         : ring_geometry(exp.ring, result.protocol, inj_rank);
  result.injection_time = injection_begin(result.trace, inj_rank);

  WaveProbe probe;
  probe.injection_rank = inj_rank;
  probe.injection_time = result.injection_time;
  probe.min_idle = exp.min_idle;
  probe.boundary = g.probe_boundary;
  probe.direction = +1;
  probe.max_hops = g.up_hops;
  if (g.up_hops > 0) result.up = analyze_wave(result.trace, probe);
  probe.direction = -1;
  probe.max_hops = g.down_hops;
  if (g.down_hops > 0) result.down = analyze_wave(result.trace, probe);

  // Steady-state cycle: median step length on the far rank over all steps
  // past the start-up transient. The median is robust against the handful
  // of steps the wave inflates.
  if (g.steps >= 4)
    result.measured_cycle =
        measured_cycle(result.trace, g.far_rank, 1, g.steps - 1);
  if (result.measured_cycle.ns() > 0)
    result.predicted_speed =
        static_cast<double>(sigma_factor(g.direction, result.protocol,
                                         exp.cluster.transport)) *
        static_cast<double>(g.distance) / result.measured_cycle.sec();
  return result;
}

}  // namespace iw::core
