// Property: one WaveRunner recycling its Cluster through a random sequence
// of differing experiments gives every experiment exactly the result a
// fresh Cluster gives it. Sweep workers and the daemon run every point
// this way, so whatever Cluster::reset(), Transport::reconfigure() and
// Process::reset() fail to clear would leak from one point into the next.
// Each of 20 seeded sequences mixes ring and 2-D grid experiments that
// differ in rank count, message size (eager and rendezvous), noise,
// boundary, direction, placement, and on some draws a credit window, a
// finite NIC or a one-sided rendezvous flavor, all with fast-forward off.
// Traces, step marks, engine counters and transport stats must be
// identical. A second property alternates machine-scale fast-forward points
// of the scale_wave shape with smaller full and fast-forward points: the
// transport gives a rank its state on the first touch and reset() clears
// the states the run claimed, so a claim that escaped the clear would leak
// into the next run that reuses the pooled state. The pool rebinds states
// to other ranks run after run, so the sequences must regrow past a size
// they shrank from, a dedicated test runs 2048, 8, then 2048 ranks on one
// cluster, and another counts the states a 102,400-rank fast-forward point
// claims against the ranks it can touch. Every such run drains its queues,
// so a last test recycles the cluster of a run that stopped with work in
// flight.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

#include "core/cluster.hpp"
#include "core/experiment.hpp"
#include "core/fast_forward.hpp"
#include "../core/expect_same_wave.hpp"
#include "mpi/program.hpp"
#include "mpi/trace.hpp"
#include "net/topology.hpp"
#include "noise/system_profiles.hpp"
#include "obs/metrics.hpp"
#include "support/rng.hpp"
#include "sweep/scenario.hpp"
#include "sweep/spec.hpp"
#include "workload/delay.hpp"
#include "workload/grid2d.hpp"
#include "workload/ring.hpp"

namespace iw::core {
namespace {

int pick(Rng& rng, int lo, int hi) {  ///< uniform in [lo, hi]
  return lo + static_cast<int>(
                  rng.uniform_below(static_cast<std::uint64_t>(hi - lo + 1)));
}

bool chance(Rng& rng, double p) { return rng.uniform() < p; }

WaveExperiment draw_experiment(Rng& rng) {
  // Eager sizes sit below the 128 KiB limit, rendezvous sizes above it.
  constexpr std::int64_t kSizes[] = {1024, 8192, 65536, 262144, 1048576};
  const std::int64_t bytes = kSizes[pick(rng, 0, 4)];
  const int steps = pick(rng, 6, 12);
  const Duration texec = milliseconds(1.0);
  const auto boundary = chance(rng, 0.5) ? workload::Boundary::open
                                         : workload::Boundary::periodic;

  WaveExperiment exp;
  int inj_rank = 0;
  if (chance(rng, 0.25)) {
    workload::Grid2DSpec grid;
    grid.px = pick(rng, 3, 5);
    grid.py = pick(rng, 3, 5);
    grid.boundary = boundary;
    grid.msg_bytes = bytes;
    grid.steps = steps;
    grid.texec = texec;
    exp.cluster.topo = net::TopologySpec::one_rank_per_node(grid.ranks());
    inj_rank = workload::grid_rank(grid, grid.px / 2, grid.py / 2);
    exp.grid = grid;
  } else {
    workload::RingSpec ring;
    ring.ranks = pick(rng, 6, 24);
    ring.direction = chance(rng, 0.5) ? workload::Direction::unidirectional
                                      : workload::Direction::bidirectional;
    ring.boundary = boundary;
    ring.msg_bytes = bytes;
    ring.steps = steps;
    ring.texec = texec;
    const bool ppn1 = chance(rng, 0.7);
    exp.cluster = cluster_for_ring(ring, ppn1, pick(rng, 2, 10));
    inj_rank = pick(rng, 0, ring.ranks - 1);
    exp.ring = ring;
  }
  exp.cluster.seed = rng.next_u64();
  if (chance(rng, 0.2))
    exp.cluster.transport.eager.credit_window = pick(rng, 1, 3);
  if (chance(rng, 0.2))
    exp.cluster.transport.nic.injection_depth = pick(rng, 1, 3);
  if (chance(rng, 0.2))
    exp.cluster.transport.rendezvous.flavor =
        chance(rng, 0.5) ? mpi::RendezvousFlavor::rdma_put
                         : mpi::RendezvousFlavor::rdma_get;
  if (chance(rng, 0.5))
    exp.injected_noise = noise::NoiseSpec::exponential(
        microseconds(static_cast<double>(pick(rng, 10, 200))));
  exp.delays = workload::single_delay(inj_rank, pick(rng, 1, steps / 2),
                                      milliseconds(pick(rng, 2, 12)));
  exp.min_idle = milliseconds(0.2);
  return exp;
}

void expect_same_trace(const mpi::Trace& a, const mpi::Trace& b,
                       const std::string& where) {
  ASSERT_EQ(a.ranks(), b.ranks()) << where;
  for (int r = 0; r < a.ranks(); ++r) {
    const auto sa = a.segments(r);
    const auto sb = b.segments(r);
    ASSERT_EQ(sa.size(), sb.size()) << where << " rank " << r;
    for (std::size_t i = 0; i < sa.size(); ++i)
      EXPECT_TRUE(sa[i] == sb[i])
          << where << " rank " << r << " segment " << i;
    const auto ma = a.step_begin(r);
    const auto mb = b.step_begin(r);
    EXPECT_TRUE(std::equal(ma.begin(), ma.end(), mb.begin(), mb.end()))
        << where << " rank " << r << ": step marks differ";
    EXPECT_EQ(a.finish(r), b.finish(r)) << where << " rank " << r;
  }
}

/// The run-level part of the metrics a cluster publishes: every counter
/// (engine and transport stats) and the gauges that describe the run, not
/// the pools' lifetime capacity, which a recycled cluster keeps by design.
void expect_same_metrics(const obs::MetricsSnapshot& a,
                         const obs::MetricsSnapshot& b,
                         const std::string& where) {
  for (std::size_t i = 0; i < obs::kMetricCount; ++i) {
    const auto id = static_cast<obs::MetricId>(i);
    if (obs::metric_kind(id) != obs::MetricKind::counter) continue;
    EXPECT_EQ(a.counter(id), b.counter(id))
        << where << " " << obs::metric_name(id);
  }
  for (const obs::MetricId id :
       {obs::MetricId::engine_calendar_peak,
        obs::MetricId::transport_credits_outstanding,
        obs::MetricId::pool_rdv_in_flight, obs::MetricId::pool_nic_backlog_depth,
        obs::MetricId::pool_nic_inflight,
        obs::MetricId::pool_rank_states})
    EXPECT_EQ(a.gauge(id), b.gauge(id)) << where << " " << obs::metric_name(id);
}

/// Runs `exp` on the recycled `runner` and on a fresh cluster and requires
/// identical traces, marks, counters, transport stats and every other
/// WaveResult field.
WaveResult expect_matches_fresh(WaveRunner& runner, WaveExperiment exp,
                                const std::string& where) {
  obs::MetricsRegistry reused_metrics;
  obs::MetricsRegistry fresh_metrics;
  exp.cluster.metrics = &reused_metrics;
  WaveResult reused = runner.run(exp);
  exp.cluster.metrics = &fresh_metrics;
  const WaveResult fresh = run_wave_experiment(exp);

  expect_same_trace(reused.trace, fresh.trace, where);
  EXPECT_TRUE(mpi::same_timelines(reused.trace, fresh.trace)) << where;
  expect_same_metrics(reused_metrics.snapshot(), fresh_metrics.snapshot(),
                      where);
  expect_same_analysis(reused.up, fresh.up, where + " up");
  expect_same_analysis(reused.down, fresh.down, where + " down");
  EXPECT_EQ(reused.predicted_speed, fresh.predicted_speed) << where;
  EXPECT_EQ(reused.protocol, fresh.protocol) << where;
  EXPECT_EQ(reused.events_processed, fresh.events_processed) << where;
  EXPECT_EQ(reused.peak_events_pending, fresh.peak_events_pending) << where;
  EXPECT_EQ(reused.eager_demotions, fresh.eager_demotions) << where;
  EXPECT_EQ(reused.nic_backlogged, fresh.nic_backlogged) << where;
  EXPECT_EQ(reused.deferred_pushes, fresh.deferred_pushes) << where;
  EXPECT_EQ(reused.unexpected_eager, fresh.unexpected_eager) << where;
  EXPECT_EQ(reused.unexpected_rts, fresh.unexpected_rts) << where;
  EXPECT_EQ(reused.measured_cycle, fresh.measured_cycle) << where;
  EXPECT_EQ(reused.injection_time, fresh.injection_time) << where;
  EXPECT_EQ(reused.ffwd_skips, fresh.ffwd_skips) << where;
  EXPECT_EQ(reused.ffwd_time_skipped, fresh.ffwd_time_skipped) << where;
  return reused;
}

int ranks_of(const WaveExperiment& exp) {
  return exp.grid ? exp.grid->ranks() : exp.ring.ranks;
}

TEST(RecycledCluster, RandomSequencesMatchFreshClusters) {
  int experiments = 0;
  int rendezvous = 0;
  // Runs that grow past a size the sequence had shrunk from: the larger run
  // claims pooled states a smaller run used, and some it never touched.
  int regrowths = 0;
  for (std::uint64_t seq = 0; seq < 20; ++seq) {
    Rng rng(0xC1A57E5ull + seq);
    WaveRunner runner;  // one recycled Cluster per sequence
    const int length = pick(rng, 3, 6);
    int peak = 0;          // largest run so far
    bool shrunk = false;   // a run since the peak was smaller than it
    for (int i = 0; i < length; ++i) {
      const WaveExperiment exp = draw_experiment(rng);
      const std::string where =
          "sequence " + std::to_string(seq) + " experiment " +
          std::to_string(i);
      const WaveResult reused = expect_matches_fresh(runner, exp, where);
      const int ranks = ranks_of(exp);
      if (shrunk && ranks > peak) ++regrowths;
      if (ranks < peak) shrunk = true;
      if (ranks > peak) {
        peak = ranks;
        shrunk = false;
      }
      ++experiments;
      if (reused.protocol == mpi::WireProtocol::rendezvous) ++rendezvous;
      if (::testing::Test::HasFailure()) return;  // one report is enough
    }
  }
  // The draws must cover both protocols and regrowth after a shrink.
  EXPECT_GE(experiments, 60);
  EXPECT_GT(rendezvous, 0);
  EXPECT_LT(rendezvous, experiments);
  EXPECT_GT(regrowths, 0);
}

/// A ring of the scale_wave shape (2 ranks per socket, 8 nodes per leaf
/// switch: pattern period 32) with one delay, noise-free so fast-forward
/// is eligible. `np` must be a multiple of 32.
WaveExperiment scale_shape(Rng& rng, int np, int max_delay_rank,
                           FfwdMode ffwd) {
  WaveExperiment exp;
  exp.ring.ranks = np;
  exp.ring.direction = chance(rng, 0.7) ? workload::Direction::bidirectional
                                        : workload::Direction::unidirectional;
  exp.ring.boundary = chance(rng, 0.5) ? workload::Boundary::open
                                       : workload::Boundary::periodic;
  exp.ring.distance = pick(rng, 1, 2);
  exp.ring.msg_bytes = 8192;
  exp.ring.steps = pick(rng, 6, 12);
  exp.ring.texec = milliseconds(1.0);
  exp.cluster = cluster_for_ring(exp.ring, /*ppn1=*/false, 2);
  exp.cluster.topo.nodes_per_switch = 8;
  exp.cluster.seed = rng.next_u64();
  exp.delays = workload::single_delay(pick(rng, 0, max_delay_rank),
                                      pick(rng, 1, exp.ring.steps / 2),
                                      milliseconds(pick(rng, 2, 12)));
  exp.min_idle = milliseconds(0.2);
  exp.ffwd = ffwd;
  return exp;
}

// Each sequence alternates a >= 8192-rank fast-forward point with a smaller
// full point (64-512 ranks, which reuses the low rank states the big
// point's rim may have dirtied: its delays sit in the lowest 400 ranks, and
// open chains simulate both ends) or a smaller fast-forward point.
TEST(RecycledCluster, FastForwardPointsMatchFreshClusters) {
  int big_points = 0;
  int aliased = 0;
  int full_after_ffwd = 0;
  for (std::uint64_t seq = 0; seq < 6; ++seq) {
    Rng rng(0xFF3D5EEDull + seq);
    WaveRunner runner;
    for (int i = 0; i < 6; ++i) {
      const std::string where = "ffwd sequence " + std::to_string(seq) +
                                " experiment " + std::to_string(i);
      WaveExperiment exp;
      if (i % 2 == 0) {
        exp = scale_shape(rng, 32 * pick(rng, 256, 512), 400, FfwdMode::force);
        ++big_points;
      } else if (chance(rng, 0.7)) {
        exp = scale_shape(rng, 32 * pick(rng, 2, 16), 63, FfwdMode::off);
        ++full_after_ffwd;
      } else {
        exp = scale_shape(rng, 32 * pick(rng, 16, 64), 400, FfwdMode::force);
      }
      const WaveResult reused = expect_matches_fresh(runner, exp, where);
      if (exp.ffwd == FfwdMode::force) {
        EXPECT_GT(reused.ffwd_skips, 0u) << where;
        if (reused.trace.has_aliases()) ++aliased;
      }
      if (::testing::Test::HasFailure()) return;  // one report is enough
    }
  }
  // Every fast-forward point aliases its silent ranks onto shared rows.
  EXPECT_EQ(big_points, 18);
  EXPECT_EQ(aliased, 36 - full_after_ffwd);
  EXPECT_GE(full_after_ffwd, 9);
}

// Shrink, then grow back: the 2048-rank run is full, so reset() clears all
// of its 2048 rank states; the 8-rank run then claims and clears 8 of them,
// and the second 2048-rank run must find all 2048 pooled states clean (no
// NIC clocks or queue contents left by the first).
TEST(RecycledCluster, ShrinkThenGrowMatchesAFreshCluster) {
  const auto ring_of = [](int ranks, std::int64_t bytes) {
    WaveExperiment exp;
    exp.ring.ranks = ranks;
    exp.ring.direction = workload::Direction::bidirectional;
    exp.ring.boundary = workload::Boundary::periodic;
    exp.ring.msg_bytes = bytes;
    exp.ring.steps = 8;
    exp.ring.texec = milliseconds(1.0);
    exp.cluster = cluster_for_ring(exp.ring, /*ppn1=*/false, 4);
    exp.delays = workload::single_delay(ranks / 3, 2, milliseconds(5.0));
    exp.min_idle = milliseconds(0.2);
    return exp;
  };
  WaveRunner runner;
  (void)expect_matches_fresh(runner, ring_of(2048, 8192), "2048 ranks");
  (void)expect_matches_fresh(runner, ring_of(8, 262144), "8 ranks");
  (void)expect_matches_fresh(runner, ring_of(2048, 262144),
                             "2048 ranks again");
}

/// The scale_wave catalog point at `np` under `ffwd`.
WaveExperiment scale_wave_at(int np, FfwdMode ffwd) {
  const sweep::Scenario* scenario = sweep::find_scenario("scale_wave");
  if (scenario == nullptr) throw std::logic_error("scale_wave is missing");
  sweep::SweepSpec spec = scenario->spec;
  spec.np = {np};
  WaveExperiment exp = sweep::expand(spec).front().exp;
  exp.ffwd = ffwd;
  return exp;
}

// A runner keeps the last fast-forward reference ring and re-simulates it
// only when the reference inputs change. The 102,400- and 2048-rank
// scale_wave points share one reference (their seeds differ, which a
// noise-free reference ignores); each variant below changes one input the
// reference depends on, at an unchanged np_ref, so a comparison that missed
// that input would hand the variant a stale reference. Every point, in an
// order that revisits each reference, must equal a fresh runner's result.
TEST(RecycledCluster, FastForwardReferenceIsReusedOnlyForEqualInputs) {
  // The catalog's own points, each with the seed its index gives it.
  const std::vector<sweep::SweepPoint> catalog =
      sweep::expand(sweep::find_scenario("scale_wave")->spec);
  ASSERT_EQ(catalog.size(), 3u);
  WaveExperiment big = catalog[2].exp;
  WaveExperiment mid = catalog[1].exp;
  ASSERT_EQ(big.ring.ranks, 102400);
  ASSERT_EQ(mid.ring.ranks, 2048);
  big.ffwd = mid.ffwd = FfwdMode::force;
  ASSERT_NE(big.cluster.seed, mid.cluster.seed);
  WaveExperiment fabric_and_size = mid;
  fabric_and_size.cluster.fabric = net::FabricProfile::omnipath();
  fabric_and_size.ring.msg_bytes = 65536;
  WaveExperiment fabric = mid;
  fabric.cluster.fabric = net::FabricProfile::omnipath();
  WaveExperiment size = mid;
  size.ring.msg_bytes = 65536;
  WaveExperiment texec = mid;
  texec.ring.texec = milliseconds(2.0);
  WaveExperiment steps = mid;
  steps.ring.steps = 16;
  WaveExperiment direction = mid;
  direction.ring.direction =
      mid.ring.direction == workload::Direction::unidirectional
          ? workload::Direction::bidirectional
          : workload::Direction::unidirectional;
  // 4 ranks per socket under 4-node switches: the pattern period (and so
  // np_ref) stays 32, but more links are intra-socket.
  WaveExperiment placement = mid;
  placement.cluster.topo.ranks_per_socket = 4;
  placement.cluster.topo.nodes_per_switch = 4;
  ASSERT_EQ(placement.cluster.topo.pattern_period(),
            mid.cluster.topo.pattern_period());

  const std::pair<const char*, const WaveExperiment*> sequence[] = {
      {"102400 ranks", &big},       {"2048 ranks", &mid},
      {"fabric and size", &fabric_and_size},
      {"102400 ranks again", &big}, {"fabric", &fabric},
      {"2048 ranks again", &mid},   {"size", &size},
      {"texec", &texec},            {"steps", &steps},
      {"direction", &direction},    {"placement", &placement},
      {"102400 ranks last", &big}};
  WaveRunner runner;
  for (const auto& [where, exp] : sequence) {
    ASSERT_TRUE(plan_fast_forward(*exp).eligible) << where;
    const WaveResult reused = expect_matches_fresh(runner, *exp, where);
    EXPECT_GT(reused.ffwd_skips, 0u) << where;
    if (::testing::Test::HasFailure()) return;  // one report is enough
  }
}

/// Every rank a fast-forward run of `exp` can touch, ascending: the active
/// ranks, every peer their programs name, and both ends of every ghost
/// send. The ghost senders are the silent receive sources of active ranks,
/// and each replays its sends to all of its peers.
std::vector<int> fast_forward_touches(const WaveExperiment& exp,
                                      const FastForwardPlan& plan) {
  const auto is_active = [&plan](int r) {
    return std::binary_search(plan.active.begin(), plan.active.end(), r);
  };
  std::vector<int> ranks;
  for (const int a : plan.active) {
    ranks.push_back(a);
    const mpi::Program program =
        workload::build_ring_rank(exp.ring, a, exp.delays);
    for (const mpi::Op& op : program.body()) {
      if (const auto* send = std::get_if<mpi::OpIsend>(&op))
        ranks.push_back(send->peer);
      else if (const auto* recv = std::get_if<mpi::OpIrecv>(&op))
        ranks.push_back(recv->peer);
    }
    workload::for_each_peer(exp.ring, a, -1, [&](int ghost) {
      if (is_active(ghost)) return;
      ranks.push_back(ghost);
      workload::for_each_peer(exp.ring, ghost, +1,
                              [&](int dst) { ranks.push_back(dst); });
    });
  }
  std::sort(ranks.begin(), ranks.end());
  ranks.erase(std::unique(ranks.begin(), ranks.end()), ranks.end());
  return ranks;
}

// A fresh cluster running the 102,400-rank point claims a transport state
// for exactly the ranks the run can touch, a full 256-rank run after it
// claims 256, and alternating the two never grows the state pool past the
// larger of the two sets.
TEST(RecycledCluster, TransportClaimsOnlyTheRanksARunTouches) {
  const WaveExperiment big = scale_wave_at(102400, FfwdMode::force);
  const WaveExperiment small = scale_wave_at(256, FfwdMode::off);
  const FastForwardPlan plan = plan_fast_forward(big);
  ASSERT_TRUE(plan.eligible) << plan.reason;
  const std::size_t touched = fast_forward_touches(big, plan).size();
  ASSERT_GT(touched, plan.active.size());
  ASSERT_LT(touched, 1024u);
  const std::size_t pool = std::max<std::size_t>(touched, 256);

  Cluster cluster(big.cluster);
  FfwdReference reference;
  (void)run_ring_fast_forward(cluster, big, plan, reference);
  EXPECT_EQ(cluster.transport_pool_stats().rank_states, touched);
  EXPECT_EQ(cluster.transport_pool_stats().rank_state_capacity, touched);
  const auto small_programs = workload::build_ring(small.ring, small.delays);
  for (int round = 0; round < 3; ++round) {
    const std::string where = "round " + std::to_string(round);
    cluster.reset(small.cluster);
    EXPECT_EQ(cluster.transport_pool_stats().rank_states, 0u) << where;
    (void)cluster.run(small_programs);
    EXPECT_EQ(cluster.transport_pool_stats().rank_states, 256u) << where;
    EXPECT_EQ(cluster.transport_pool_stats().rank_state_capacity, pool)
        << where;
    cluster.reset(big.cluster);
    (void)run_ring_fast_forward(cluster, big, plan, reference);
    EXPECT_EQ(cluster.transport_pool_stats().rank_states, touched) << where;
    EXPECT_EQ(cluster.transport_pool_stats().rank_state_capacity, pool)
        << where;
  }
}

// A run that fails its deadlock check stops with a rendezvous record, a
// held push and a blocked receive in flight: rank 0 posts two 1 MiB sends,
// rank 1 receives them one window at a time, and deferred push holds the
// first payload for the second handshake. reset() must clear all of it.
TEST(RecycledCluster, ResetAfterADeadlockedRunMatchesAFreshCluster) {
  constexpr std::int64_t kMiB = std::int64_t{1} << 20;
  std::vector<mpi::Program> stuck(2);
  stuck[0].isend(1, kMiB, 0).isend(1, kMiB, 1).waitall();
  stuck[1].irecv(0, kMiB, 0).waitall().irecv(0, kMiB, 1).waitall();
  ClusterConfig stuck_config;
  stuck_config.topo = net::TopologySpec::one_rank_per_node(2);

  for (const std::int64_t bytes : {std::int64_t{1024}, kMiB}) {
    const std::string where = std::to_string(bytes) + " B ring";
    workload::RingSpec ring;
    ring.ranks = 8;
    ring.direction = workload::Direction::bidirectional;
    ring.boundary = workload::Boundary::periodic;
    ring.msg_bytes = bytes;
    ring.steps = 10;
    ring.texec = milliseconds(1.0);
    const auto programs = workload::build_ring(
        ring, workload::single_delay(3, 2, milliseconds(4.0)));
    ClusterConfig config = cluster_for_ring(ring);

    Cluster reused(stuck_config);
    EXPECT_THROW((void)reused.run(stuck), std::logic_error) << where;
    obs::MetricsRegistry reused_metrics;
    config.metrics = &reused_metrics;
    reused.reset(config);
    const mpi::Trace got = reused.run(programs);

    obs::MetricsRegistry fresh_metrics;
    config.metrics = &fresh_metrics;
    Cluster fresh(config);
    const mpi::Trace want = fresh.run(programs);

    expect_same_trace(got, want, where);
    expect_same_metrics(reused_metrics.snapshot(), fresh_metrics.snapshot(),
                        where);
    EXPECT_EQ(reused.events_processed(), fresh.events_processed()) << where;
    EXPECT_EQ(reused.peak_events_pending(), fresh.peak_events_pending())
        << where;
  }
}

}  // namespace
}  // namespace iw::core
