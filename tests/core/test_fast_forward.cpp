// Fast-forward engine: eligibility gating, byte-identity against the full
// event simulation across workload variants, and the accounting counters.
//
// The identity checks are the load-bearing part: fast-forward is only
// admissible because its trace is *indistinguishable* from the full run's
// wherever they overlap, so every variant compares segment-for-segment.
// The sanitizer-matrix CI legs run exactly this suite (ctest -R
// fast_forward) to certify the synthesis under ASan and TSan too.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.hpp"
#include "core/fast_forward.hpp"
#include "expect_same_wave.hpp"
#include "obs/metrics.hpp"
#include "workload/delay.hpp"

namespace iw::core {
namespace {

WaveExperiment ring_experiment(int np, workload::Direction direction,
                               workload::Boundary boundary, int distance) {
  WaveExperiment exp;
  exp.ring.ranks = np;
  exp.ring.direction = direction;
  exp.ring.boundary = boundary;
  exp.ring.distance = distance;
  exp.ring.msg_bytes = 8192;
  exp.ring.steps = 12;
  exp.cluster = cluster_for_ring(exp.ring);
  exp.cluster.system_noise = noise::NoiseSpec::none();
  exp.delays = workload::single_delay(np / 3, 1, milliseconds(10.0));
  return exp;
}

/// mpi::same_timelines, pointing at the first difference: segments (noise
/// included), step marks and finish times. Slab layout is allowed to differ
/// (silent rows alias shared canonical storage).
void expect_traces_identical(const mpi::Trace& a, const mpi::Trace& b) {
  ASSERT_EQ(a.ranks(), b.ranks());
  for (int r = 0; r < a.ranks(); ++r) {
    const auto sa = a.segments(r);
    const auto sb = b.segments(r);
    ASSERT_EQ(sa.size(), sb.size()) << "segment count, rank " << r;
    for (std::size_t i = 0; i < sa.size(); ++i)
      ASSERT_TRUE(sa[i] == sb[i]) << "rank " << r << " segment " << i;
    const auto ta = a.step_begin(r);
    const auto tb = b.step_begin(r);
    ASSERT_TRUE(std::equal(ta.begin(), ta.end(), tb.begin(), tb.end()))
        << "step marks, rank " << r;
    ASSERT_EQ(a.finish(r), b.finish(r)) << "finish, rank " << r;
  }
}

void expect_ffwd_matches_full(WaveExperiment exp) {
  exp.ffwd = FfwdMode::off;
  const WaveResult full = run_wave_experiment(exp);
  exp.ffwd = FfwdMode::force;
  const WaveResult fast = run_wave_experiment(exp);
  expect_traces_identical(full.trace, fast.trace);
  // The wave observables derive from the trace, so they must agree exactly.
  EXPECT_EQ(full.up.survival_hops, fast.up.survival_hops);
  EXPECT_EQ(full.down.survival_hops, fast.down.survival_hops);
  EXPECT_DOUBLE_EQ(full.up.speed_ranks_per_sec, fast.up.speed_ranks_per_sec);
  EXPECT_EQ(full.measured_cycle, fast.measured_cycle);
  // Accounting: the full path never skips; the fast path must have.
  EXPECT_EQ(full.ffwd_skips, 0u);
  EXPECT_GT(fast.ffwd_skips, 0u);
  EXPECT_GT(fast.ffwd_time_skipped.ns(), 0);
  EXPECT_LT(fast.events_processed, full.events_processed);
}

// The byte-identity configurations: open and periodic rings, distance 2,
// and a hierarchical topology under both boundaries.
WaveExperiment open_unidirectional() {
  return ring_experiment(64, workload::Direction::unidirectional,
                         workload::Boundary::open, 1);
}

WaveExperiment open_bidirectional_distance2() {
  return ring_experiment(96, workload::Direction::bidirectional,
                         workload::Boundary::open, 2);
}

WaveExperiment periodic_bidirectional() {
  return ring_experiment(72, workload::Direction::bidirectional,
                         workload::Boundary::periodic, 1);
}

WaveExperiment hierarchical_open() {
  // Packed sockets behind a leaf-switch tier: pattern period
  // 2 x 2 x 8 = 32 ranks, exercised by the residue synthesis.
  WaveExperiment exp = ring_experiment(
      128, workload::Direction::unidirectional, workload::Boundary::open, 1);
  exp.cluster = cluster_for_ring(exp.ring, /*ppn1=*/false, /*per_socket=*/2);
  exp.cluster.system_noise = noise::NoiseSpec::none();
  exp.cluster.topo.nodes_per_switch = 8;
  return exp;
}

WaveExperiment hierarchical_periodic() {
  // Periodic eligibility demands np divisible by the period (here 32).
  WaveExperiment exp = ring_experiment(
      96, workload::Direction::bidirectional, workload::Boundary::periodic, 1);
  exp.cluster = cluster_for_ring(exp.ring, /*ppn1=*/false, /*per_socket=*/2);
  exp.cluster.system_noise = noise::NoiseSpec::none();
  exp.cluster.topo.nodes_per_switch = 8;
  return exp;
}

TEST(FastForward, ByteIdentityOpenUnidirectional) {
  expect_ffwd_matches_full(open_unidirectional());
}

TEST(FastForward, ByteIdentityOpenBidirectionalDistance2) {
  expect_ffwd_matches_full(open_bidirectional_distance2());
}

TEST(FastForward, ByteIdentityPeriodicBidirectional) {
  expect_ffwd_matches_full(periodic_bidirectional());
}

TEST(FastForward, ByteIdentityHierarchicalTopology) {
  expect_ffwd_matches_full(hierarchical_open());
}

TEST(FastForward, ByteIdentityPeriodicHierarchical) {
  expect_ffwd_matches_full(hierarchical_periodic());
}

// The fast-forward trace aliases its silent ranks onto shared rows, which
// analyze_wave() scans once per row; the full run's trace has a private row
// per rank. Both analyses must agree field by field.
TEST(FastForward, AnalysisMatchesFullSimulation) {
  const std::pair<std::string, WaveExperiment> cases[] = {
      {"open unidirectional", open_unidirectional()},
      {"open bidirectional d=2", open_bidirectional_distance2()},
      {"periodic bidirectional", periodic_bidirectional()},
      {"hierarchical open", hierarchical_open()},
      {"hierarchical periodic", hierarchical_periodic()}};
  for (auto [name, exp] : cases) {
    exp.ffwd = FfwdMode::off;
    const WaveResult full = run_wave_experiment(exp);
    exp.ffwd = FfwdMode::force;
    const WaveResult fast = run_wave_experiment(exp);
    ASSERT_TRUE(fast.trace.has_aliases()) << name;
    ASSERT_FALSE(full.up.front.empty()) << name;
    expect_same_analysis(full.up, fast.up, name + " up");
    expect_same_analysis(full.down, fast.down, name + " down");
  }
}

TEST(FastForward, SkipAccountingMatchesPlan) {
  const WaveExperiment exp = ring_experiment(
      80, workload::Direction::unidirectional, workload::Boundary::open, 1);
  const FastForwardPlan plan = plan_fast_forward(exp);
  ASSERT_TRUE(plan.eligible) << plan.reason;
  ASSERT_LT(plan.active.size(), static_cast<std::size_t>(80));
  WaveExperiment forced = exp;
  forced.ffwd = FfwdMode::force;
  const WaveResult result = run_wave_experiment(forced);
  const std::uint64_t silent = 80 - plan.active.size();
  EXPECT_EQ(result.ffwd_skips,
            silent * static_cast<std::uint64_t>(exp.ring.steps));
}

TEST(FastForward, PublishesMetrics) {
  WaveExperiment exp = ring_experiment(
      64, workload::Direction::unidirectional, workload::Boundary::open, 1);
  exp.ffwd = FfwdMode::force;
  obs::MetricsRegistry metrics;
  exp.cluster.metrics = &metrics;
  const WaveResult result = run_wave_experiment(exp);
  EXPECT_EQ(metrics.counter(obs::MetricId::engine_ffwd_skips),
            result.ffwd_skips);
  EXPECT_EQ(metrics.counter(obs::MetricId::engine_ffwd_time_skipped),
            static_cast<std::uint64_t>(result.ffwd_time_skipped.ns() / 1000));
  EXPECT_GT(metrics.gauge(obs::MetricId::mem_peak_bytes_per_rank), 0.0);
}

TEST(FastForward, IneligibleReasonsAndForceThrows) {
  // Injected noise randomizes every rank — nothing is silent.
  WaveExperiment noisy = ring_experiment(
      64, workload::Direction::unidirectional, workload::Boundary::open, 1);
  noisy.injected_noise = noise::NoiseSpec::exponential(microseconds(50.0));
  EXPECT_FALSE(plan_fast_forward(noisy).eligible);
  noisy.ffwd = FfwdMode::force;
  EXPECT_THROW((void)run_wave_experiment(noisy), std::invalid_argument);

  // System noise, same story.
  WaveExperiment sys = ring_experiment(
      64, workload::Direction::unidirectional, workload::Boundary::open, 1);
  sys.cluster.system_noise = noise::NoiseSpec::system("emmy-smt-on");
  EXPECT_FALSE(plan_fast_forward(sys).eligible);

  // Finite NIC injection depth breaks the ideal-NIC ghost-send premise.
  WaveExperiment nic = ring_experiment(
      64, workload::Direction::unidirectional, workload::Boundary::open, 1);
  nic.cluster.transport.nic.injection_depth = 2;
  EXPECT_FALSE(plan_fast_forward(nic).eligible);

  // Rendezvous-sized messages have handshake state the synthesis skips.
  WaveExperiment rdv = ring_experiment(
      64, workload::Direction::unidirectional, workload::Boundary::open, 1);
  rdv.ring.msg_bytes = 262144;
  EXPECT_FALSE(plan_fast_forward(rdv).eligible);

  // Periodic rings need np divisible by the pattern period (2x2 packed
  // sockets: period 4; 42 % 4 != 0).
  WaveExperiment periodic = ring_experiment(
      42, workload::Direction::unidirectional, workload::Boundary::periodic,
      1);
  periodic.cluster = cluster_for_ring(periodic.ring, false, 2);
  periodic.cluster.system_noise = noise::NoiseSpec::none();
  EXPECT_FALSE(plan_fast_forward(periodic).eligible);

  // Every refusal must carry its reason.
  EXPECT_FALSE(plan_fast_forward(noisy).reason.empty());
  EXPECT_FALSE(plan_fast_forward(periodic).reason.empty());
}

TEST(FastForward, AutoFallsBackWhenNothingIsSilent) {
  // At np=12 with an open boundary the delay cone and both end cones cover
  // the whole chain: auto mode must fall back to the full simulation.
  WaveExperiment exp = ring_experiment(
      12, workload::Direction::unidirectional, workload::Boundary::open, 1);
  const FastForwardPlan plan = plan_fast_forward(exp);
  ASSERT_EQ(plan.active.size(), static_cast<std::size_t>(12));
  exp.ffwd = FfwdMode::auto_;
  const WaveResult result = run_wave_experiment(exp);
  EXPECT_EQ(result.ffwd_skips, 0u);
  EXPECT_GT(result.events_processed, 0u);
}

// The plan lists the union of the light cones, ascending and each rank
// once: cones that wrap a periodic ring, cones that overlap each other, and
// an open chain's end cones, against a per-rank marking of every cone.
TEST(FastForward, PlanListsTheUnionOfTheLightCones) {
  constexpr int kRanks = 96;
  constexpr int kRadius = 2 * (12 + 2);  // d * (steps + 2)
  for (const auto boundary :
       {workload::Boundary::open, workload::Boundary::periodic}) {
    for (const int first : {0, 3, 40, 77, 95}) {
      WaveExperiment exp = ring_experiment(
          kRanks, workload::Direction::bidirectional, boundary, 2);
      exp.delays = workload::single_delay(first, 1, milliseconds(10.0));
      exp.delays.push_back(workload::DelaySpec{(first + 30) % kRanks, 2,
                                               milliseconds(5.0)});
      const FastForwardPlan plan = plan_fast_forward(exp);
      ASSERT_TRUE(plan.eligible) << plan.reason;

      std::vector<bool> marked(kRanks, false);
      const auto mark = [&](int center) {
        for (int r = center - kRadius; r <= center + kRadius; ++r) {
          if (boundary == workload::Boundary::periodic)
            marked[static_cast<std::size_t>((r % kRanks + kRanks) % kRanks)] =
                true;
          else if (r >= 0 && r < kRanks)
            marked[static_cast<std::size_t>(r)] = true;
        }
      };
      for (const auto& d : exp.delays) mark(d.rank);
      if (boundary == workload::Boundary::open) {
        mark(0);
        mark(kRanks - 1);
      }
      std::vector<int> want;
      for (int r = 0; r < kRanks; ++r)
        if (marked[static_cast<std::size_t>(r)]) want.push_back(r);
      EXPECT_EQ(plan.active, want)
          << (boundary == workload::Boundary::open ? "open" : "periodic")
          << ", first delay at rank " << first;
    }
  }
}

TEST(FastForward, AutoFallsBackWhenIneligible) {
  WaveExperiment exp = ring_experiment(
      64, workload::Direction::unidirectional, workload::Boundary::open, 1);
  exp.cluster.system_noise = noise::NoiseSpec::system("emmy-smt-on");
  exp.ffwd = FfwdMode::auto_;
  const WaveResult result = run_wave_experiment(exp);
  EXPECT_EQ(result.ffwd_skips, 0u);
  EXPECT_GT(result.up.survival_hops, 0);
}

TEST(FastForward, ModeParsing) {
  EXPECT_EQ(ffwd_mode_from_string("off"), FfwdMode::off);
  EXPECT_EQ(ffwd_mode_from_string("auto"), FfwdMode::auto_);
  EXPECT_EQ(ffwd_mode_from_string("force"), FfwdMode::force);
  EXPECT_THROW((void)ffwd_mode_from_string("sometimes"),
               std::invalid_argument);
}

}  // namespace
}  // namespace iw::core
