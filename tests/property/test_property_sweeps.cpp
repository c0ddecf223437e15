// Property-based sweeps: invariants that must hold across wide parameter
// grids, exercised with TEST_P / INSTANTIATE_TEST_SUITE_P.
#include <gtest/gtest.h>

#include <tuple>
#include <sstream>

#include "core/experiment.hpp"
#include "memory/bandwidth_domain.hpp"
#include "support/rng.hpp"
#include "workload/delay.hpp"

namespace iw::core {
namespace {

// ---------------------------------------------------------------------------
// Property 1: makespan >= ideal lower bound, and excess <= injected delay
// (cancellation can only help, never hurt) across mode/size/delay grids.
// ---------------------------------------------------------------------------

using MakespanParams =
    std::tuple<workload::Direction, workload::Boundary, std::int64_t, double>;

class MakespanBounds : public ::testing::TestWithParam<MakespanParams> {};

TEST_P(MakespanBounds, ExcessBoundedByInjectedDelay) {
  const auto [dir, bnd, msg, delay_ms] = GetParam();

  workload::RingSpec ring;
  ring.ranks = 16;
  ring.direction = dir;
  ring.boundary = bnd;
  ring.msg_bytes = msg;
  ring.steps = 18;
  ring.texec = milliseconds(2.0);
  ring.noisy = false;

  WaveExperiment exp;
  exp.ring = ring;
  exp.cluster = cluster_for_ring(ring);
  exp.delays = workload::single_delay(4, 0, milliseconds(delay_ms));
  const auto result = run_wave_experiment(exp);

  const Duration makespan = result.trace.makespan() - SimTime::zero();
  const Duration compute_floor = ring.texec * ring.steps;
  // Lower bound: nobody finishes before their own compute.
  EXPECT_GE(makespan, compute_floor);
  // Upper bound: the delay is paid at most once, plus communication slack.
  EXPECT_LE(makespan.ms(),
            compute_floor.ms() + delay_ms + 0.3 * ring.steps + 2.0);
}

std::string makespan_case_name(
    const ::testing::TestParamInfo<MakespanParams>& param_info) {
  const workload::Direction dir = std::get<0>(param_info.param);
  const workload::Boundary bnd = std::get<1>(param_info.param);
  const std::int64_t msg = std::get<2>(param_info.param);
  const double delay = std::get<3>(param_info.param);
  std::ostringstream n;
  n << (dir == workload::Direction::unidirectional ? "uni" : "bidi")
    << (bnd == workload::Boundary::open ? "Open" : "Per")
    << (msg > 131072 ? "Rdv" : "Eager") << "D" << static_cast<int>(delay);
  return n.str();
}

INSTANTIATE_TEST_SUITE_P(
    Grid, MakespanBounds,
    ::testing::Combine(
        ::testing::Values(workload::Direction::unidirectional,
                          workload::Direction::bidirectional),
        ::testing::Values(workload::Boundary::open,
                          workload::Boundary::periodic),
        ::testing::Values(std::int64_t{8192}, std::int64_t{174080}),
        ::testing::Values(4.0, 10.0)),
    makespan_case_name);

// ---------------------------------------------------------------------------
// Property 2: total injected delay is conserved in the trace — the injected
// segments' durations equal the requested delays exactly, on every rank
// pattern.
// ---------------------------------------------------------------------------

class DelayConservation : public ::testing::TestWithParam<int> {};

TEST_P(DelayConservation, InjectedSegmentsMatchPlan) {
  const int delayed_ranks = GetParam();
  workload::RingSpec ring;
  ring.ranks = 12;
  ring.direction = workload::Direction::bidirectional;
  ring.boundary = workload::Boundary::periodic;
  ring.steps = 10;
  ring.texec = milliseconds(1.0);
  ring.noisy = false;

  std::vector<workload::DelaySpec> delays;
  for (int i = 0; i < delayed_ranks; ++i)
    delays.push_back({i * (12 / delayed_ranks), i % ring.steps,
                      milliseconds(1.0 + i)});

  WaveExperiment exp;
  exp.ring = ring;
  exp.cluster = cluster_for_ring(ring);
  exp.delays = delays;
  const auto result = run_wave_experiment(exp);

  Duration total_injected = Duration::zero();
  for (int r = 0; r < ring.ranks; ++r)
    total_injected += result.trace.total(r, mpi::SegKind::injected);
  Duration requested = Duration::zero();
  for (const auto& d : delays) requested += d.duration;
  EXPECT_EQ(total_injected, requested);
}

INSTANTIATE_TEST_SUITE_P(Counts, DelayConservation,
                         ::testing::Values(1, 2, 3, 4, 6));

// ---------------------------------------------------------------------------
// Property 3: bandwidth-domain work conservation across job-count sweeps —
// N equal jobs of B bytes on a domain of bandwidth W finish in exactly
// N*B/W when saturated, B/core_rate when not.
// ---------------------------------------------------------------------------

class DomainSharing : public ::testing::TestWithParam<int> {};

TEST_P(DomainSharing, EqualJobsFinishTogetherAtConservedTime) {
  const int jobs = GetParam();
  sim::Engine eng;
  const double W = 40e9, core = 5e9;
  memory::BandwidthDomain domain(eng, W, core);
  const std::int64_t bytes = 10'000'000;
  int finished = 0;
  for (int i = 0; i < jobs; ++i) domain.submit(bytes, [&] { ++finished; });
  eng.run();
  EXPECT_EQ(finished, jobs);

  const double per_job_rate = std::min(core, W / jobs);
  const double expect_s = static_cast<double>(bytes) / per_job_rate;
  EXPECT_NEAR(eng.now().sec(), expect_s, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(JobCounts, DomainSharing,
                         ::testing::Values(1, 2, 4, 8, 9, 10, 16, 20));

// ---------------------------------------------------------------------------
// Property 4: seed determinism across the mode grid — same seed, same
// makespan; and the RNG streams keep ranks decorrelated (different ranks
// see different noise).
// ---------------------------------------------------------------------------

using DeterminismParams = std::tuple<workload::Direction, std::int64_t>;

class SeedDeterminism : public ::testing::TestWithParam<DeterminismParams> {};

TEST_P(SeedDeterminism, MakespanReproducible) {
  const auto [dir, msg] = GetParam();
  auto build = [&, direction = dir, bytes = msg] {
    workload::RingSpec ring;
    ring.ranks = 10;
    ring.direction = direction;
    ring.msg_bytes = bytes;
    ring.steps = 8;
    ring.texec = milliseconds(1.0);
    WaveExperiment exp;
    exp.ring = ring;
    exp.cluster = cluster_for_ring(ring);
    exp.cluster.system_noise = noise::NoiseSpec::system("emmy-smt-on");
    exp.cluster.seed = 2718;
    exp.delays = workload::single_delay(2, 0, milliseconds(3.0));
    return run_wave_experiment(exp);
  };
  const auto a = build();
  const auto b = build();
  EXPECT_EQ(a.trace.makespan(), b.trace.makespan());
}

INSTANTIATE_TEST_SUITE_P(
    Modes, SeedDeterminism,
    ::testing::Combine(::testing::Values(workload::Direction::unidirectional,
                                         workload::Direction::bidirectional),
                       ::testing::Values(std::int64_t{8192},
                                         std::int64_t{174080})));

// ---------------------------------------------------------------------------
// Property 5: noise-model means are honored across distributions and
// magnitudes (the E parameter of the paper must be trustworthy).
// ---------------------------------------------------------------------------

class NoiseMeanFidelity
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(NoiseMeanFidelity, SampledMeanTracksConfiguredMean) {
  const auto [kind, mean_us] = GetParam();
  noise::NoiseSpec spec;
  switch (kind) {
    case 0: spec = noise::NoiseSpec::exponential(microseconds(mean_us)); break;
    case 1: spec = noise::NoiseSpec::gamma(4.0, microseconds(mean_us)); break;
    default:
      spec = noise::NoiseSpec::uniform(Duration::zero(),
                                       microseconds(2.0 * mean_us));
  }
  Rng rng(static_cast<std::uint64_t>(kind) * 1000 +
          static_cast<std::uint64_t>(mean_us));
  double acc = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) acc += spec.sample(rng).us();
  EXPECT_NEAR(acc / n / mean_us, 1.0, 0.05);
}

INSTANTIATE_TEST_SUITE_P(
    KindsAndMeans, NoiseMeanFidelity,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Values(10.0, 300.0, 600.0)));

// ---------------------------------------------------------------------------
// Property 6: wave speed scales linearly with distance d (eager mode), for
// several d on a fixed ring.
// ---------------------------------------------------------------------------

class DistanceScaling : public ::testing::TestWithParam<int> {};

TEST_P(DistanceScaling, SpeedProportionalToD) {
  const int d = GetParam();
  workload::RingSpec ring;
  ring.ranks = 30;
  ring.distance = d;
  ring.msg_bytes = 8192;
  ring.steps = 30;
  ring.texec = milliseconds(2.0);
  ring.noisy = false;

  WaveExperiment exp;
  exp.ring = ring;
  exp.cluster = cluster_for_ring(ring);
  exp.delays = workload::single_delay(4, 0, milliseconds(10.0));
  const auto result = run_wave_experiment(exp);

  ASSERT_GT(result.up.speed_ranks_per_sec, 0.0);
  const double hops_per_cycle =
      result.up.speed_ranks_per_sec * result.measured_cycle.sec();
  EXPECT_NEAR(hops_per_cycle, static_cast<double>(d), 0.1 * d);
}

INSTANTIATE_TEST_SUITE_P(Distances, DistanceScaling,
                         ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace iw::core
