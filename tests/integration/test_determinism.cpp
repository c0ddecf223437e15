// Integration: bit-exact reproducibility — the foundation of every other
// measurement in this repository.
#include <gtest/gtest.h>

#include <cstdint>

#include "core/experiment.hpp"
#include "workload/delay.hpp"

namespace iw::core {
namespace {

WaveExperiment canonical_experiment(std::uint64_t seed) {
  workload::RingSpec ring;
  ring.ranks = 24;
  ring.direction = workload::Direction::bidirectional;
  ring.boundary = workload::Boundary::periodic;
  ring.msg_bytes = 16384;
  ring.steps = 15;
  ring.texec = milliseconds(2.0);

  WaveExperiment exp;
  exp.ring = ring;
  exp.cluster = cluster_for_ring(ring, false, 6);
  exp.cluster.system_noise = noise::NoiseSpec::system("emmy-smt-on");
  exp.cluster.seed = seed;
  exp.delays = workload::single_delay(3, 1, milliseconds(8.0));
  exp.injected_noise = noise::NoiseSpec::exponential(microseconds(100.0));
  return exp;
}

TEST(Determinism, SameSeedSameTraceBitExact) {
  const auto r1 = run_wave_experiment(canonical_experiment(12345));
  const auto r2 = run_wave_experiment(canonical_experiment(12345));
  EXPECT_TRUE(mpi::same_timelines(r1.trace, r2.trace));
  EXPECT_EQ(r1.trace.makespan(), r2.trace.makespan());
  EXPECT_DOUBLE_EQ(r1.up.speed_ranks_per_sec, r2.up.speed_ranks_per_sec);
}

TEST(Determinism, DifferentSeedsDiverge) {
  const auto r1 = run_wave_experiment(canonical_experiment(1));
  const auto r2 = run_wave_experiment(canonical_experiment(2));
  EXPECT_FALSE(mpi::same_timelines(r1.trace, r2.trace));
}

TEST(Determinism, SilentSystemIsSeedInvariant) {
  // Without any noise source the seed must not matter at all.
  auto exp1 = canonical_experiment(1);
  exp1.cluster.system_noise = noise::NoiseSpec::none();
  exp1.injected_noise = noise::NoiseSpec::none();
  auto exp2 = exp1;
  exp2.cluster.seed = 999;
  const auto r1 = run_wave_experiment(exp1);
  const auto r2 = run_wave_experiment(exp2);
  EXPECT_TRUE(mpi::same_timelines(r1.trace, r2.trace));
}

TEST(Determinism, TraceInvariantsHold) {
  // Segments per rank are time-ordered and non-overlapping; waits and
  // computes alternate sensibly; finish matches the last segment end.
  const auto result = run_wave_experiment(canonical_experiment(77));
  for (int r = 0; r < result.trace.ranks(); ++r) {
    const auto& segs = result.trace.segments(r);
    ASSERT_FALSE(segs.empty());
    for (std::size_t i = 1; i < segs.size(); ++i) {
      EXPECT_GE(segs[i].begin, segs[i - 1].end)
          << "overlapping segments on rank " << r;
    }
    EXPECT_EQ(result.trace.finish(r), segs.back().end);
  }
}

TEST(Determinism, WallClockConservation) {
  // For every rank: compute + injected + wait == finish time (no gaps in a
  // bulk-synchronous program that starts at t=0 and has no holes).
  const auto result = run_wave_experiment(canonical_experiment(31));
  for (int r = 0; r < result.trace.ranks(); ++r) {
    const Duration busy =
        result.trace.total(r, mpi::SegKind::compute) +
        result.trace.total(r, mpi::SegKind::injected) +
        result.trace.total(r, mpi::SegKind::wait);
    const Duration elapsed = result.trace.finish(r) - SimTime::zero();
    // Posting overheads are zero-cost ops, so the only non-traced time is
    // sub-microsecond scheduling slack.
    EXPECT_NEAR(busy.ms(), elapsed.ms(), 0.01) << "rank " << r;
  }
}

}  // namespace
}  // namespace iw::core
