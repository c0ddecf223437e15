// Tests for idle-period extraction and wave-front analysis on crafted traces.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "core/idle_wave.hpp"
#include "expect_same_wave.hpp"

namespace iw::core {
namespace {

mpi::Segment wait_seg(std::int64_t b_ms, std::int64_t e_ms) {
  return mpi::Segment{mpi::SegKind::wait, SimTime{b_ms * 1'000'000},
                      SimTime{e_ms * 1'000'000}, 0, Duration::zero()};
}

TEST(IdlePeriods, FiltersByMinimumDuration) {
  mpi::Trace trace(2);
  trace.add_segment(0, wait_seg(0, 5));
  trace.add_segment(0, wait_seg(10, 10));  // zero length (excluded)
  trace.add_segment(0, wait_seg(20, 21));  // 1 ms
  const auto all = idle_periods(trace, 0, Duration::zero());
  EXPECT_EQ(all.size(), 3u);
  const auto big = idle_periods(trace, 0, milliseconds(2.0));
  ASSERT_EQ(big.size(), 1u);
  EXPECT_EQ(big[0].duration(), milliseconds(5.0));
}

TEST(IdlePeriods, IgnoresNonWaitSegments) {
  mpi::Trace trace(1);
  trace.add_segment(0, mpi::Segment{mpi::SegKind::compute, SimTime{0},
                                    SimTime{1'000'000'000}, 0,
                                    Duration::zero()});
  trace.add_segment(0, mpi::Segment{mpi::SegKind::injected, SimTime{0},
                                    SimTime{1'000'000'000}, 0,
                                    Duration::zero()});
  EXPECT_TRUE(idle_periods(trace, 0, Duration::zero()).empty());
}

/// Builds a synthetic trace of a clean wave: injected at rank 2, arriving
/// at rank 2+k at time (10 + 4k) ms with amplitude (20 - 2k) ms.
mpi::Trace synthetic_wave(int ranks) {
  mpi::Trace trace(ranks);
  trace.add_segment(2, mpi::Segment{mpi::SegKind::injected,
                                    SimTime{10'000'000}, SimTime{30'000'000},
                                    0, Duration::zero()});
  for (int k = 1; 2 + k < ranks; ++k) {
    const std::int64_t begin = (10 + 4 * k) * 1'000'000;
    const std::int64_t dur = (20 - 2 * k) * 1'000'000;
    if (dur <= 0) break;
    trace.add_segment(2 + k,
                      mpi::Segment{mpi::SegKind::wait, SimTime{begin},
                                   SimTime{begin + dur}, 0, Duration::zero()});
  }
  return trace;
}

TEST(AnalyzeWave, RecoversSpeedAndDecayExactly) {
  const mpi::Trace trace = synthetic_wave(12);
  WaveProbe probe;
  probe.injection_rank = 2;
  probe.injection_time = SimTime{10'000'000};
  probe.min_idle = milliseconds(1.0);
  probe.direction = +1;
  const WaveAnalysis wave = analyze_wave(trace, probe);

  // Front: 4 ms per hop -> 250 ranks/s.
  EXPECT_NEAR(wave.speed_ranks_per_sec, 250.0, 1e-6);
  EXPECT_NEAR(wave.front_fit.r2, 1.0, 1e-12);
  // Amplitude: -2 ms per hop -> decay 2000 us/rank.
  EXPECT_NEAR(wave.decay_us_per_rank, 2000.0, 1e-6);
  // Amplitudes 18,16,...,2 ms: 9 ranks reached.
  EXPECT_EQ(wave.survival_hops, 9);
}

TEST(AnalyzeWave, MinIdleCutsShortPeriods) {
  const mpi::Trace trace = synthetic_wave(12);
  WaveProbe probe;
  probe.injection_rank = 2;
  probe.injection_time = SimTime{10'000'000};
  probe.min_idle = milliseconds(10.0);  // only amplitudes >= 10 ms count
  probe.direction = +1;
  const WaveAnalysis wave = analyze_wave(trace, probe);
  EXPECT_EQ(wave.survival_hops, 5);  // 18,16,14,12,10
}

TEST(AnalyzeWave, DirectionDownFindsNothingInUpwardWave) {
  const mpi::Trace trace = synthetic_wave(12);
  WaveProbe probe;
  probe.injection_rank = 2;
  probe.injection_time = SimTime{10'000'000};
  probe.min_idle = milliseconds(1.0);
  probe.direction = -1;
  const WaveAnalysis wave = analyze_wave(trace, probe);
  EXPECT_EQ(wave.survival_hops, 0);
  EXPECT_DOUBLE_EQ(wave.speed_ranks_per_sec, 0.0);
}

TEST(AnalyzeWave, MaxHopsLimitsProbe) {
  const mpi::Trace trace = synthetic_wave(12);
  WaveProbe probe;
  probe.injection_rank = 2;
  probe.injection_time = SimTime{10'000'000};
  probe.min_idle = milliseconds(1.0);
  probe.direction = +1;
  probe.max_hops = 3;
  const WaveAnalysis wave = analyze_wave(trace, probe);
  EXPECT_EQ(wave.hops_probed, 3);
  EXPECT_EQ(wave.survival_hops, 3);
}

// ---- fit edge cases: every degenerate trace must yield a well-defined
// "no fit" (zeros, valid=false), never NaN or garbage. ----

TEST(AnalyzeWave, WaveNeverReachesAnyRank) {
  mpi::Trace trace(8);  // nothing but silence
  WaveProbe probe;
  probe.injection_rank = 2;
  probe.injection_time = SimTime{10'000'000};
  probe.min_idle = milliseconds(1.0);
  const WaveAnalysis wave = analyze_wave(trace, probe);
  EXPECT_TRUE(wave.front.empty());
  EXPECT_EQ(wave.survival_hops, 0);
  EXPECT_FALSE(wave.front_valid);
  EXPECT_FALSE(wave.front_fit.valid);
  EXPECT_EQ(wave.front_fit.n, 0u);
  EXPECT_DOUBLE_EQ(wave.speed_ranks_per_sec, 0.0);
  EXPECT_DOUBLE_EQ(wave.decay_us_per_rank, 0.0);
  EXPECT_DOUBLE_EQ(wave.front_rmse_us, 0.0);
  EXPECT_DOUBLE_EQ(wave.amplitude_rmse_us, 0.0);
}

TEST(AnalyzeWave, SingleObservationFrontIsDegenerateNotGarbage) {
  // Only one rank ever idles: least squares on one point has no slope.
  mpi::Trace trace(8);
  trace.add_segment(3, wait_seg(20, 30));
  WaveProbe probe;
  probe.injection_rank = 2;
  probe.injection_time = SimTime{10'000'000};
  probe.min_idle = milliseconds(1.0);
  const WaveAnalysis wave = analyze_wave(trace, probe);
  EXPECT_EQ(wave.front.size(), 1u);
  EXPECT_EQ(wave.survival_hops, 1);
  EXPECT_EQ(wave.front_fit.n, 1u);
  EXPECT_FALSE(wave.front_fit.valid);
  EXPECT_FALSE(wave.front_valid);
  EXPECT_DOUBLE_EQ(wave.speed_ranks_per_sec, 0.0);
  EXPECT_DOUBLE_EQ(wave.decay_us_per_rank, 0.0);
  EXPECT_DOUBLE_EQ(wave.front_rmse_us, 0.0);
}

TEST(AnalyzeWave, PeriodicBoundaryHopsWrapAround) {
  // 6 ranks, injection at 4, upward probe: hops 1..5 visit 5,0,1,2,3.
  mpi::Trace trace(6);
  for (int k = 1; k <= 3; ++k)
    trace.add_segment((4 + k) % 6, wait_seg(10 + 4 * k, 18 + 4 * k));
  WaveProbe probe;
  probe.injection_rank = 4;
  probe.injection_time = SimTime{10'000'000};
  probe.min_idle = milliseconds(1.0);
  probe.boundary = workload::Boundary::periodic;
  const WaveAnalysis wave = analyze_wave(trace, probe);
  EXPECT_EQ(wave.hops_probed, 5);  // once around minus one
  ASSERT_EQ(wave.front.size(), 3u);
  EXPECT_EQ(wave.front[0].rank, 5);
  EXPECT_EQ(wave.front[0].hops, 1);
  EXPECT_EQ(wave.front[1].rank, 0);  // wrapped, and reached
  EXPECT_EQ(wave.front[1].hops, 2);
  EXPECT_EQ(wave.front[2].rank, 1);
  EXPECT_EQ(wave.front[2].hops, 3);
  EXPECT_EQ(wave.survival_hops, 3);
  EXPECT_TRUE(wave.front_valid);
  EXPECT_NEAR(wave.speed_ranks_per_sec, 250.0, 1e-6);  // 4 ms per hop
}

TEST(AnalyzeWave, AllWaitsBelowMinIdleYieldNoFit) {
  const mpi::Trace trace = synthetic_wave(12);  // amplitudes 18..2 ms
  WaveProbe probe;
  probe.injection_rank = 2;
  probe.injection_time = SimTime{10'000'000};
  probe.min_idle = milliseconds(25.0);  // above every amplitude
  const WaveAnalysis wave = analyze_wave(trace, probe);
  EXPECT_TRUE(wave.front.empty());
  EXPECT_EQ(wave.survival_hops, 0);
  EXPECT_FALSE(wave.front_valid);
  EXPECT_DOUBLE_EQ(wave.speed_ranks_per_sec, 0.0);
  EXPECT_DOUBLE_EQ(wave.decay_us_per_rank, 0.0);
}

TEST(AnalyzeWave, CleanWaveResidualsAreTinyAndR2Perfect) {
  const mpi::Trace trace = synthetic_wave(12);
  WaveProbe probe;
  probe.injection_rank = 2;
  probe.injection_time = SimTime{10'000'000};
  probe.min_idle = milliseconds(1.0);
  const WaveAnalysis wave = analyze_wave(trace, probe);
  EXPECT_TRUE(wave.front_valid);
  EXPECT_EQ(wave.front.size(), 9u);
  EXPECT_NEAR(wave.front_rmse_us, 0.0, 1e-6);      // exact line
  EXPECT_NEAR(wave.amplitude_rmse_us, 0.0, 1e-6);  // exact line
  EXPECT_NEAR(wave.front_fit.r2, 1.0, 1e-12);
}

TEST(AnalyzeWave, WaitsEndingBeforeInjectionAreIgnored) {
  mpi::Trace trace(4);
  // A long pre-existing wait on rank 3 ends before injection.
  trace.add_segment(3, wait_seg(0, 5));
  trace.add_segment(3, wait_seg(20, 30));
  WaveProbe probe;
  probe.injection_rank = 2;
  probe.injection_time = SimTime{10'000'000};
  probe.min_idle = milliseconds(1.0);
  probe.direction = +1;
  const WaveAnalysis wave = analyze_wave(trace, probe);
  ASSERT_FALSE(wave.front.empty());
  EXPECT_EQ(wave.front[0].hops, 1);  // rank 3, the first hop, is reached
  EXPECT_EQ(wave.front[0].arrival, SimTime{20'000'000});
}

// Fast-forward traces alias most ranks onto a few shared rows, and
// analyze_wave() then scans each shared row once. The analysis of the
// aliased trace must equal that of the same content held in one private
// row per rank: 300 distinct rows around the injection and 300 ranks
// aliasing three shared rows that never reach, reach before the
// injection, and reach after it.
TEST(AnalyzeWave, AliasedRowsMatchPrivateCopies) {
  constexpr int kRanks = 600;
  constexpr int kInjection = 150;
  const auto seg = [](mpi::SegKind kind, std::int64_t begin_us,
                      std::int64_t end_us) {
    return mpi::Segment{kind, SimTime{begin_us * 1000},
                        SimTime{end_us * 1000}, 0, Duration::zero()};
  };
  mpi::Trace aliased(kRanks);
  for (int r = 0; r < 300; ++r) {
    const std::int64_t hops = r > kInjection ? r - kInjection : kInjection - r;
    aliased.add_segment(r, seg(mpi::SegKind::compute, 0, 3000));
    aliased.add_segment(r, seg(mpi::SegKind::wait, 3000, 3000 + 40 * (r % 7)));
    aliased.add_segment(
        r, seg(mpi::SegKind::wait, 10000 + 250 * hops,
               10000 + 250 * hops + std::max<std::int64_t>(0, 20000 - 90 * hops)));
  }
  aliased.add_segment(300, seg(mpi::SegKind::wait, 9000, 9300));
  aliased.add_segment(301, seg(mpi::SegKind::wait, 2000, 7000));
  aliased.add_segment(301, seg(mpi::SegKind::wait, 12000, 12200));
  aliased.add_segment(302, seg(mpi::SegKind::compute, 0, 3000));
  aliased.add_segment(302, seg(mpi::SegKind::wait, 30000, 34000));
  for (int r = 303; r < kRanks; ++r) aliased.alias_rank(r, 300 + r % 3);

  mpi::Trace copies(kRanks);
  for (int r = 0; r < kRanks; ++r) copies.import_rank(r, aliased, r);
  ASSERT_TRUE(aliased.has_aliases());
  ASSERT_FALSE(copies.has_aliases());

  for (const auto boundary :
       {workload::Boundary::open, workload::Boundary::periodic}) {
    for (const int direction : {+1, -1}) {
      for (const int max_hops : {0, 250}) {
        for (const double min_idle_ms : {1.0, 0.1}) {
          WaveProbe probe;
          probe.injection_rank = kInjection;
          probe.injection_time = SimTime{10'000'000};
          probe.min_idle = milliseconds(min_idle_ms);
          probe.direction = direction;
          probe.boundary = boundary;
          probe.max_hops = max_hops;
          const std::string where =
              std::string(workload::to_string(boundary)) + " direction " +
              std::to_string(direction) + " max_hops " +
              std::to_string(max_hops) + " min_idle " +
              std::to_string(min_idle_ms);
          expect_same_analysis(analyze_wave(aliased, probe),
                               analyze_wave(copies, probe), where);
        }
      }
    }
  }
}

}  // namespace
}  // namespace iw::core
