// Integration: idle-wave decay under injected noise (paper Sec. V-A,
// Fig. 8), including how the noise distribution's shape sets the rate.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "core/experiment.hpp"
#include "support/stats.hpp"
#include "workload/delay.hpp"

namespace iw::core {
namespace {

/// Fig. 8-style run: long delay, `injected` noise on every rank, measure
/// the decay rate over the wave's path.
double decay_rate_us_per_rank(const noise::NoiseSpec& injected,
                              std::uint64_t seed,
                              const noise::NoiseSpec& system_noise =
                                  noise::NoiseSpec::none()) {
  workload::RingSpec ring;
  ring.ranks = 40;
  ring.direction = workload::Direction::bidirectional;
  ring.boundary = workload::Boundary::periodic;
  ring.msg_bytes = 8192;
  ring.steps = 40;
  ring.texec = milliseconds(3.0);

  WaveExperiment exp;
  exp.ring = ring;
  exp.cluster = cluster_for_ring(ring, /*ppn1=*/false, /*per_socket=*/10);
  exp.cluster.system_noise = system_noise;
  exp.cluster.seed = seed;
  exp.delays = workload::single_delay(5, 0, milliseconds(90.0));
  exp.injected_noise = injected;
  // Threshold one full execution phase: noise-induced waits (sub-ms) must
  // not masquerade as wave arrivals in the front and amplitude fits.
  exp.min_idle = milliseconds(3.0);
  const auto result = run_wave_experiment(exp);
  return result.up.decay_us_per_rank;
}

/// The paper's injection: exponential noise with mean E*Texec.
double decay_rate_us_per_rank(double E_percent, std::uint64_t seed,
                              const noise::NoiseSpec& system_noise =
                                  noise::NoiseSpec::none()) {
  return decay_rate_us_per_rank(
      E_percent == 0.0 ? noise::NoiseSpec::none()
                       : noise::NoiseSpec::exponential(
                             milliseconds(3.0 * E_percent / 100.0)),
      seed, system_noise);
}

TEST(IdleWaveDecay, SilentSystemBarelyDecays) {
  const double beta = decay_rate_us_per_rank(0.0, 1);
  EXPECT_LT(beta, 100.0);  // < 0.1 ms/rank on a 90 ms wave
}

TEST(IdleWaveDecay, NoiseProducesDecay) {
  const double beta = decay_rate_us_per_rank(10.0, 1);
  EXPECT_GT(beta, 300.0);  // clearly nonzero decay at E = 10%
}

TEST(IdleWaveDecay, DecayIncreasesWithNoiseLevel) {
  // Paper Fig. 8: "a clear positive correlation between the noise level
  // and the decay rate". Use medians over a few seeds per level.
  std::vector<double> levels{0.0, 2.0, 5.0, 10.0};
  std::vector<double> betas;
  for (const double E : levels) {
    std::vector<double> runs;
    for (std::uint64_t seed = 1; seed <= 5; ++seed)
      runs.push_back(decay_rate_us_per_rank(E, seed));
    betas.push_back(median(runs));
  }
  for (std::size_t i = 1; i < betas.size(); ++i)
    EXPECT_GT(betas[i], betas[i - 1])
        << "decay must increase from E=" << levels[i - 1] << "% to E="
        << levels[i] << "%";
}

TEST(IdleWaveDecay, DecayRateIndependentOfSystemNoiseProfile) {
  // Fig. 8 shows the same trend on InfiniBand, Omni-Path, and the pure
  // simulator: the *injected* noise dominates the decay. Compare medians
  // at E = 8% across system profiles; they must agree within a factor ~2
  // (the paper's spread across systems is of that order).
  std::vector<double> medians;
  for (const char* profile :
       {"emmy-smt-on", "meggie-smt-off"}) {
    std::vector<double> runs;
    for (std::uint64_t seed = 1; seed <= 5; ++seed)
      runs.push_back(
          decay_rate_us_per_rank(8.0, seed, noise::NoiseSpec::system(profile)));
    medians.push_back(median(runs));
  }
  // Plus the bare simulator.
  std::vector<double> runs;
  for (std::uint64_t seed = 1; seed <= 5; ++seed)
    runs.push_back(decay_rate_us_per_rank(8.0, seed));
  medians.push_back(median(runs));

  const double lo = *std::min_element(medians.begin(), medians.end());
  const double hi = *std::max_element(medians.begin(), medians.end());
  EXPECT_LT(hi / lo, 2.0);
  EXPECT_GT(lo, 0.0);
}

TEST(IdleWaveDecay, DecayGrowsWithNoiseDispersionAtFixedMean) {
  // Decay is a fluctuation effect, not a mean effect: at the same mean
  // (E = 8% of Texec) the more dispersed the injected noise, the harder it
  // damps the wave. Ordered by coefficient of variation: gamma shape 4
  // (0.5) < uniform (0.58) < exponential (1.0) < gamma shape 0.5 (1.41).
  const Duration mean = milliseconds(3.0 * 0.08);
  const std::pair<const char*, noise::NoiseSpec> shapes[] = {
      {"gamma shape=4", noise::NoiseSpec::gamma(4.0, mean)},
      {"uniform [0, 2*mean]",
       noise::NoiseSpec::uniform(Duration::zero(), mean * 2)},
      {"exponential", noise::NoiseSpec::exponential(mean)},
      {"gamma shape=0.5", noise::NoiseSpec::gamma(0.5, mean)},
  };
  double previous = 0.0;
  for (const auto& [label, spec] : shapes) {
    std::vector<double> runs;
    for (std::uint64_t seed = 1; seed <= 11; ++seed)
      runs.push_back(decay_rate_us_per_rank(spec, seed));
    const double beta = median(runs);
    EXPECT_GT(beta, previous) << label << " must damp harder than the "
                              << "less dispersed shape before it";
    previous = beta;
  }
}

TEST(IdleWaveDecay, LeadingEdgeSpeedInsensitiveToNoise) {
  // Sec. IV-C: "even in a noisy system the propagation speed along the
  // leading slope of an idle wave is hardly changed from v_silent".
  workload::RingSpec ring;
  ring.ranks = 40;
  ring.direction = workload::Direction::bidirectional;
  ring.boundary = workload::Boundary::periodic;
  ring.msg_bytes = 8192;
  ring.steps = 40;
  ring.texec = milliseconds(3.0);

  auto speed_at = [&](double E_percent) {
    WaveExperiment exp;
    exp.ring = ring;
    exp.cluster = cluster_for_ring(ring, false, 10);
    exp.cluster.seed = 7;
    exp.delays = workload::single_delay(5, 0, milliseconds(90.0));
    if (E_percent > 0)
      exp.injected_noise = noise::NoiseSpec::exponential(
          milliseconds(3.0 * E_percent / 100.0));
    exp.min_idle = milliseconds(3.0);
    return run_wave_experiment(exp).up.speed_ranks_per_sec;
  };

  const double v_silent_measured = speed_at(0.0);
  const double v_noisy = speed_at(8.0);
  ASSERT_GT(v_silent_measured, 0.0);
  // The noisy system runs slower overall (cycle = Texec + noise + Tcomm),
  // so the front speed drops by roughly E; it must not change wildly.
  EXPECT_NEAR(v_noisy / v_silent_measured, 1.0, 0.2);
}

TEST(IdleWaveDecay, DecayRateRoughlyIndependentOfDelayLength) {
  // Sec. V-A: "the decay rate does not depend on the length of the
  // injected delay" (unless the wave is very narrow).
  auto beta_for_delay = [&](double delay_ms) {
    workload::RingSpec ring;
    ring.ranks = 40;
    ring.direction = workload::Direction::bidirectional;
    ring.boundary = workload::Boundary::periodic;
    ring.msg_bytes = 8192;
    ring.steps = 40;
    ring.texec = milliseconds(3.0);
    WaveExperiment exp;
    exp.ring = ring;
    exp.cluster = cluster_for_ring(ring, false, 10);
    std::vector<double> betas;
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      WaveExperiment run = exp;
      run.cluster.seed = seed;
      run.delays = workload::single_delay(5, 0, milliseconds(delay_ms));
      run.injected_noise =
          noise::NoiseSpec::exponential(milliseconds(3.0 * 0.08));
      run.min_idle = milliseconds(3.0);
      betas.push_back(run_wave_experiment(run).up.decay_us_per_rank);
    }
    return median(betas);
  };
  const double beta_60 = beta_for_delay(60.0);
  const double beta_120 = beta_for_delay(120.0);
  ASSERT_GT(beta_60, 0.0);
  EXPECT_NEAR(beta_120 / beta_60, 1.0, 0.5);
}

}  // namespace
}  // namespace iw::core
