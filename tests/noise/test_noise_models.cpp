// Tests for the noise kinds a NoiseSpec samples: none, exponential, gamma
// and uniform, their means and bounds, and the parameter checks.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "noise/system_profiles.hpp"
#include "support/stats.hpp"

namespace iw::noise {
namespace {

std::vector<double> sample_us(const NoiseSpec& spec, int n, Rng rng) {
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) out.push_back(spec.sample(rng).us());
  return out;
}

TEST(NoiseKinds, NoneIsAlwaysZero) {
  const auto spec = NoiseSpec::none();
  Rng rng(1);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(spec.sample(rng), Duration::zero());
  EXPECT_EQ(spec.expected(), Duration::zero());
}

TEST(NoiseKinds, ExponentialMatchesConfiguredMean) {
  const auto spec = NoiseSpec::exponential(microseconds(2.4));
  const auto s = summarize(sample_us(spec, 200000, Rng(7)));
  EXPECT_NEAR(s.mean, 2.4, 0.05);
  EXPECT_GE(s.min, 0.0);
  EXPECT_EQ(spec.expected(), microseconds(2.4));
}

TEST(NoiseKinds, ExponentialMaxAtPaperSampleCountBelow30us) {
  // Paper Fig. 3: Emmy's 3.3e5 samples peak below 30 us. An exponential
  // with mean 2.4 us has E[max] ~ 2.4 * ln(3.3e5) ~ 30.5 us; check the
  // realized max is in that ballpark and not wildly above.
  const auto s =
      summarize(sample_us(NoiseSpec::exponential(microseconds(2.4)), 330000,
                          Rng(3)));
  EXPECT_GT(s.max, 15.0);
  EXPECT_LT(s.max, 60.0);
}

TEST(NoiseKinds, GammaShapeOneIsExponentialLike) {
  const auto spec = NoiseSpec::gamma(1.0, microseconds(10.0));
  const auto s = summarize(sample_us(spec, 100000, Rng(11)));
  EXPECT_NEAR(s.mean, 10.0, 0.3);
  EXPECT_NEAR(s.stddev, 10.0, 0.4);  // CV = 1 for exponential
  EXPECT_EQ(spec.expected(), microseconds(10.0));
}

TEST(NoiseKinds, GammaHighShapeConcentrates) {
  const auto s = summarize(
      sample_us(NoiseSpec::gamma(16.0, microseconds(10.0)), 100000, Rng(12)));
  EXPECT_NEAR(s.mean, 10.0, 0.3);
  EXPECT_NEAR(s.stddev, 2.5, 0.2);  // mean/sqrt(16)
}

TEST(NoiseKinds, UniformBoundsRespected) {
  const auto spec = NoiseSpec::uniform(microseconds(2.0), microseconds(4.0));
  const auto s = summarize(sample_us(spec, 50000, Rng(5)));
  EXPECT_GE(s.min, 2.0);
  EXPECT_LE(s.max, 4.0);
  EXPECT_NEAR(s.mean, 3.0, 0.05);
  EXPECT_EQ(spec.expected(), microseconds(3.0));
}

TEST(NoiseKinds, InvalidParametersRejected) {
  EXPECT_THROW((void)NoiseSpec::exponential(Duration{-1}),
               std::invalid_argument);
  EXPECT_THROW((void)NoiseSpec::gamma(0.0, microseconds(1.0)),
               std::invalid_argument);
  EXPECT_THROW((void)NoiseSpec::gamma(2.0, Duration{-1}),
               std::invalid_argument);
  EXPECT_THROW((void)NoiseSpec::uniform(microseconds(3.0), microseconds(2.0)),
               std::invalid_argument);
  EXPECT_THROW((void)NoiseSpec::uniform(Duration{-1}, microseconds(2.0)),
               std::invalid_argument);
  // A spec assembled field by field is caught by validate().
  NoiseSpec spec;
  spec.kind = NoiseSpec::Kind::gamma;
  spec.mean = microseconds(1.0);
  spec.shape = -1.0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.shape = 2.0;
  EXPECT_NO_THROW(spec.validate());
}

}  // namespace
}  // namespace iw::noise
