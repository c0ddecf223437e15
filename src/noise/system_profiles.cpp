#include "noise/system_profiles.hpp"

#include <algorithm>
#include <cstdint>

#include "support/error.hpp"

namespace iw::noise {

namespace {

// Meggie with SMT off (paper Fig. 3(b)): a fine-grained exponential body
// plus the Omni-Path driver peak, a zero-truncated normal at ~660 us. The
// 2% peak weight keeps the overall mean modest while producing a clearly
// visible second mode in a 3.3e5-sample histogram.
constexpr double kBodyWeight = 0.98;
constexpr double kPeakWeight = 0.02;
constexpr Duration kBodyMean = microseconds(9.0);
constexpr Duration kPeakMean = microseconds(660.0);
constexpr Duration kPeakStddev = microseconds(25.0);

}  // namespace

NoiseSpec NoiseSpec::none() { return NoiseSpec{}; }

NoiseSpec NoiseSpec::exponential(Duration mean) {
  NoiseSpec s;
  s.kind = Kind::exponential;
  s.mean = mean;
  s.validate();
  return s;
}

NoiseSpec NoiseSpec::gamma(double shape, Duration mean) {
  NoiseSpec s;
  s.kind = Kind::gamma;
  s.shape = shape;
  s.mean = mean;
  s.validate();
  return s;
}

NoiseSpec NoiseSpec::uniform(Duration lo, Duration hi) {
  NoiseSpec s;
  s.kind = Kind::uniform;
  s.lo = lo;
  s.hi = hi;
  s.validate();
  return s;
}

NoiseSpec NoiseSpec::system(const std::string& name) {
  // Emmy SMT-off: the OS has no spare hardware thread to absorb
  // housekeeping, so delays are coarser; still unimodal on InfiniBand.
  if (name == "emmy-smt-on") return exponential(microseconds(2.4));
  if (name == "emmy-smt-off") return exponential(microseconds(8.0));
  if (name == "meggie-smt-on") return exponential(microseconds(2.8));
  IW_REQUIRE(name == "meggie-smt-off",
             "unknown system noise profile: " + name);
  NoiseSpec s;
  s.kind = Kind::meggie_smt_off;
  return s;
}

Duration NoiseSpec::sample(Rng& rng) const {
  switch (kind) {
    case Kind::none:
      return Duration::zero();
    case Kind::exponential:
      return rng.exponential_duration(mean);
    case Kind::gamma: {
      const double ns = rng.gamma(shape, static_cast<double>(mean.ns()));
      return Duration{static_cast<std::int64_t>(ns + 0.5)};
    }
    case Kind::uniform:
      return Duration{static_cast<std::int64_t>(rng.uniform(
          static_cast<double>(lo.ns()), static_cast<double>(hi.ns())))};
    case Kind::meggie_smt_off: {
      if (rng.uniform(0.0, kBodyWeight + kPeakWeight) < kBodyWeight)
        return rng.exponential_duration(kBodyMean);
      const double ns = static_cast<double>(kPeakMean.ns()) +
                        rng.normal() * static_cast<double>(kPeakStddev.ns());
      return Duration{std::max<std::int64_t>(0, static_cast<std::int64_t>(ns))};
    }
  }
  return Duration::zero();
}

Duration NoiseSpec::expected() const {
  switch (kind) {
    case Kind::none:
      return Duration::zero();
    case Kind::exponential:
    case Kind::gamma:
      return mean;
    case Kind::uniform:
      return (lo + hi) / 2;
    case Kind::meggie_smt_off: {
      const double ns =
          (kBodyWeight * static_cast<double>(kBodyMean.ns()) +
           kPeakWeight * static_cast<double>(kPeakMean.ns())) /
          (kBodyWeight + kPeakWeight);
      return Duration{static_cast<std::int64_t>(ns + 0.5)};
    }
  }
  return Duration::zero();
}

void NoiseSpec::validate() const {
  if (kind == Kind::exponential || kind == Kind::gamma)
    IW_REQUIRE(mean.ns() >= 0, "noise mean must be non-negative");
  if (kind == Kind::gamma)
    IW_REQUIRE(shape > 0.0, "gamma shape must be positive");
  if (kind == Kind::uniform)
    IW_REQUIRE(Duration::zero() <= lo && lo <= hi,
               "uniform noise range must be ordered and non-negative");
}

}  // namespace iw::noise
