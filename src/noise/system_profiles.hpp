// Noise: per-execution-phase random extra delays, and the calibrated
// system-noise profiles of the paper's two clusters (Fig. 3).
//
// The paper distinguishes fine-grained *noise* (microsecond-scale, OS
// interference, drivers; Sec. I-A) from long one-off *delays* (which create
// idle waves). A NoiseSpec produces the former: it is sampled once per
// execution phase and the sample is added to the pure compute time.
//
// The quantitative decay experiments (Sec. V-A) inject exponential noise
// with probability density f(t/Texec; lambda) = lambda*exp(-lambda*t/Texec),
// characterized by E = 1/lambda, the mean relative delay per phase.
//
// The system profiles reproduce the natural per-3ms-phase execution delays
// the paper measures with a throughput-exact vdivpd workload:
//   * Emmy (InfiniBand), SMT on:   mean 2.4 us, max < 30 us
//   * Meggie (Omni-Path), SMT on:  mean 2.8 us, max < 30 us
//   * Meggie, SMT off: bimodal — a fine-grained peak plus a distinct second
//     peak at ~660 us attributed to the CPU-hungry Omni-Path driver
//   * Emmy, SMT off: unimodal but coarser than SMT-on
//
// An exponential body reproduces the observed mean and, at the paper's
// 3.3e5-sample count, an expected maximum of mean*ln(3.3e5) ~ 12.7*mean —
// ~30 us for Emmy, matching the reported bound.
#pragma once

#include <string>

#include "support/rng.hpp"
#include "support/time.hpp"

namespace iw::noise {

/// Value-type noise configuration. Specs are copied and swept by experiment
/// configs and sampled directly; randomness comes from the Rng passed to
/// sample(), so a spec carries no state.
struct NoiseSpec {
  enum class Kind {
    none,            ///< the "silent system" of Sec. IV-C
    exponential,     ///< paper Eq. 3
    gamma,           ///< shape 1 degenerates to exponential
    uniform,         ///< on [lo, hi]
    meggie_smt_off,  ///< bimodal body + Omni-Path driver peak
  };

  Kind kind = Kind::none;
  Duration mean;       ///< for exponential/gamma
  double shape = 1.0;  ///< for gamma
  Duration lo, hi;     ///< for uniform

  [[nodiscard]] static NoiseSpec none();
  [[nodiscard]] static NoiseSpec exponential(Duration mean);
  [[nodiscard]] static NoiseSpec gamma(double shape, Duration mean);
  [[nodiscard]] static NoiseSpec uniform(Duration lo, Duration hi);
  /// "emmy-smt-on" (the configuration of all Emmy experiments in the
  /// paper), "emmy-smt-off", "meggie-smt-on" or "meggie-smt-off" (the
  /// configuration of all Meggie experiments).
  [[nodiscard]] static NoiseSpec system(const std::string& name);

  /// One sample: the extra delay of one execution phase.
  [[nodiscard]] Duration sample(Rng& rng) const;

  /// Expected value of a sample, for calibration checks.
  [[nodiscard]] Duration expected() const;

  /// Throws std::invalid_argument unless mean >= 0, shape > 0 and
  /// 0 <= lo <= hi (each checked for the kinds that use it).
  void validate() const;

  bool operator==(const NoiseSpec&) const = default;
};

}  // namespace iw::noise
