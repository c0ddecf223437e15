// Scenario registry: the paper's figures as named, self-describing sweeps.
//
// A scenario is a SweepSpec with a name, a one-line summary, and the paper
// reference it reproduces. The catalog is the single source of truth for
// the sweep_runner CLI, idlewaved, verify_runner and the CI smoke campaign;
// axis values can still be overridden per invocation before expansion.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "sweep/spec.hpp"

namespace iw::sweep {

/// Per-scenario bounds for the analytic oracle layer (src/verify/oracle):
/// how far simulated observables may deviate from the closed-form
/// expectations of the analytic model (arXiv:2103.03175) before a record is
/// flagged. Scenarios with injected noise declare wider bounds; the
/// noise-free speed scans sit within a few percent of Eq. 2.
struct OracleBounds {
  /// Max |v_fit - v_eq2| / v_eq2 for records whose front fit qualifies.
  /// The noise-free goldens sit far inside it: speed_vs_delay 1.2%,
  /// eager_rendezvous_crossover 3.6%, ppn_contrast 0.11%, grid2d_wave
  /// 0.56%, scale_wave 0.03% at most.
  double max_speed_rel_err = 0.05;
  /// Front fits below this r^2 are too scattered for a speed comparison
  /// (heavy injected noise); such records skip the speed oracle.
  double min_front_r2 = 0.9;
  /// Minimum consecutive survival hops before the fitted speed is compared
  /// (a two-point front is too short to trust its slope).
  int min_reached_for_speed = 3;
  /// Eq. 1 structure: a nonoverlapping compute-communicate cycle satisfies
  /// cycle >= Texec, and Tcomm is bounded by the slowest link the sweep
  /// touches. cycle_us must lie in [min, max] * texec_us.
  double min_cycle_over_texec = 1.0;
  double max_cycle_over_texec = 8.0;
  /// When true, the paper's Sec. V damping trends are enforced per group of
  /// fixed non-noise axes: the measured cycle must grow monotonically with
  /// injected noise E (noise lengthens every compute phase), and survival
  /// at the highest E must not exceed survival at the lowest E by more than
  /// `survival_slack_hops`. Survival is compared endpoint-to-endpoint, not
  /// consecutively: at high E, noise-induced waits above min_idle are
  /// (mis)attributed to the wave, making the intermediate proxy jumpy.
  bool damping_trend_in_noise = false;
  int survival_slack_hops = 2;
  /// Relative slack for the cycle-vs-E monotonicity (median-of-steps jitter).
  double cycle_noise_slack_rel = 0.02;
  /// When set to a numeric axis column name ("nic_depth", "eager_credits"),
  /// the protocol-constraint trend is enforced per group of fixed other
  /// axes. The axis is a resource constraint with 0 = unlimited; tightening
  /// it (0, then descending positive values) must never *speed the run up*:
  /// cycle_us is non-decreasing within `constraint_cycle_slack_rel`.
  std::string constraint_axis;
  double constraint_cycle_slack_rel = 0.02;
  /// The crossover-shift direction for `constraint_axis` scenarios: between
  /// the unconstrained baseline and the tightest setting, the relative
  /// slowdown of eager-protocol records must be at least the rendezvous
  /// slowdown minus this slack. Finite injection budgets and credit windows
  /// defer the eager sender's local completion to NIC drain, while a
  /// rendezvous sender already waits out its handshake — so the constraint
  /// must hit eager at least as hard, shifting the protocol crossover
  /// toward smaller messages.
  double crossover_shift_slack = 0.05;
};

struct Scenario {
  std::string name;
  std::string summary;    ///< what the sweep demonstrates
  std::string paper_ref;  ///< figure / section it reproduces
  SweepSpec spec;
  OracleBounds oracle;
  /// Point indices (into expand(spec)) verified under --quick: a handful of
  /// representative points per scenario so CI touches every scenario
  /// without the full campaign cost. Empty = quick mode runs everything.
  std::vector<std::size_t> quick_subset;
};

/// All registered scenarios, in catalog order. Names are unique.
[[nodiscard]] const std::vector<Scenario>& scenario_catalog();

/// Looks a scenario up by name; nullptr when unknown.
[[nodiscard]] const Scenario* find_scenario(const std::string& name);

/// The catalog's names, in order (CLI help, error messages).
[[nodiscard]] std::vector<std::string> scenario_names();

}  // namespace iw::sweep
