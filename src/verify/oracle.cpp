#include "verify/oracle.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <string_view>
#include <tuple>
#include <unordered_map>

#include "support/error.hpp"
#include "support/stats.hpp"
#include "sweep/axes.hpp"

namespace iw::verify {
namespace {

void violate(OracleReport& report, std::uint64_t index,
             const std::string& check, const std::string& column, double value,
             double bound, const std::string& detail) {
  report.violations.push_back({index, check, column, value, bound, detail});
}

/// The transport's static protocol rule (mirrors core/experiment.cpp).
const char* expected_protocol(const sweep::SweepPoint& point) {
  const auto& cluster = point.exp.cluster;
  return cluster.transport.protocol_by_size(point.msg_bytes,
                                            cluster.fabric.eager_limit_bytes) ==
                 mpi::WireProtocol::rendezvous
             ? "rendezvous"
             : "eager";
}

/// Schema index of `column`, which must exist.
std::size_t column_of(const char* column) {
  const auto c = sweep::column_index(column);
  IW_CHECK(c.has_value(), std::string("unknown record column ") + column);
  return *c;
}

/// Grouping key over every axis except the ones in `skip` (plus the
/// workload identity column). Derived from the axis registry so a new axis
/// automatically partitions the trend groups.
std::string group_key(const sweep::SweepRecord& r,
                      std::initializer_list<std::string_view> skip) {
  std::string key = r.workload;
  for (const char* column : {
#define IW_AXIS_NAME(field, Type, flag, column, default_) column,
           IW_SWEEP_AXES(IW_AXIS_NAME)
#undef IW_AXIS_NAME
       }) {
    if (std::find(skip.begin(), skip.end(), column) != skip.end()) continue;
    key += '|';
    key += sweep::column_value(r, column_of(column));
  }
  return key;
}

void check_sanity(OracleReport& report, const sweep::SweepRecord& r) {
  const struct {
    const char* column;
    double value;
  } non_negative[] = {
      {"v_up_ranks_per_sec", r.v_up_ranks_per_sec},
      {"v_down_ranks_per_sec", r.v_down_ranks_per_sec},
      {"v_eq2_ranks_per_sec", r.v_eq2_ranks_per_sec},
      {"decay_up_us_per_rank", r.decay_up_us_per_rank},
      {"front_rmse_up_us", r.front_rmse_up_us},
      {"cycle_us", r.cycle_us},
      {"makespan_ms", r.makespan_ms},
  };
  for (const auto& [column, value] : non_negative)
    if (!std::isfinite(value) || value < 0.0)
      violate(report, r.index, "sanity", column, value, 0.0,
              "observable must be finite and non-negative");
  if (!std::isfinite(r.front_r2_up) || r.front_r2_up < 0.0 ||
      r.front_r2_up > 1.0 + 1e-9)
    violate(report, r.index, "sanity", "front_r2_up", r.front_r2_up, 1.0,
            "r^2 must lie in [0, 1]");
  for (const auto& [column, hops] :
       {std::pair{"survival_up_hops", r.survival_up_hops},
        std::pair{"survival_down_hops", r.survival_down_hops}})
    if (hops < 0 || hops > r.np - 1)
      violate(report, r.index, "sanity", column, hops, r.np - 1,
              "survival must lie in [0, np-1]");
}

void check_expansion(OracleReport& report, const sweep::SweepRecord& r,
                     const sweep::SweepPoint* point) {
  if (point == nullptr) {
    violate(report, r.index, "expansion", "index",
            static_cast<double>(r.index), 0.0,
            "record index beyond the scenario's expanded points");
    return;
  }
  // The identity/axis columns must match what re-expanding the catalog spec
  // yields — a mismatch means the corpus was built from a drifted catalog.
  // Both the expectation and the column list come from the axis registry.
  sweep::SweepRecord expect;
  expect.index = point->index;
#define IW_AXIS_EXPECT(field, Type, flag, column, default_) \
  expect.field = sweep::AxisValue<Type>::to_record(point->field);
  IW_SWEEP_AXES(IW_AXIS_EXPECT)
#undef IW_AXIS_EXPECT
  expect.workload = to_string(point->workload);
  expect.seed = point->exp.cluster.seed;
  for (const char* column : {
#define IW_AXIS_NAME(field, Type, flag, column, default_) column,
           IW_SWEEP_AXES(IW_AXIS_NAME)
#undef IW_AXIS_NAME
           "workload", "seed"}) {
    const std::size_t c = column_of(column);
    if (!sweep::column_equal(expect, r, c))
      violate(report, r.index, "expansion", column, 0.0, 0.0,
              "catalog re-expansion yields '" +
                  sweep::column_value(expect, c) + "', record holds '" +
                  sweep::column_value(r, c) + "'");
  }
  if (r.protocol != expected_protocol(*point))
    violate(report, r.index, "expansion", "protocol", 0.0, 0.0,
            "transport size rule demands '" +
                std::string(expected_protocol(*point)) + "', record holds '" +
                r.protocol + "'");
}

void check_speed(OracleReport& report, const sweep::OracleBounds& bounds,
                 const sweep::SweepRecord& r) {
  // Only the upward fit carries quality columns (front_r2_up /
  // front_rmse_up_us), so only v_up faces the Eq. 2 comparison; a
  // scattered downward fit with no r^2 gate of its own would produce
  // false violations. v_down stays covered by the sanity checks and the
  // exact golden diff.
  if (r.delay_ms <= 0.0 || r.v_eq2_ranks_per_sec <= 0.0) return;
  if (r.front_r2_up < bounds.min_front_r2) return;  // fit too scattered
  if (r.v_up_ranks_per_sec <= 0.0 ||
      r.survival_up_hops < bounds.min_reached_for_speed)
    return;
  ++report.speed_checks;
  const double rel_err =
      std::abs(r.v_up_ranks_per_sec - r.v_eq2_ranks_per_sec) /
      r.v_eq2_ranks_per_sec;
  if (rel_err > bounds.max_speed_rel_err)
    violate(report, r.index, "speed_eq2", "v_up_ranks_per_sec", rel_err,
            bounds.max_speed_rel_err,
            "fitted speed deviates from the Eq. 2 v_silent prediction");
}

void check_cycle(OracleReport& report, const sweep::OracleBounds& bounds,
                 double texec_us, const sweep::SweepRecord& r) {
  if (r.cycle_us <= 0.0) {
    violate(report, r.index, "cycle_eq1", "cycle_us", r.cycle_us, 0.0,
            "no measured steady-state cycle");
    return;
  }
  const double lo = bounds.min_cycle_over_texec * texec_us;
  const double hi = bounds.max_cycle_over_texec * texec_us;
  // 2% grace below the Texec floor: the median-of-step-lengths estimator
  // can dip marginally under Texec when noise shifts step markers.
  if (r.cycle_us < lo * 0.98 || r.cycle_us > hi)
    violate(report, r.index, "cycle_eq1", "cycle_us", r.cycle_us,
            r.cycle_us < lo * 0.98 ? lo : hi,
            "Eq. 1 cycle = Texec + Tcomm must lie in [" +
                std::to_string(lo) + ", " + std::to_string(hi) + "] us");
}

void check_damping_trends(OracleReport& report,
                          const sweep::OracleBounds& bounds,
                          const std::vector<sweep::SweepRecord>& records) {
  // Group by every axis except noise E.
  std::map<std::string, std::vector<const sweep::SweepRecord*>> groups;
  for (const sweep::SweepRecord& r : records)
    groups[group_key(r, {"noise_E_percent"})].push_back(&r);
  for (auto& [key, group] : groups) {
    if (group.size() < 2) continue;
    std::sort(group.begin(), group.end(),
              [](const auto* a, const auto* b) {
                return a->noise_E_percent < b->noise_E_percent;
              });
    // Exponential noise with mean E% of Texec lengthens the average compute
    // phase by exactly that mean: cycle(E) must be monotone in E.
    for (std::size_t i = 1; i < group.size(); ++i) {
      const double prev = group[i - 1]->cycle_us;
      const double floor = prev * (1.0 - bounds.cycle_noise_slack_rel);
      if (group[i]->cycle_us < floor)
        violate(report, group[i]->index, "cycle_monotone", "cycle_us",
                group[i]->cycle_us, floor,
                "cycle shrank under rising noise E (vs " + csv_num(prev) +
                    " us at E=" + csv_num(group[i - 1]->noise_E_percent) +
                    "%)");
    }
    // Damping endpoint: the strongest noise must not let the wave travel
    // farther than the noise-free run.
    const sweep::SweepRecord& lo = *group.front();
    const sweep::SweepRecord& hi = *group.back();
    if (hi.survival_up_hops >
        lo.survival_up_hops + bounds.survival_slack_hops)
      violate(report, hi.index, "survival_damping", "survival_up_hops",
              hi.survival_up_hops,
              lo.survival_up_hops + bounds.survival_slack_hops,
              "survival at E=" + csv_num(hi.noise_E_percent) +
                  "% exceeds the E=" + csv_num(lo.noise_E_percent) +
                  "% baseline (damping violated)");
  }
}

/// Loosest-to-tightest order of a resource-constraint axis: 0 means
/// unlimited, then larger budgets are looser than smaller ones.
double constraint_tightness(double value) {
  return value == 0.0 ? -std::numeric_limits<double>::infinity() : -value;
}

void check_constraint_trends(OracleReport& report,
                             const sweep::OracleBounds& bounds,
                             const std::vector<sweep::SweepRecord>& records) {
  const std::string& axis = bounds.constraint_axis;
  const auto value_of = [&axis](const sweep::SweepRecord& r) {
    return sweep::column_number(r, column_of(axis.c_str()));
  };

  // Tightening the constraint must never speed the run up, with all other
  // axes fixed.
  std::map<std::string, std::vector<const sweep::SweepRecord*>> groups;
  for (const sweep::SweepRecord& r : records)
    groups[group_key(r, {axis})].push_back(&r);
  for (auto& [key, group] : groups) {
    if (group.size() < 2) continue;
    std::sort(group.begin(), group.end(),
              [&](const auto* a, const auto* b) {
                return constraint_tightness(value_of(*a)) <
                       constraint_tightness(value_of(*b));
              });
    for (std::size_t i = 1; i < group.size(); ++i) {
      const double prev = group[i - 1]->cycle_us;
      const double floor = prev * (1.0 - bounds.constraint_cycle_slack_rel);
      if (group[i]->cycle_us < floor)
        violate(report, group[i]->index, "constraint_monotone", "cycle_us",
                group[i]->cycle_us, floor,
                "cycle shrank as " + axis + " tightened to " +
                    csv_num(value_of(*group[i])) + " (vs " +
                    csv_num(prev) + " us at " + axis + "=" +
                    csv_num(value_of(*group[i - 1])) + ")");
    }
  }

  // Crossover-shift direction: eager senders couple to the constrained
  // resource (deferred local completion / demotion), rendezvous senders
  // already wait out handshakes — so between the unconstrained baseline and
  // the tightest setting, eager must slow down at least as much.
  std::map<std::string, std::vector<const sweep::SweepRecord*>> panels;
  for (const sweep::SweepRecord& r : records)
    panels[group_key(r, {axis, "msg_bytes"})].push_back(&r);
  for (auto& [key, panel] : panels) {
    double loosest = std::numeric_limits<double>::infinity();
    double tightest = -std::numeric_limits<double>::infinity();
    for (const auto* r : panel) {
      loosest = std::min(loosest, constraint_tightness(value_of(*r)));
      tightest = std::max(tightest, constraint_tightness(value_of(*r)));
    }
    if (loosest == tightest) continue;
    double slowdown[2] = {0.0, 0.0};  // [eager, rendezvous]
    std::uint64_t witness = 0;
    bool complete = true;
    for (int p = 0; p < 2; ++p) {
      const std::string proto = p == 0 ? "eager" : "rendezvous";
      std::vector<double> base, tight;
      for (const auto* r : panel) {
        if (r->protocol != proto || r->cycle_us <= 0.0) continue;
        const double t = constraint_tightness(value_of(*r));
        if (t == loosest) base.push_back(r->cycle_us);
        if (t == tightest) tight.push_back(r->cycle_us);
        if (p == 0 && t == tightest) witness = r->index;
      }
      if (base.empty() || tight.empty()) {
        complete = false;
        break;
      }
      slowdown[p] = median(tight) / median(base);
    }
    if (!complete) continue;
    if (slowdown[0] < slowdown[1] - bounds.crossover_shift_slack)
      violate(report, witness, "crossover_shift", "cycle_us", slowdown[0],
              slowdown[1] - bounds.crossover_shift_slack,
              "tightening " + axis + " slowed eager by x" +
                  csv_num(slowdown[0]) + " but rendezvous by x" +
                  csv_num(slowdown[1]) +
                  " — the crossover moved the wrong way");
  }
}

}  // namespace

OracleReport check_oracles(const sweep::Scenario& scenario,
                           const std::vector<sweep::SweepRecord>& records) {
  OracleReport report;
  report.records_checked = records.size();

  const auto points = sweep::expand(scenario.spec);
  std::unordered_map<std::uint64_t, const sweep::SweepPoint*> by_index;
  by_index.reserve(points.size());
  for (const sweep::SweepPoint& p : points) by_index[p.index] = &p;

  const double texec_us = scenario.spec.texec.us();
  for (const sweep::SweepRecord& r : records) {
    check_sanity(report, r);
    const auto it = by_index.find(r.index);
    check_expansion(report, r, it == by_index.end() ? nullptr : it->second);
    check_speed(report, scenario.oracle, r);
    check_cycle(report, scenario.oracle, texec_us, r);
  }
  if (scenario.oracle.damping_trend_in_noise)
    check_damping_trends(report, scenario.oracle, records);
  if (!scenario.oracle.constraint_axis.empty())
    check_constraint_trends(report, scenario.oracle, records);
  return report;
}

}  // namespace iw::verify
