#include "verify/diff.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>

namespace iw::verify {
namespace {

bool approx_equal(double a, double b, const TolerancePolicy& policy,
                  double* rel_err) {
  if (std::isnan(a) || std::isnan(b)) {  // NaN never verifies
    *rel_err = 1.0;
    return false;
  }
  const double mag = std::max(std::abs(a), std::abs(b));
  const double delta = std::abs(a - b);
  *rel_err = mag > 0.0 ? delta / mag : 0.0;
  return delta <= policy.abs_eps + policy.rel_eps * mag;
}

}  // namespace

DiffReport diff_records(const std::vector<sweep::SweepRecord>& golden,
                        const std::vector<sweep::SweepRecord>& fresh,
                        const TolerancePolicy& policy, bool expect_full) {
  DiffReport report;
  const auto& schema = sweep::record_schema();

  std::unordered_map<std::uint64_t, const sweep::SweepRecord*> by_index;
  by_index.reserve(golden.size());
  for (const sweep::SweepRecord& g : golden) {
    if (!by_index.emplace(g.index, &g).second)
      report.structural.push_back("golden has duplicate index " +
                                  std::to_string(g.index));
  }

  std::size_t matched = 0;
  for (const sweep::SweepRecord& f : fresh) {
    const auto it = by_index.find(f.index);
    if (it == by_index.end()) {
      report.structural.push_back("fresh record index " +
                                  std::to_string(f.index) +
                                  " has no golden row");
      continue;
    }
    if (it->second == nullptr) {
      report.structural.push_back("fresh run repeats index " +
                                  std::to_string(f.index));
      continue;
    }
    const sweep::SweepRecord& g = *it->second;
    it->second = nullptr;  // mark consumed (and catch duplicate fresh rows)
    ++matched;

    for (std::size_t c = 0; c < schema.size(); ++c) {
      double rel_err = 1.0;
      // Exact columns compare typed values (doubles by their printed text);
      // approx columns compare both sides rounded to the printed 12 digits.
      const bool ok =
          schema[c].tolerance == sweep::ColumnTolerance::exact ||
                  schema[c].type == sweep::ColumnType::text
              ? sweep::column_equal(g, f, c)
              : approx_equal(sweep::column_number(g, c),
                             sweep::column_number(f, c), policy, &rel_err);
      if (!ok)
        report.field_diffs.push_back({f.index, schema[c].name,
                                      sweep::column_value(g, c),
                                      sweep::column_value(f, c), rel_err});
    }
  }
  report.records_compared = matched;

  if (expect_full) {
    for (const auto& [index, record] : by_index)
      if (record != nullptr)
        report.structural.push_back("golden index " + std::to_string(index) +
                                    " was not produced by the fresh run");
    std::sort(report.structural.begin(), report.structural.end());
  }
  return report;
}

}  // namespace iw::verify
