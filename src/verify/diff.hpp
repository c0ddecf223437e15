// Field-tolerance diffing of SweepRecord tables against a golden corpus.
//
// Records pair up by their `index` column (a fresh run may be a quick
// subset of the golden campaign), and every schema column is compared under
// its declared tolerance class: `exact` columns (identity, axes, protocol,
// engine counters) must match exactly (typed values; doubles by the text
// the sinks print), `approx` columns (fitted velocities, decay, cycle,
// makespan) under a relative-epsilon policy on both sides' printed 12-digit
// values, which absorbs benign last-digit noise while catching real physics
// drift.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sweep/record.hpp"

namespace iw::verify {

/// Comparison policy for `approx` columns. A pair (a, b) passes when
/// |a - b| <= abs_eps + rel_eps * max(|a|, |b|). Goldens are stored with 12
/// significant digits, so the defaults sit well above serialization
/// round-off and well below any physical effect.
struct TolerancePolicy {
  double rel_eps = 1e-9;
  double abs_eps = 1e-9;
};

/// One field that differs beyond its tolerance.
struct FieldDiff {
  std::uint64_t record_index = 0;  ///< the records' `index` column
  std::string column;
  std::string expected;  ///< golden value
  std::string actual;    ///< fresh value
  /// |a-b| / max(|a|,|b|) for approx columns; 1 for exact mismatches.
  double rel_err = 0.0;
};

struct DiffReport {
  std::size_t records_compared = 0;
  std::vector<FieldDiff> field_diffs;
  /// Shape problems: fresh records whose index has no golden row, duplicate
  /// indices, or (full runs) golden rows never produced.
  std::vector<std::string> structural;

  [[nodiscard]] bool clean() const {
    return field_diffs.empty() && structural.empty();
  }
};

/// Diffs `fresh` against `golden`. When `expect_full` is set, every golden
/// record must be matched by a fresh one (a full campaign); quick-subset
/// runs pass false and only their indices are required to exist.
[[nodiscard]] DiffReport diff_records(
    const std::vector<sweep::SweepRecord>& golden,
    const std::vector<sweep::SweepRecord>& fresh, const TolerancePolicy& policy,
    bool expect_full);

}  // namespace iw::verify
