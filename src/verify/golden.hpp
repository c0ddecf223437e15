// Golden-corpus I/O: checked-in reference SweepRecord tables.
//
// One file per scenario under tests/golden/, holding the full campaign's
// records in sink column order. The file is a plain CSV with a
// schema-versioned comment header, so it diffs cleanly in review and loads
// without an external parser:
//
//   # iw-golden schema=1 scenario=speed_vs_delay points=52
//   index,delay_ms,...,peak_events_pending
//   0,4,...,118
//
// Loading validates the header line, the schema version, and that the
// column row matches the *current* record schema exactly — a renamed,
// added, or removed column makes every golden stale by definition and must
// go through --update-goldens, not through silent positional reinterpretation.
#pragma once

#include <string>
#include <vector>

#include "sweep/record.hpp"

namespace iw::verify {

/// Version of the golden file layout + column semantics. Bump when the
/// header format changes or a column changes meaning without renaming.
/// v2: protocol axes (nic_depth, eager_credits, rdv_flavor) join the axis
/// block, eager_demotions joins the observables, and the identity columns
/// settle into registry order (axes before workload/seed).
/// v3: the IW_METRIC_COLUMNS protocol counters (nic_backlogged,
/// deferred_pushes, unexpected_eager, unexpected_rts) join the observables
/// between eager_demotions and the engine-cost columns.
/// v4: the switch_nodes axis joins the axis block, and the fast-forward
/// accounting columns (ffwd_skips, ffwd_time_skipped_us) land after the
/// engine-cost columns.
inline constexpr int kGoldenSchemaVersion = 4;

struct GoldenCorpus {
  int schema_version = kGoldenSchemaVersion;
  std::string scenario;
  std::vector<sweep::SweepRecord> records;
};

/// Canonical corpus path for `scenario` under `dir`.
[[nodiscard]] std::string golden_path(const std::string& dir,
                                      const std::string& scenario);

/// Writes the corpus file, rows through the record codec. Throws
/// std::runtime_error when the path cannot be opened or the codec rejects a
/// text value (one that would need CSV quoting); nothing is written then.
void write_golden(const std::string& path, const std::string& scenario,
                  const std::vector<sweep::SweepRecord>& records);

/// Loads and validates a corpus file. Throws std::runtime_error on a
/// missing file, malformed or version-mismatched header, column drift
/// against the current record schema, or an unparsable row.
[[nodiscard]] GoldenCorpus load_golden(const std::string& path);

}  // namespace iw::verify
