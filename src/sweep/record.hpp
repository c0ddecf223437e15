// Structured result sinks: one flat record per sweep point.
//
// A WaveResult is a heavyweight object (it owns the full trace); campaigns
// reduce it immediately to the paper's observables plus engine cost
// counters, and stream the flat records to CSV / JSON-Lines files. Records
// carry their point index, so partial campaigns (cancelled mid-run) remain
// self-describing.
//
// The column set is a *typed schema*, not a stringly field list: every
// column declares its value type and its verification tolerance class, and
// the schema is the single source of truth for serialization (sinks, golden
// files, the service's cached values), parsing (golden-corpus loading) and
// field-by-field diffing (src/verify). Its column table in record.cpp is
// the only place a record becomes text: each column appends its value to a
// caller-owned buffer with std::to_chars, and CSV rows, JSON lines, golden
// rows and the service's cached values are loops over that one writer.
#pragma once

#include <cstdint>
#include <fstream>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/experiment.hpp"
#include "support/csv.hpp"
#include "sweep/spec.hpp"

namespace iw::sweep {

/// The flat per-point record: axis values, wave observables, run costs.
struct SweepRecord {
  // Identity and axes. Axis members are generated from the IW_SWEEP_AXES
  // registry (sweep/axes.hpp); enum axes store their to_string name.
  std::uint64_t index = 0;
#define IW_AXIS_RECORD_MEMBER(field, Type, flag, column, default_) \
  axis_record_t<Type> field{};
  IW_SWEEP_AXES(IW_AXIS_RECORD_MEMBER)
#undef IW_AXIS_RECORD_MEMBER
  std::string workload;
  std::uint64_t seed = 0;
  // Observables.
  std::string protocol;
  double v_up_ranks_per_sec = 0.0;
  double v_down_ranks_per_sec = 0.0;
  double v_eq2_ranks_per_sec = 0.0;   ///< Eq. 2 prediction
  double decay_up_us_per_rank = 0.0;  ///< beta toward higher ranks
  int survival_up_hops = 0;
  int survival_down_hops = 0;
  double front_r2_up = 0.0;       ///< r^2 of the upward front fit
  double front_rmse_up_us = 0.0;  ///< RMS front-fit residual [us]
  double cycle_us = 0.0;              ///< measured steady-state cycle
  double makespan_ms = 0.0;
  /// Eager-sized sends the transport demoted to rendezvous because their
  /// pair's credit window was exhausted (credit stalls); the observable of
  /// the eager_credits axis.
  std::uint64_t eager_demotions = 0;
  // Per-point transport protocol counters, generated from the
  // IW_METRIC_COLUMNS registry (sweep/axes.hpp).
#define IW_METRIC_RECORD_MEMBER(field) std::uint64_t field = 0;
  IW_METRIC_COLUMNS(IW_METRIC_RECORD_MEMBER)
#undef IW_METRIC_RECORD_MEMBER
  // Simulation cost (engine counters).
  std::uint64_t events_processed = 0;
  std::uint64_t peak_events_pending = 0;
  // Fast-forward accounting: rank-steps skipped and simulated time never
  // event-walked (microseconds, exact). Zero when ffwd is off/ineligible.
  std::uint64_t ffwd_skips = 0;
  std::uint64_t ffwd_time_skipped_us = 0;
};

/// Value type of one schema column.
enum class ColumnType : std::uint8_t { u64, i64, i32, f64, text };

/// Verification tolerance class of one column. `exact` columns (identity,
/// axes, protocol, engine counters) must match goldens bit-for-bit;
/// `approx` columns (fitted velocities, decay, cycle, makespan) are
/// compared under a relative-epsilon policy.
enum class ColumnTolerance : std::uint8_t { exact, approx };

/// Static description of one SweepRecord column.
struct ColumnMeta {
  const char* name;
  ColumnType type;
  ColumnTolerance tolerance;
  /// JSON quoting. Strings, plus u64 seeds: they exceed the 2^53 range
  /// double-backed JSON readers preserve, and a rounded seed cannot
  /// reproduce its point.
  bool json_quoted;
};

/// The record schema, in sink column order.
[[nodiscard]] const std::vector<ColumnMeta>& record_schema();

/// Index of `name` in the schema; nullopt for unknown columns.
[[nodiscard]] std::optional<std::size_t> column_index(const std::string& name);

/// Text of column `col` of `rec`, as every sink writes it: integers in
/// decimal, doubles as printf("%.12g") (csv_num), text verbatim. A text
/// value holding `,`, `"`, `\` or a control character throws
/// std::invalid_argument here and in every writer below: no sink quotes or
/// escapes.
[[nodiscard]] std::string column_value(const SweepRecord& rec,
                                       std::size_t col);

/// Typed equality of column `col`: integers and text compare by value,
/// doubles by the 12-significant-digit text every sink prints.
[[nodiscard]] bool column_equal(const SweepRecord& a, const SweepRecord& b,
                                std::size_t col);

/// Numeric column `col` as the sinks print it: doubles rounded to 12
/// significant digits, integers converted. Throws on a text column.
[[nodiscard]] double column_number(const SweepRecord& rec, std::size_t col);

/// Parses `text` into column `col` of `rec`. Throws std::invalid_argument
/// on malformed input (partial consumption, overflow, empty numerics).
void set_column(SweepRecord& rec, std::size_t col, const std::string& text);

/// Rebuilds a record from one serialized row in schema column order.
/// Throws std::invalid_argument on a size mismatch or malformed value.
[[nodiscard]] SweepRecord record_from_row(
    const std::vector<std::string>& row);

/// The CSV header row (column names joined by commas, no newline).
[[nodiscard]] std::string csv_header();

/// Appends one CSV row of `rec` (no newline): a CsvSink or golden-file row,
/// the index cell followed by append_record_values.
void append_csv_row(std::string& out, const SweepRecord& rec);

/// Appends one JSON object of `rec` (no newline): the exact bytes JsonlSink
/// writes. The campaign service streams the same bytes, rebuilt from stored
/// values by append_json_from_values, so a client-side JSONL file is
/// byte-identical to a sink-written one.
void append_json_line(std::string& out, const SweepRecord& rec);

/// append_json_line as a string.
[[nodiscard]] std::string record_json_line(const SweepRecord& rec);

/// Reduces one finished experiment to its flat record.
[[nodiscard]] SweepRecord reduce(const SweepPoint& point,
                                 const core::WaveResult& result);

/// Appends the record's value text: columns 1..N (every column except
/// `index`) in schema order, comma-joined — the CSV row without its index
/// cell. The campaign service caches a point in this form. Throws like every
/// writer on a text value that is not a bare token, so the commas split it
/// unambiguously.
void append_record_values(std::string& out, const SweepRecord& rec);

/// Appends the JSON object (no newline) of the record whose value text
/// append_record_values wrote, with `index` as its index: each column name
/// interleaved with its stored text, quoted where json_quoted. The bytes
/// equal append_json_line's for that record at that index, and no number is
/// formatted again (a cached point, handed to any campaign). Throws
/// std::invalid_argument unless `values` holds one field per non-index
/// column.
void append_json_from_values(std::string& out, std::string_view values,
                             std::uint64_t index);

/// Destination for a stream of records. The campaign runner guarantees
/// write() is called from one thread at a time, in ascending index order
/// for the records it delivers.
class RecordSink {
 public:
  virtual ~RecordSink() = default;
  virtual void write(const SweepRecord& rec) = 0;
};

/// CSV sink: header row on construction, one row per record.
class CsvSink final : public RecordSink {
 public:
  explicit CsvSink(const std::string& path);
  void write(const SweepRecord& rec) override;

 private:
  std::ofstream out_;
  std::string line_;  ///< reused row buffer
};

/// JSON-Lines sink: one object per record.
class JsonlSink final : public RecordSink {
 public:
  explicit JsonlSink(const std::string& path);
  void write(const SweepRecord& rec) override;

 private:
  std::ofstream out_;
  std::string line_;  ///< reused line buffer
};

/// Campaign-level summary table: per-protocol medians of speed, decay and
/// survival, plus total simulation cost. Rendered via TextTable.
[[nodiscard]] std::string render_summary(
    const std::vector<SweepRecord>& records);

}  // namespace iw::sweep
