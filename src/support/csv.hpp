// Minimal CSV and JSON-Lines emission for the sweep record sinks.
#pragma once

#include <fstream>
#include <string>
#include <utility>
#include <vector>

namespace iw {

/// Writes rows of comma-separated values with RFC-4180-style quoting of
/// fields that contain commas, quotes, or newlines. The writer owns the
/// stream; destruction flushes and closes it.
class CsvWriter {
 public:
  /// Opens `path` for writing; throws std::runtime_error on failure.
  explicit CsvWriter(const std::string& path);

  void header(const std::vector<std::string>& names) { row(names); }
  void row(const std::vector<std::string>& fields);

 private:
  std::ofstream out_;
};

/// Formats a double with enough digits for round-tripping figure data.
[[nodiscard]] std::string csv_num(double v);

/// Streams one JSON object per line (JSON Lines).
class JsonlWriter {
 public:
  /// Opens `path` for writing; throws std::runtime_error on failure.
  explicit JsonlWriter(const std::string& path);

  /// Writes one already-serialized JSON object as a line, verbatim. The
  /// campaign service streams the exact same bytes over its socket; sharing
  /// the serialization (json_object below) is what makes "cached replay is
  /// byte-identical to a sink file" a structural property instead of a hope.
  void raw_line(const std::string& json);

 private:
  std::ofstream out_;
};

/// Encodes `s` as a JSON string literal, quotes included.
[[nodiscard]] std::string json_str(const std::string& s);

/// Serializes one flat JSON object (no trailing newline). Field values are
/// raw JSON fragments: pass numbers through csv_num()/std::to_string() and
/// strings through json_str(). This is the single serialization the JSONL
/// sink and the service stream share.
[[nodiscard]] std::string json_object(
    const std::vector<std::pair<std::string, std::string>>& fields);

}  // namespace iw
