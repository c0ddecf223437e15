// Aligned plain-text tables: the campaign summary and the verification
// verdict print their rows so "who wins, by what factor, where crossovers
// fall" is readable straight off the terminal.
#pragma once

#include <string>
#include <vector>

namespace iw {

class TextTable {
 public:
  /// Sets the column headers; defines the column count.
  void columns(std::vector<std::string> headers);

  /// Appends a data row. Rows shorter than the header are right-padded with
  /// empty cells; longer rows are a precondition violation.
  void add_row(std::vector<std::string> cells);

  /// Appends a horizontal separator line.
  void add_separator();

  /// Renders the table with column alignment and a header rule.
  [[nodiscard]] std::string render() const;

  [[nodiscard]] std::size_t rows() const { return rows_.size(); }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;  // empty vector == separator
};

/// Convenience numeric formatting with fixed decimals.
[[nodiscard]] std::string fmt_fixed(double v, int decimals);

}  // namespace iw
