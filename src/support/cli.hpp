// Tiny command-line flag parser for the benches and examples.
//
// Accepts `--key=value`, `--key value`, and boolean `--flag` forms. Unknown
// flags are an error so typos in sweep scripts fail loudly instead of
// silently running the default experiment.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace iw {

class Cli {
 public:
  /// Parses argv. Throws std::invalid_argument on malformed input.
  Cli(int argc, const char* const* argv);

  /// Declares a flag so it passes the unknown-flag check; returns its value.
  [[nodiscard]] std::optional<std::string> get(const std::string& key) const;

  [[nodiscard]] std::string get_or(const std::string& key,
                                   const std::string& fallback) const;
  /// Numeric flags: `fallback` when absent; throws std::invalid_argument
  /// unless the whole value parses (`--steps=12x` is an error, not 12).
  [[nodiscard]] double get_or(const std::string& key, double fallback) const;
  [[nodiscard]] std::int64_t get_or(const std::string& key,
                                    std::int64_t fallback) const;
  /// Range-checked integer flags: `fallback` when absent; throws
  /// std::invalid_argument unless the whole value is a decimal integer
  /// that fits the type (`--steps=4294967306` is an error, not 10). The
  /// unsigned getter rejects any sign (`--seed=-1` is an error, not 2^64-1).
  [[nodiscard]] int get_int_or(const std::string& key, int fallback) const;
  [[nodiscard]] std::uint64_t get_u64_or(const std::string& key,
                                         std::uint64_t fallback) const;
  [[nodiscard]] bool has(const std::string& key) const;

  /// Comma-separated numeric lists for sweep axes: `--np=4,8,16`. Returns
  /// `fallback` when the flag is absent; throws std::invalid_argument on
  /// empty elements ("4,,8"), trailing separators, or non-numeric input.
  [[nodiscard]] std::vector<std::int64_t> get_list_or(
      const std::string& key, std::vector<std::int64_t> fallback) const;
  [[nodiscard]] std::vector<double> get_list_or(
      const std::string& key, std::vector<double> fallback) const;

  /// Int-valued axis lists (`--np=4,8,16`): parses as int64 and range-checks
  /// every element into int, throwing std::invalid_argument on overflow
  /// instead of silently truncating.
  [[nodiscard]] std::vector<int> get_int_list_or(
      const std::string& key, std::vector<int> fallback) const;

  /// Ensures every provided flag is among `known`; throws otherwise.
  void allow_only(const std::vector<std::string>& known) const;

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace iw
