// Number and JSON text primitives shared by the record codec
// (sweep/record), the service protocol and the metrics snapshot.
#pragma once

#include <charconv>
#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>
#include <vector>

namespace iw {

/// Room for any text write_num produces ("-1.23456789012e-308" is 19).
inline constexpr std::size_t kNumChars = 32;

/// Writes `v` as printf("%.12g") prints it (std::to_chars, general format,
/// 12 significant digits: enough for figure data) into `buf`, which holds
/// kNumChars bytes; returns the end of the text. No allocation.
char* write_num(char* buf, double v);

/// write_num as a string.
[[nodiscard]] std::string csv_num(double v);

/// `v` as printf("%.17g") prints it: the service wire format, which
/// round-trips every double exactly and stays readable.
[[nodiscard]] std::string num17(double v);

/// The whole of `text` as an integer or double, by std::from_chars rules:
/// no sign on unsigned types, no leading '+' or whitespace, no trailing
/// bytes. nullopt when it does not parse or does not fit T (never wraps).
template <typename T>
[[nodiscard]] std::optional<T> parse_whole(std::string_view text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return value;
}

/// Splits `text` at every comma, without quoting ("a,,b" gives "a", "",
/// "b"; "" gives one empty element).
[[nodiscard]] std::vector<std::string> split_commas(std::string_view text);

/// Encodes `s` as a JSON string literal, quotes included.
[[nodiscard]] std::string json_str(const std::string& s);

/// Serializes one flat JSON object (no trailing newline). Field values are
/// raw JSON fragments: pass numbers through csv_num()/std::to_string() and
/// strings through json_str().
[[nodiscard]] std::string json_object(
    const std::vector<std::pair<std::string, std::string>>& fields);

}  // namespace iw
