#include "support/cli.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace iw {

Cli::Cli(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0)
      throw std::invalid_argument("expected --flag, got: " + arg);
    arg.erase(0, 2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "true";
    }
  }
}

std::optional<std::string> Cli::get(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::string Cli::get_or(const std::string& key,
                        const std::string& fallback) const {
  return get(key).value_or(fallback);
}

namespace {

std::int64_t parse_int64(const std::string& s, std::size_t* consumed) {
  return std::stoll(s, consumed);
}

double parse_double(const std::string& s, std::size_t* consumed) {
  return std::stod(s, consumed);
}

template <typename T>
using ParseFn = T (*)(const std::string&, std::size_t*);

// Converts `text` with `parse`, demanding that the whole string is
// consumed ("12x" is an error, not 12); nullopt on any failure.
template <typename T>
std::optional<T> parse_full(const std::string& text, ParseFn<T> parse) {
  std::size_t consumed = 0;
  try {
    const T value = parse(text, &consumed);
    if (consumed == text.size()) return value;
  } catch (const std::exception&) {
  }
  return std::nullopt;
}

template <typename T>
T parse_scalar(const std::string& key, const std::string& text,
               ParseFn<T> parse) {
  const std::optional<T> value = parse_full(text, parse);
  if (!value)
    throw std::invalid_argument("--" + key + ": bad value '" + text + "'");
  return *value;
}

// Splits "4,8,16" into trimmed-nothing elements and converts each with
// `parse`, demanding that the whole element is consumed.
template <typename T>
std::vector<T> parse_list(const std::string& key, const std::string& raw,
                          ParseFn<T> parse) {
  std::vector<T> out;
  std::size_t begin = 0;
  for (;;) {
    const std::size_t comma = raw.find(',', begin);
    const std::string elem = raw.substr(
        begin, comma == std::string::npos ? std::string::npos : comma - begin);
    const std::optional<T> value = parse_full(elem, parse);
    if (!value)
      throw std::invalid_argument("--" + key + ": bad list element '" + elem +
                                  "' in '" + raw + "'");
    out.push_back(*value);
    if (comma == std::string::npos) break;
    begin = comma + 1;
  }
  return out;
}

}  // namespace

double Cli::get_or(const std::string& key, double fallback) const {
  const auto v = get(key);
  if (!v) return fallback;
  return parse_scalar(key, *v, parse_double);
}

std::int64_t Cli::get_or(const std::string& key, std::int64_t fallback) const {
  const auto v = get(key);
  if (!v) return fallback;
  return parse_scalar(key, *v, parse_int64);
}

bool Cli::has(const std::string& key) const { return values_.count(key) > 0; }

std::vector<std::int64_t> Cli::get_list_or(
    const std::string& key, std::vector<std::int64_t> fallback) const {
  const auto v = get(key);
  if (!v) return fallback;
  return parse_list<std::int64_t>(key, *v, parse_int64);
}

std::vector<double> Cli::get_list_or(const std::string& key,
                                     std::vector<double> fallback) const {
  const auto v = get(key);
  if (!v) return fallback;
  return parse_list<double>(key, *v, parse_double);
}

std::vector<int> Cli::get_int_list_or(const std::string& key,
                                      std::vector<int> fallback) const {
  if (!has(key)) return fallback;
  std::vector<int> out;
  for (const std::int64_t v : get_list_or(key, std::vector<std::int64_t>{})) {
    if (v < std::numeric_limits<int>::min() ||
        v > std::numeric_limits<int>::max())
      throw std::invalid_argument("--" + key + ": value out of range: " +
                                  std::to_string(v));
    out.push_back(static_cast<int>(v));
  }
  return out;
}

void Cli::allow_only(const std::vector<std::string>& known) const {
  for (const auto& [key, value] : values_) {
    if (std::find(known.begin(), known.end(), key) == known.end())
      throw std::invalid_argument("unknown flag: --" + key);
  }
}

}  // namespace iw
