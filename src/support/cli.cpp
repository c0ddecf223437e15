#include "support/cli.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "support/csv.hpp"

namespace iw {

Cli::Cli(int argc, const char* const* argv) {
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

// `fallback` when the flag is absent (`raw` empty), else its value parsed
// whole as T: malformed or out-of-range input throws, never truncates.
template <typename T>
T scalar_or(const std::string& key, const std::optional<std::string>& raw,
            T fallback) {
  if (!raw) return fallback;
  const std::optional<T> value = parse_whole<T>(*raw);
  if (!value)
    throw std::invalid_argument("--" + key + ": bad value '" + *raw + "'");
  return *value;
}

// The same for a comma-separated list ("4,8,16"), element by element.
template <typename T>
std::vector<T> list_or(const std::string& key,
                       const std::optional<std::string>& raw,
                       std::vector<T> fallback) {
  if (!raw) return fallback;
  std::vector<T> out;
  for (const std::string& elem : split_commas(*raw)) {
    const std::optional<T> value = parse_whole<T>(elem);
    if (!value)
      throw std::invalid_argument("--" + key + ": bad list element '" + elem +
                                  "' in '" + *raw + "'");
    out.push_back(*value);
  }
  return out;
}

}  // namespace

double Cli::get_or(const std::string& key, double fallback) const {
  return scalar_or(key, get(key), fallback);
}

std::int64_t Cli::get_or(const std::string& key, std::int64_t fallback) const {
  return scalar_or(key, get(key), fallback);
}

int Cli::get_int_or(const std::string& key, int fallback) const {
  return scalar_or(key, get(key), fallback);
}

std::uint64_t Cli::get_u64_or(const std::string& key,
                              std::uint64_t fallback) const {
  return scalar_or(key, get(key), fallback);
}

bool Cli::has(const std::string& key) const { return values_.count(key) > 0; }

std::vector<std::int64_t> Cli::get_list_or(
    const std::string& key, std::vector<std::int64_t> fallback) const {
  return list_or(key, get(key), std::move(fallback));
}

std::vector<double> Cli::get_list_or(const std::string& key,
                                     std::vector<double> fallback) const {
  return list_or(key, get(key), std::move(fallback));
}

std::vector<int> Cli::get_int_list_or(const std::string& key,
                                      std::vector<int> fallback) const {
  return list_or(key, get(key), std::move(fallback));
}

void Cli::allow_only(const std::vector<std::string>& known) const {
  for (const auto& [key, value] : values_) {
    if (std::find(known.begin(), known.end(), key) == known.end())
      throw std::invalid_argument("unknown flag: --" + key);
  }
}

}  // namespace iw
