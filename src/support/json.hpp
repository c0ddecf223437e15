// Minimal self-contained JSON reader.
//
// Covers exactly the dialect this project emits (json_str() escapes,
// csv_num() numbers, flat objects/arrays): objects, arrays, strings,
// numbers, booleans and null. Promoted out of verify/baseline.cpp so the
// campaign-service protocol (line-delimited JSON over a local socket) and
// the verdict baseliner parse with one implementation. Unknown fields are
// the caller's business — the reader materializes the whole document and
// lookups are by key.
//
// Not a general-purpose parser: \u escapes beyond Latin-1 are rejected
// (json_str never emits them) and numbers land in a double (u64-exact
// values travel quoted, per the record-schema convention).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace iw::json {

/// Deepest array/object nesting parse() accepts. The project's own
/// documents nest about 4 deep; the bound keeps the recursive reader's stack
/// use constant, so one hostile line cannot overflow it.
inline constexpr int kMaxDepth = 64;

struct Value {
  enum class Kind : std::uint8_t { null, boolean, number, string, array, object };
  Kind kind = Kind::null;
  bool boolean = false;
  double number = 0.0;
  std::string text;
  std::vector<Value> items;
  std::vector<std::pair<std::string, Value>> members;

  /// First member named `key`; nullptr when absent (objects only).
  [[nodiscard]] const Value* find(const std::string& key) const {
    for (const auto& [name, value] : members)
      if (name == key) return &value;
    return nullptr;
  }

  [[nodiscard]] bool is(Kind k) const { return kind == k; }
};

/// Parses one complete JSON document. Throws std::runtime_error naming the
/// byte offset on malformed input, trailing content or nesting deeper than
/// kMaxDepth; `what` prefixes the message so callers can say whose JSON was
/// bad ("verdict JSON", "request").
[[nodiscard]] Value parse(const std::string& text,
                          const std::string& what = "JSON");

}  // namespace iw::json
