// Content-addressed store of completed sweep points.
//
// The campaign service never recomputes physics two clients already paid
// for: a completed point's record is cached under a canonical encoding of
// everything that determines it — the expanded point's axis values and
// campaign scalars, the point's RNG seed, and the record schema version.
//
// Key. A packed byte string, never persisted or sent: integers and doubles
// as their raw fixed-width bytes (doubles by bit pattern, at least as fine
// as an exact hexfloat rendering), text fields prefixed by their u32
// length, so no two distinct inputs share an encoding. Lookup is
// exact-match, so collisions are impossible by construction. A catalog
// point's key is 154-165 B. The key is built from the *expanded, typed*
// point, never from client input text: axis values land in IW_SWEEP_AXES
// registry order regardless of the order a submission declared them in, and
// numbers are encoded from their parsed binary form, so "12", "12.0" and
// "1.2e1" address the same entry.
//
// Value. The record's columns 1..N (every column except `index`) as the
// codec writes them, comma-joined (sweep::append_record_values), about
// 210 B per point. A replay interleaves the schema's column names with this
// stored text (sweep::append_json_from_values) and writes the requesting
// campaign's point index; no number is formatted again. Byte-identity of a
// cache hit with a fresh run follows from determinism: every column except
// `index` is a pure function of the key's inputs.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "sweep/spec.hpp"

namespace iw::service {

/// Packed cache key of one expanded point. `schema_version` defaults to the
/// live record-schema version (verify::kGoldenSchemaVersion) — a schema bump
/// invalidates every cached record, which is exactly right: the cached
/// values could no longer match a fresh run's serialization.
[[nodiscard]] std::string canonical_point_key(const sweep::SweepSpec& spec,
                                              const sweep::SweepPoint& pt);
[[nodiscard]] std::string canonical_point_key(const sweep::SweepSpec& spec,
                                              const sweep::SweepPoint& pt,
                                              int schema_version);

class PointCache {
 public:
  /// The cached record values for `key`, or nullptr.
  [[nodiscard]] const std::string* find(const std::string& key) const;

  /// Stores `values` under `key` and returns the stored values. Re-inserting
  /// an existing key keeps (and returns) the first values: determinism
  /// makes them equal, and keeping the first makes that checkable by tests
  /// instead of silently overwriting.
  const std::string& insert(const std::string& key, std::string_view values);

  [[nodiscard]] std::size_t size() const { return store_.size(); }
  /// Key plus value bytes held (string payloads, not map node overhead).
  [[nodiscard]] std::size_t bytes() const { return bytes_; }

 private:
  /// Node-based and never evicted: the values find() and insert() return
  /// stay valid for the cache's lifetime, so jobs refer to them.
  std::map<std::string, std::string> store_;
  std::size_t bytes_ = 0;
};

}  // namespace iw::service
