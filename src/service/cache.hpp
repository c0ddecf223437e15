// Content-addressed store of completed sweep points.
//
// The campaign service never recomputes physics two clients already paid
// for: a completed point's JSON record line (the exact bytes a JsonlSink
// writes for it) is cached under a canonical
// serialization of everything that determines it — the expanded point's
// axis values and campaign scalars, the point's RNG seed, and the record
// schema version. The canonical string is the store key (exact-match, so
// hash collisions are impossible by construction); the FNV-1a digest of it
// is the short content address used in logs and status output.
//
// The key is built from the *expanded, typed* point, never from client
// input text: axis values land in IW_SWEEP_AXES registry order regardless
// of the order a submission declared them in, and numeric values are
// serialized from their parsed binary form (doubles as exact hexfloats),
// so "12", "12.0" and "1.2e1" address the same entry. Byte-identity of a
// cache hit with a fresh run follows from determinism: every record column
// except `index` is a pure function of the key's inputs, and the service
// rewrites `index` to the requesting campaign's point index on every hit
// (sweep::with_json_index); every other byte is replayed as stored.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "sweep/spec.hpp"

namespace iw::service {

/// Canonical cache key of one expanded point. `schema_version` defaults to
/// the live record-schema version (verify::kGoldenSchemaVersion) — a schema
/// bump invalidates every cached record, which is exactly right: the cached
/// bytes could no longer match a fresh run's serialization.
[[nodiscard]] std::string canonical_point_key(const sweep::SweepSpec& spec,
                                              const sweep::SweepPoint& pt);
[[nodiscard]] std::string canonical_point_key(const sweep::SweepSpec& spec,
                                              const sweep::SweepPoint& pt,
                                              int schema_version);

/// Short content address (FNV-1a 64, hex) of a canonical key.
[[nodiscard]] std::string key_address(const std::string& canonical_key);

class PointCache {
 public:
  /// The cached record line for `key`, or nullptr.
  [[nodiscard]] const std::string* find(const std::string& key) const;

  /// Stores `line` under `key` and returns the stored line. Re-inserting an
  /// existing key keeps (and returns) the first line: determinism makes
  /// them equal up to `index`, and keeping the first makes that checkable
  /// by tests instead of silently overwriting.
  const std::string& insert(const std::string& key, std::string line);

  [[nodiscard]] std::size_t size() const { return store_.size(); }
  /// Key plus line bytes held (string payloads, not map node overhead).
  [[nodiscard]] std::size_t bytes() const { return bytes_; }

 private:
  /// Node-based and never evicted: the lines find() and insert() return
  /// stay valid for the cache's lifetime, so jobs refer to them.
  std::map<std::string, std::string> store_;
  std::size_t bytes_ = 0;
};

}  // namespace iw::service
