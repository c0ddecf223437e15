#include "service/cache.hpp"

#include <cstdio>
#include <utility>

#include "support/hash.hpp"
#include "verify/golden.hpp"

namespace iw::service {
namespace {

// Exact, locale-free double serialization: hexfloats round-trip every bit,
// so two submissions whose parsed values are binary-equal produce the same
// key and *only* those. (csv_num's 12 significant digits would alias
// distinct doubles; the protocol's 17-digit decimal form would work but is
// longer and subtler to reason about.)
std::string canon(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}
std::string canon(std::int64_t v) { return std::to_string(v); }
std::string canon(int v) { return std::to_string(v); }
std::string canon(std::uint64_t v) { return std::to_string(v); }
std::string canon(const std::string& v) { return v; }

/// Axis value in canonical form: enum axes via their to_string name (the
/// AxisValue record form), arithmetic axes via the exact serializers above.
template <typename T>
std::string canon_axis(T v) {
  return canon(sweep::AxisValue<T>::to_record(v));
}

}  // namespace

std::string canonical_point_key(const sweep::SweepSpec& spec,
                                const sweep::SweepPoint& pt) {
  return canonical_point_key(spec, pt, verify::kGoldenSchemaVersion);
}

std::string canonical_point_key(const sweep::SweepSpec& spec,
                                const sweep::SweepPoint& pt,
                                int schema_version) {
  std::string key = "iw-point;schema=";
  key += canon(schema_version);
  // Campaign scalars that build_experiment() folds into every point. The
  // injection fraction matters for ring sweeps only, but including it
  // unconditionally costs nothing and can only split entries that would
  // have been equal anyway.
  key += ";workload=";
  key += sweep::to_string(pt.workload);
  key += ";steps=";
  key += canon(spec.steps);
  key += ";texec_ns=";
  key += canon(spec.texec.ns());
  key += ";distance=";
  key += canon(spec.distance);
  key += ";injection_step=";
  key += canon(spec.injection_step);
  key += ";injection_at=";
  key += canon(spec.injection_at);
  key += ";min_idle_ns=";
  key += canon(spec.min_idle.ns());
  key += ";system_noise=";
  key += spec.system_noise;
  key += ";ffwd=";
  key += spec.ffwd;
  // Every axis of the registry, in declaration order — the submission's
  // own declaration order never reaches this function.
#define IW_AXIS_CANON(field, Type, flag, column, default_) \
  key += ";" column "=";                                   \
  key += canon_axis<Type>(pt.field);
  IW_SWEEP_AXES(IW_AXIS_CANON)
#undef IW_AXIS_CANON
  key += ";seed=";
  key += canon(pt.exp.cluster.seed);
  return key;
}

std::string key_address(const std::string& canonical_key) {
  return hash_hex(fnv1a64(canonical_key));
}

const std::string* PointCache::find(const std::string& key) const {
  const auto it = store_.find(key);
  return it == store_.end() ? nullptr : &it->second;
}

const std::string& PointCache::insert(const std::string& key,
                                      std::string line) {
  const auto [it, inserted] = store_.emplace(key, std::move(line));
  if (inserted) bytes_ += it->first.size() + it->second.size();
  return it->second;
}

}  // namespace iw::service
