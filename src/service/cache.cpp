#include "service/cache.hpp"

#include <cstdint>
#include <limits>
#include <type_traits>

#include "support/error.hpp"
#include "verify/golden.hpp"

namespace iw::service {
namespace {

// Injective field encoders. Every field sits at a fixed position in a fixed
// order, so fixed-width numbers need no separator, and a length prefix
// marks where each text field ends. Host byte order is fine: the key never
// leaves the process.
template <typename T>
  requires std::is_arithmetic_v<T>
void put(std::string& key, T v) {
  key.append(reinterpret_cast<const char*>(&v), sizeof v);
}

void put(std::string& key, std::string_view text) {
  IW_REQUIRE(text.size() <= std::numeric_limits<std::uint32_t>::max(),
             "cache key text field longer than 4 GiB");
  put(key, static_cast<std::uint32_t>(text.size()));
  key += text;
}

}  // namespace

std::string canonical_point_key(const sweep::SweepSpec& spec,
                                const sweep::SweepPoint& pt) {
  return canonical_point_key(spec, pt, verify::kGoldenSchemaVersion);
}

std::string canonical_point_key(const sweep::SweepSpec& spec,
                                const sweep::SweepPoint& pt,
                                int schema_version) {
  std::string key;
  key.reserve(256);
  put(key, schema_version);
  // Campaign scalars that build_experiment() folds into every point. The
  // injection fraction matters for ring sweeps only, but including it
  // unconditionally costs nothing and can only split entries that would
  // have been equal anyway.
  put(key, std::string_view(sweep::to_string(pt.workload)));
  put(key, spec.steps);
  put(key, spec.texec.ns());
  put(key, spec.distance);
  put(key, spec.injection_step);
  put(key, spec.injection_at);
  put(key, spec.min_idle.ns());
  put(key, spec.system_noise);
  put(key, spec.ffwd);
  // Every axis of the registry, in declaration order — the submission's
  // own declaration order never reaches this function. Enum axes enter as
  // their to_string name (the AxisValue record form).
#define IW_AXIS_KEY(field, Type, flag, column, default_) \
  put(key, sweep::AxisValue<Type>::to_record(pt.field));
  IW_SWEEP_AXES(IW_AXIS_KEY)
#undef IW_AXIS_KEY
  put(key, pt.exp.cluster.seed);
  // An unfinished job holds its keys: hand it an exact-size copy, not the
  // reserved buffer.
  return std::string(key);
}

const std::string* PointCache::find(const std::string& key) const {
  const auto it = store_.find(key);
  return it == store_.end() ? nullptr : &it->second;
}

const std::string& PointCache::insert(const std::string& key,
                                      std::string_view values) {
  const auto [it, inserted] = store_.try_emplace(key, values);
  if (inserted) bytes_ += it->first.size() + it->second.size();
  return it->second;
}

}  // namespace iw::service
