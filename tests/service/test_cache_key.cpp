// Property tests for the campaign service's canonical cache key.
//
// The key must be a pure function of what determines a point's record —
// expanded axis values, campaign scalars, the point seed, and the record
// schema version — and of nothing else. In particular it must not depend on
// how a submission *spelled* those values: axis declaration order in the
// protocol's "axes" object and numeric spelling ("12" vs "12.0" vs "1.2e1")
// are client-side accidents that land on the same expanded point.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "service/cache.hpp"
#include "service/protocol.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "sweep/scenario.hpp"
#include "sweep/spec.hpp"
#include "verify/golden.hpp"

namespace iw::service {
namespace {

sweep::SweepSpec base_spec() {
  sweep::SweepSpec spec;
  spec.np = {4};
  spec.steps = 4;
  spec.texec = milliseconds(0.5);
  spec.system_noise = "none";
  return spec;
}

std::vector<std::string> keys_of(const sweep::SweepSpec& spec) {
  std::vector<std::string> keys;
  for (const sweep::SweepPoint& pt : sweep::expand(spec))
    keys.push_back(canonical_point_key(spec, pt));
  return keys;
}

TEST(CacheKey, DeterministicAndDistinctAcrossPoints) {
  const sweep::SweepSpec spec = [] {
    sweep::SweepSpec s = base_spec();
    s.delay_ms = {6.0, 12.0};
    s.msg_bytes = {4096, 65536};
    return s;
  }();
  const std::vector<std::string> a = keys_of(spec);
  const std::vector<std::string> b = keys_of(spec);
  EXPECT_EQ(a, b);
  const std::set<std::string> unique(a.begin(), a.end());
  EXPECT_EQ(unique.size(), a.size()) << "points within a campaign collide";
}

TEST(CacheKey, InvariantUnderAxisDeclarationOrder) {
  // Two protocol submissions of the same campaign, axes declared in
  // opposite orders. The expanded points must address the same entries.
  const std::string fwd =
      R"({"steps":4,"texec_ns":500000,"system_noise":"none",)"
      R"("axes":{"delay_ms":[6,12],"msg_bytes":[4096],"np":[4]}})";
  const std::string rev =
      R"({"steps":4,"texec_ns":500000,"system_noise":"none",)"
      R"("axes":{"np":[4],"msg_bytes":[4096],"delay_ms":[6,12]}})";
  const sweep::SweepSpec a = spec_from_json(json::parse(fwd));
  const sweep::SweepSpec b = spec_from_json(json::parse(rev));
  EXPECT_EQ(keys_of(a), keys_of(b));
}

TEST(CacheKey, InvariantUnderNumericSpelling) {
  // "12", "12.0" and "1.2e1" parse to the same double, hence the same key.
  const char* spellings[] = {
      R"({"axes":{"delay_ms":[12],"np":[4]},"steps":4,"system_noise":"none"})",
      R"({"axes":{"delay_ms":[12.0],"np":[4]},"steps":4,"system_noise":"none"})",
      R"({"axes":{"delay_ms":[1.2e1],"np":[4]},"steps":4,"system_noise":"none"})",
  };
  const std::vector<std::string> first =
      keys_of(spec_from_json(json::parse(spellings[0])));
  for (const char* text : spellings)
    EXPECT_EQ(keys_of(spec_from_json(json::parse(text))), first) << text;
}

TEST(CacheKey, DistinctAcrossSeedSchemaAndPoint) {
  const sweep::SweepSpec spec = base_spec();
  const auto pts = sweep::expand(spec);
  ASSERT_EQ(pts.size(), 1u);
  const std::string key = canonical_point_key(spec, pts[0]);

  // Seed: a different campaign seed changes every point's fork.
  sweep::SweepSpec reseeded = spec;
  reseeded.campaign_seed += 1;
  EXPECT_NE(canonical_point_key(reseeded, sweep::expand(reseeded)[0]), key);

  // Schema version: a bump invalidates all cached records.
  EXPECT_NE(canonical_point_key(spec, pts[0],
                                verify::kGoldenSchemaVersion + 1),
            key);
  EXPECT_EQ(canonical_point_key(spec, pts[0], verify::kGoldenSchemaVersion),
            key);

  // Point: any axis perturbation moves the address.
  sweep::SweepSpec moved = spec;
  moved.delay_ms = {spec.delay_ms[0] + 1.0};
  EXPECT_NE(canonical_point_key(moved, sweep::expand(moved)[0]), key);
}

void field(std::ostream& os, const std::string& v) {
  os << v.size() << ':' << v << '|';
}

template <typename T>
  requires std::is_arithmetic_v<T>
void field(std::ostream& os, T v) {
  os << v << '|';
}

/// The key's inputs as text — doubles as exact hexfloats, text fields with
/// their length — the reference the packed key must agree with: two points
/// share a key exactly when their texts match.
std::string key_inputs_text(const sweep::SweepSpec& spec,
                            const sweep::SweepPoint& pt) {
  std::ostringstream os;
  os << std::hexfloat;
  field(os, std::string(sweep::to_string(pt.workload)));
  field(os, spec.steps);
  field(os, spec.texec.ns());
  field(os, spec.distance);
  field(os, spec.injection_step);
  field(os, spec.injection_at);
  field(os, spec.min_idle.ns());
  field(os, spec.system_noise);
  field(os, spec.ffwd);
#define IW_AXIS_TEXT(field_, Type, flag, column, default_) \
  field(os, sweep::AxisValue<Type>::to_record(pt.field_));
  IW_SWEEP_AXES(IW_AXIS_TEXT)
#undef IW_AXIS_TEXT
  field(os, pt.exp.cluster.seed);
  return os.str();
}

TEST(CacheKey, PackedKeyIsInjective) {
  const sweep::SweepSpec spec = base_spec();
  const sweep::SweepPoint pt = sweep::expand(spec)[0];
  // Text fields that concatenate to the same bytes ("none"+"off" and
  // "noneo"+"ff"): their length prefixes keep the keys apart.
  sweep::SweepSpec shifted = spec;
  shifted.system_noise = "noneo";
  shifted.ffwd = "ff";
  EXPECT_NE(canonical_point_key(shifted, pt), canonical_point_key(spec, pt));
  sweep::SweepSpec empty_noise = spec;
  empty_noise.system_noise = "";
  empty_noise.ffwd = "noneoff";
  EXPECT_NE(canonical_point_key(empty_noise, pt),
            canonical_point_key(spec, pt));

  // Every catalog point at one shared seed: the axes and campaign scalars
  // alone must separate them, and each key stays compact. Two scenarios may
  // hold the very same point (they then share a cache entry), so the check
  // is a bijection with a plain-text rendering of the same inputs.
  std::set<std::pair<std::string, std::string>> pairs;
  std::set<std::string> keys;
  std::set<std::string> texts;
  for (const sweep::Scenario& scenario : sweep::scenario_catalog()) {
    for (sweep::SweepPoint& p : sweep::expand(scenario.spec)) {
      p.exp.cluster.seed = 1;
      const std::string key = canonical_point_key(scenario.spec, p);
      EXPECT_LE(key.size(), 192u) << scenario.name << " point " << p.index;
      const std::string text = key_inputs_text(scenario.spec, p);
      pairs.emplace(key, text);
      keys.insert(key);
      texts.insert(text);
    }
  }
  EXPECT_GT(pairs.size(), 100u);
  EXPECT_EQ(keys.size(), pairs.size()) << "distinct points share a key";
  EXPECT_EQ(texts.size(), pairs.size()) << "one point has two keys";
}

TEST(PointCache, HoldsLineBytesAndKeepsTheFirst) {
  PointCache cache;
  EXPECT_EQ(cache.find("k"), nullptr);
  const std::string& stored = cache.insert("k", R"({"index":3,"np":8})");
  EXPECT_EQ(stored, R"({"index":3,"np":8})");
  EXPECT_EQ(cache.find("k"), &stored);
  // Re-inserting keeps (and returns) the first line; the reference holds.
  EXPECT_EQ(&cache.insert("k", R"({"index":4,"np":8})"), &stored);
  EXPECT_EQ(stored, R"({"index":3,"np":8})");
  for (int i = 0; i < 100; ++i) {
    std::string key = "k";
    key += std::to_string(i);
    cache.insert(key, "{}");
  }
  EXPECT_EQ(cache.find("k"), &stored);
  EXPECT_EQ(cache.size(), 101u);
}

// ---------------------------------------------------------------------------
// Randomized cases: 200 seeded campaigns. For each, the key must (a) be
// reproducible, (b) survive a protocol round-trip (spec -> JSON -> spec),
// (c) separate points within the campaign, and (d) move when the campaign
// seed moves.
// ---------------------------------------------------------------------------

sweep::SweepSpec random_spec(Rng& rng) {
  sweep::SweepSpec spec;
  spec.workload = sweep::Workload::ring;
  spec.steps = 2 + static_cast<int>(rng.uniform_below(6));
  spec.texec = microseconds(100.0 + rng.uniform(0.0, 400.0));
  spec.distance = 1 + static_cast<int>(rng.uniform_below(2));
  spec.injection_at = rng.uniform(0.1, 0.9);
  spec.min_idle = microseconds(rng.uniform(10.0, 200.0));
  spec.system_noise = "none";
  spec.campaign_seed = rng.next_u64();
  spec.np = {2 + static_cast<int>(rng.uniform_below(6))};
  spec.delay_ms.clear();
  const std::size_t delays = 1 + rng.uniform_below(3);
  for (std::size_t i = 0; i < delays; ++i)
    spec.delay_ms.push_back(rng.uniform(0.5, 24.0));
  spec.msg_bytes.clear();
  const std::size_t sizes = 1 + rng.uniform_below(2);
  for (std::size_t i = 0; i < sizes; ++i)
    spec.msg_bytes.push_back(
        static_cast<std::int64_t>(64 + rng.uniform_below(1 << 16)));
  if (rng.uniform() < 0.5) spec.noise_E_percent = {rng.uniform(0.0, 30.0)};
  if (rng.uniform() < 0.3)
    spec.nic_depth = {static_cast<int>(rng.uniform_below(4))};
  if (rng.uniform() < 0.3)
    spec.eager_credits = {static_cast<int>(rng.uniform_below(8))};
  return spec;
}

TEST(CacheKey, RandomizedCampaigns) {
  constexpr int kCases = 200;
  std::set<std::string> all_keys;
  for (int c = 0; c < kCases; ++c) {
    Rng rng(0x1D7ECA5Eull + static_cast<std::uint64_t>(c));
    const sweep::SweepSpec spec = random_spec(rng);
    const std::vector<std::string> keys = keys_of(spec);

    // (a) reproducible
    ASSERT_EQ(keys_of(spec), keys) << "case " << c;

    // (b) protocol round-trip preserves every key bit-for-bit (doubles
    // travel as 17-digit decimals, the seed as a quoted u64)
    const sweep::SweepSpec rt =
        spec_from_json(json::parse(spec_to_json(spec)));
    ASSERT_EQ(keys_of(rt), keys) << "case " << c;

    // (c) no collisions inside the campaign
    const std::set<std::string> unique(keys.begin(), keys.end());
    ASSERT_EQ(unique.size(), keys.size()) << "case " << c;

    // (d) moving the campaign seed moves every key
    sweep::SweepSpec reseeded = spec;
    reseeded.campaign_seed ^= 0x9E3779B97F4A7C15ull;
    const std::vector<std::string> moved = keys_of(reseeded);
    for (std::size_t i = 0; i < keys.size(); ++i)
      ASSERT_NE(moved[i], keys[i]) << "case " << c << " point " << i;

    all_keys.insert(keys.begin(), keys.end());
  }
  // Cross-campaign: random campaigns essentially never collide.
  EXPECT_GT(all_keys.size(), static_cast<std::size_t>(kCases));
}

}  // namespace
}  // namespace iw::service
