// Edge cases of the hierarchical fabric tier: rank counts that do not divide
// the switch-group size, the pattern period, and the division-free
// classification tables checked against a naive modulo reference over
// randomized shapes.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "net/topology.hpp"
#include "support/rng.hpp"

namespace iw::net {
namespace {

/// The straightforward all-divisions classification the precomputed tables
/// must reproduce: tier index = rank / (ranks per tier), compared top-down.
LinkClass classify_naive(const TopologySpec& spec, int per_socket, int a,
                         int b) {
  if (a == b) return LinkClass::self;
  const int per_node = per_socket * spec.sockets_per_node;
  if (a / per_socket == b / per_socket) return LinkClass::intra_socket;
  if (a / per_node == b / per_node) return LinkClass::inter_socket;
  if (spec.nodes_per_switch == 0) return LinkClass::inter_node;
  const int per_switch = per_node * spec.nodes_per_switch;
  if (a / per_switch == b / per_switch) return LinkClass::inter_node;
  return LinkClass::inter_switch;
}

void expect_matches_naive(const TopologySpec& spec) {
  const Topology topo(spec);
  const int per_socket = topo.ranks_per_socket();
  std::array<bool, static_cast<std::size_t>(kLinkClassCount)> seen{};
  for (int a = 0; a < spec.ranks; ++a) {
    for (int b = 0; b < spec.ranks; ++b) {
      const LinkClass got = topo.classify(a, b);
      const LinkClass want = classify_naive(spec, per_socket, a, b);
      ASSERT_EQ(got, want) << "ranks " << a << " -> " << b << " (np="
                           << spec.ranks << ", per_socket=" << per_socket
                           << ", sockets=" << spec.sockets_per_node
                           << ", nodes/switch=" << spec.nodes_per_switch
                           << ")";
      seen[static_cast<std::size_t>(got)] = true;
    }
  }
  // produces() must agree exactly with the exhaustively observed classes.
  for (int c = 0; c < kLinkClassCount; ++c) {
    const auto cls = static_cast<LinkClass>(c);
    EXPECT_EQ(topo.produces(cls), seen[static_cast<std::size_t>(c)])
        << "produces(" << to_string(cls) << ") disagrees with observation";
  }
}

/// The spec's pattern period is the topology's, and classification repeats
/// with it: every pair shifted by one period classifies like the unshifted
/// pair (longer shifts follow by induction).
void expect_period_invariant(const TopologySpec& spec) {
  const Topology topo(spec);
  const int period = spec.pattern_period();
  ASSERT_EQ(period, topo.pattern_period());
  for (int a = 0; a + period < spec.ranks; ++a)
    for (int b = 0; b + period < spec.ranks; ++b)
      ASSERT_EQ(topo.classify(a, b), topo.classify(a + period, b + period))
          << "ranks " << a << " -> " << b << " shifted by " << period
          << " (np=" << spec.ranks << ")";
}

TEST(TopologyHierarchyEdges, RanksNotDivisibleBySwitchGroup) {
  // 2 ranks/socket x 2 sockets x 3 nodes = 12 ranks per switch group;
  // 50 ranks fill 4 switch groups with the last one partial (2 ranks).
  TopologySpec spec;
  spec.ranks = 50;
  spec.ranks_per_socket = 2;
  spec.nodes_per_switch = 3;
  const Topology topo(spec);
  EXPECT_EQ(topo.ranks_per_switch(), 12);
  EXPECT_EQ(topo.switches(), 5);  // ceil(50 / 12)
  EXPECT_EQ(topo.switch_of(47), 3);
  EXPECT_EQ(topo.switch_of(48), 4);
  // The partial last group (ranks 48-49) still classifies like any other:
  // 48 and 49 share a socket; 40 and 44 share switch group 3 but not a
  // node; 48 (group 4) and 36 (group 3) cross the switch tier.
  EXPECT_EQ(topo.classify(48, 49), LinkClass::intra_socket);
  EXPECT_EQ(topo.classify(40, 44), LinkClass::inter_node);
  EXPECT_EQ(topo.classify(48, 36), LinkClass::inter_switch);
  expect_matches_naive(spec);
}

TEST(TopologyHierarchyEdges, PatternPeriodTranslationInvariance) {
  TopologySpec spec;
  spec.ranks = 3 * 12;  // three full switch groups
  spec.ranks_per_socket = 2;
  spec.nodes_per_switch = 3;
  EXPECT_EQ(spec.pattern_period(), 12);
  expect_period_invariant(spec);
  // ranks_per_socket = 0 fills every core: 3 cores x 2 sockets x 2 nodes.
  spec.ranks_per_socket = 0;
  spec.cores_per_socket = 3;
  spec.nodes_per_switch = 2;
  EXPECT_EQ(spec.pattern_period(), 12);
  expect_period_invariant(spec);
  // Without a switch tier the node is the period.
  spec.nodes_per_switch = 0;
  EXPECT_EQ(spec.pattern_period(), 6);
  expect_period_invariant(spec);
}

TEST(TopologyHierarchyEdges, RandomizedShapesMatchNaiveReference) {
  // Deterministic fuzz over tier shapes, including a disabled switch tier
  // and partial top groups. Every (a, b) pair of every shape must agree
  // with the all-divisions reference and repeat with the pattern period.
  const Rng rng(0x70D07071ull);
  for (int trial = 0; trial < 40; ++trial) {
    const Rng r = rng.fork(static_cast<std::uint64_t>(trial));
    TopologySpec spec;
    spec.ranks_per_socket = 1 + static_cast<int>(r.fork(0).next_u64() % 3);
    spec.sockets_per_node = 1 + static_cast<int>(r.fork(1).next_u64() % 3);
    spec.nodes_per_switch = static_cast<int>(r.fork(2).next_u64() % 4);  // 0-3
    spec.ranks = 2 + static_cast<int>(r.fork(4).next_u64() % 60);
    expect_matches_naive(spec);
    expect_period_invariant(spec);
  }
}

}  // namespace
}  // namespace iw::net
