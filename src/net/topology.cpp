#include "net/topology.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace iw::net {

TopologySpec TopologySpec::one_rank_per_node(int nodes) {
  TopologySpec spec;
  spec.ranks = nodes;
  spec.ranks_per_socket = 1;
  spec.sockets_per_node = 1;  // only the first socket is ever occupied
  return spec;
}

TopologySpec TopologySpec::packed(int ranks, int per_socket) {
  TopologySpec spec;
  spec.ranks = ranks;
  spec.ranks_per_socket = per_socket;
  return spec;
}

Topology::Topology(const TopologySpec& spec) { reset(spec); }

void Topology::reset(const TopologySpec& spec) {
  const int per_socket = spec.placed_per_socket();
  IW_REQUIRE(spec.ranks > 0, "topology needs at least one rank");
  IW_REQUIRE(spec.cores_per_socket > 0, "cores_per_socket must be positive");
  IW_REQUIRE(spec.sockets_per_node > 0, "sockets_per_node must be positive");
  IW_REQUIRE(per_socket <= spec.cores_per_socket,
             "cannot place more ranks on a socket than it has cores");
  IW_REQUIRE(spec.nodes_per_switch >= 0,
             "nodes_per_switch must be non-negative (0 = flat fabric)");
  // Under compact placement a rank's tier indices depend on the tier
  // sizes, not on the rank count: with the same sizes the tables built so
  // far stay valid, and only ranks past their end need entries.
  const bool same_tiers = per_socket == per_socket_ &&
                          spec.sockets_per_node == spec_.sockets_per_node &&
                          spec.nodes_per_switch == spec_.nodes_per_switch;
  const std::size_t valid = same_tiers ? socket_by_rank_.size() : 0;
  spec_ = spec;
  per_socket_ = per_socket;

  // Tier t's index runs in blocks of its rank count: a running counter
  // writes each entry once, with no division per rank. The tables never
  // shrink their storage.
  const int n = spec_.ranks;
  if (valid < static_cast<std::size_t>(n)) {
    const auto extend = [valid, n](std::vector<std::int32_t>& table,
                                   int block) {
      if (block == 0) {  // tier disabled
        table.clear();
        return;
      }
      table.resize(static_cast<std::size_t>(n));
      auto index = static_cast<std::int32_t>(valid / block);
      int left = block - static_cast<int>(valid % block);
      for (std::size_t r = valid; r < table.size(); ++r) {
        table[r] = index;
        if (--left == 0) {
          left = block;
          ++index;
        }
      }
    };
    extend(socket_by_rank_, per_socket_);
    extend(node_by_rank_, ranks_per_node());
    extend(switch_by_rank_, ranks_per_switch());
  }

  // classify(0, r) over r covers every producible class under compact
  // placement (a pair crossing a tier boundary implies that boundary lies
  // below its higher rank b, so (0, b) crosses it too). The first rank past
  // a tier block classifies by the next tier up, so a class exists exactly
  // when that rank exists and still shares the next tier with rank 0.
  const auto crosses = [n](int block) { return block > 0 && n > block; };
  const auto set = [this](LinkClass cls, bool on) {
    produces_[static_cast<std::size_t>(cls)] = on;
  };
  set(LinkClass::self, true);
  set(LinkClass::intra_socket, n > 1 && per_socket_ > 1);
  set(LinkClass::inter_socket,
      crosses(per_socket_) && spec_.sockets_per_node > 1);
  set(LinkClass::inter_node,
      crosses(ranks_per_node()) &&
          (!has_switch_tier() || spec_.nodes_per_switch > 1));
  set(LinkClass::inter_switch, crosses(ranks_per_switch()));
}

int Topology::socket_of(int rank) const {
  IW_REQUIRE(rank >= 0 && rank < spec_.ranks, "rank out of range");
  return socket_by_rank_[static_cast<std::size_t>(rank)];
}

int Topology::node_of(int rank) const {
  IW_REQUIRE(rank >= 0 && rank < spec_.ranks, "rank out of range");
  return node_by_rank_[static_cast<std::size_t>(rank)];
}

int Topology::switch_of(int rank) const {
  IW_REQUIRE(rank >= 0 && rank < spec_.ranks, "rank out of range");
  IW_REQUIRE(has_switch_tier(), "topology has no switch tier");
  return switch_by_rank_[static_cast<std::size_t>(rank)];
}

int Topology::sockets() const {
  return (spec_.ranks + per_socket_ - 1) / per_socket_;
}

int Topology::nodes() const {
  return (sockets() + spec_.sockets_per_node - 1) / spec_.sockets_per_node;
}

int Topology::switches() const {
  IW_REQUIRE(has_switch_tier(), "topology has no switch tier");
  return (nodes() + spec_.nodes_per_switch - 1) / spec_.nodes_per_switch;
}

}  // namespace iw::net
