// Hierarchical cluster topology: ranks -> cores -> sockets -> nodes ->
// switch groups.
//
// Ranks are mapped onto cores in compact order (fill socket 0 of node 0,
// then socket 1 of node 0, ...), matching the process-core affinity the
// paper enforces ("process-core affinity was enforced using the available
// facilities in the MPI implementation").
//
// Above the node, one optional fabric tier models machine-scale layouts in
// the style of Slurm's switch-topology plugin: leaf switch groups
// (`nodes_per_switch` nodes behind one leaf switch). It defaults to 0 =
// disabled, which reproduces the flat fabric exactly: a flat topology never
// produces inter_switch links, so every pre-hierarchy configuration is
// bit-for-bit unchanged. Classification stays division-free: all tiers are
// precomputed rank-indexed tables. A rank's tier indices depend only on the
// tier sizes, so reset() to a spec with the same tier sizes keeps the
// tables and writes entries only for ranks past their end; the tables may
// run longer than ranks(). Which link classes exist follows from the tier
// sizes in closed form.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "net/link.hpp"

namespace iw::net {

/// Shape of the machine an experiment runs on.
struct TopologySpec {
  int ranks = 1;             ///< number of MPI ranks (== processes)
  int cores_per_socket = 10; ///< paper: ten-core Ivy Bridge / Broadwell CPUs
  int sockets_per_node = 2;  ///< paper: dual-socket nodes
  int ranks_per_socket = 0;  ///< ranks placed per socket; 0 = fill all cores
  int nodes_per_switch = 0;  ///< nodes behind one leaf switch; 0 = flat fabric

  /// Ranks placed on each socket: ranks_per_socket, or every core when 0.
  [[nodiscard]] int placed_per_socket() const {
    return ranks_per_socket > 0 ? ranks_per_socket : cores_per_socket;
  }
  /// The translational period of link classification: classify(a, b) ==
  /// classify(a + P, b + P) for every pair shifted by a multiple of P (all
  /// tier sizes divide the topmost tier's rank count). The analytic
  /// fast-forward path keys its reference-ring synthesis on this, without
  /// building a Topology's rank tables.
  [[nodiscard]] int pattern_period() const {
    const int per_node = placed_per_socket() * sockets_per_node;
    return nodes_per_switch > 0 ? per_node * nodes_per_switch : per_node;
  }

  bool operator==(const TopologySpec&) const = default;

  /// One rank per node (paper's "PPN=1" runs).
  [[nodiscard]] static TopologySpec one_rank_per_node(int nodes);
  /// `per_socket` ranks on each socket of dual-socket 10-core nodes.
  [[nodiscard]] static TopologySpec packed(int ranks, int per_socket = 10);
};

class Topology {
 public:
  explicit Topology(const TopologySpec& spec);

  /// Reshapes the topology to `spec` in place: the rank tables keep their
  /// storage, and under unchanged tier sizes only ranks past the tables'
  /// end get entries (alternating a 10^5-rank and a 256-rank machine of
  /// one shape writes nothing). Same checks and result as constructing a
  /// Topology from `spec`.
  void reset(const TopologySpec& spec);

  [[nodiscard]] int ranks() const { return spec_.ranks; }
  [[nodiscard]] int ranks_per_socket() const { return per_socket_; }
  [[nodiscard]] int ranks_per_node() const {
    return per_socket_ * spec_.sockets_per_node;
  }
  /// Ranks behind one leaf switch (0 when the switch tier is disabled).
  [[nodiscard]] int ranks_per_switch() const {
    return ranks_per_node() * spec_.nodes_per_switch;
  }

  [[nodiscard]] int socket_of(int rank) const;  ///< global socket index
  [[nodiscard]] int node_of(int rank) const;
  [[nodiscard]] int switch_of(int rank) const;  ///< leaf switch group index
  [[nodiscard]] int sockets() const;  ///< number of (partially) occupied sockets
  [[nodiscard]] int nodes() const;    ///< number of (partially) occupied nodes
  [[nodiscard]] int switches() const;

  [[nodiscard]] bool has_switch_tier() const {
    return spec_.nodes_per_switch > 0;
  }

  /// TopologySpec::pattern_period() of this topology's spec.
  [[nodiscard]] int pattern_period() const { return spec_.pattern_period(); }

  /// Whether any rank pair of this topology maps to `cls`. Transport
  /// construction checks that the fabric prices every producible class.
  [[nodiscard]] bool produces(LinkClass cls) const {
    return produces_[static_cast<std::size_t>(cls)];
  }

  /// Classifies the link between two ranks. O(1): rank -> tier indices are
  /// precomputed at construction, so the per-message hot path never
  /// divides (the transport classifies every send, arrival, and handshake
  /// leg against this).
  [[nodiscard]] LinkClass classify(int a, int b) const {
    IW_REQUIRE(a >= 0 && a < spec_.ranks && b >= 0 && b < spec_.ranks,
               "rank out of range");
    const auto ia = static_cast<std::size_t>(a);
    const auto ib = static_cast<std::size_t>(b);
    if (a == b) return LinkClass::self;
    if (socket_by_rank_[ia] == socket_by_rank_[ib])
      return LinkClass::intra_socket;
    if (node_by_rank_[ia] == node_by_rank_[ib]) return LinkClass::inter_socket;
    if (!has_switch_tier() ||
        switch_by_rank_[ia] == switch_by_rank_[ib])
      return LinkClass::inter_node;
    return LinkClass::inter_switch;
  }

 private:
  TopologySpec spec_;
  int per_socket_ = 0;
  std::vector<std::int32_t> socket_by_rank_;
  std::vector<std::int32_t> node_by_rank_;
  std::vector<std::int32_t> switch_by_rank_;  ///< empty when tier disabled
  std::array<bool, static_cast<std::size_t>(kLinkClassCount)> produces_{};
};

}  // namespace iw::net
