// Link classification and per-link cost parameters.
//
// Clusters are hierarchical (paper Sec. II-B): cores share a socket, sockets
// share a node, nodes share a leaf switch, and switch groups share the
// fabric. Communication cost differs per level, so every (src, dst) rank
// pair maps to a LinkClass and every LinkClass to a parameter set.
#pragma once

#include <cstdint>

#include "support/error.hpp"
#include "support/time.hpp"

namespace iw::net {

enum class LinkClass : std::uint8_t {
  self = 0,          ///< a rank messaging itself (loopback, essentially free)
  intra_socket = 1,  ///< both ranks on the same socket (shared cache/memory)
  inter_socket = 2,  ///< same node, different sockets (QPI/UPI hop)
  inter_node = 3,    ///< different nodes, same leaf switch group
  inter_switch = 4,  ///< different switch groups (spine hop)
};

inline constexpr int kLinkClassCount = 5;

[[nodiscard]] constexpr const char* to_string(LinkClass c) {
  switch (c) {
    case LinkClass::self: return "self";
    case LinkClass::intra_socket: return "intra-socket";
    case LinkClass::inter_socket: return "inter-socket";
    case LinkClass::inter_node: return "inter-node";
    case LinkClass::inter_switch: return "inter-switch";
  }
  return "?";
}

/// Hockney-style cost parameters for one link class, extended with the
/// LogGOPS-style per-message CPU overhead `o` and injection gap `g`.
struct LinkParams {
  Duration latency;           ///< alpha: end-to-end latency per message
  double bandwidth_Bps = 0;   ///< 1/beta: asymptotic bandwidth in bytes/s
  Duration overhead;          ///< o: CPU time consumed per message at an endpoint
  Duration gap;               ///< g: minimum NIC spacing between injections

  /// Serialization time of `bytes` on the link (no latency, overhead, or
  /// gap): bytes/bandwidth. This is the duration a NIC stays busy injecting
  /// the payload.
  [[nodiscard]] Duration payload_time(std::int64_t bytes) const {
    IW_REQUIRE(bytes >= 0, "message size must be non-negative");
    IW_REQUIRE(bandwidth_Bps > 0, "link bandwidth must be positive");
    const double tx_ns = static_cast<double>(bytes) / bandwidth_Bps * 1e9;
    return Duration{static_cast<std::int64_t>(tx_ns + 0.5)};
  }

  /// Pure transfer time of `bytes` payload over this link (no overhead/gap):
  /// the Hockney model T = latency + bytes/bandwidth.
  [[nodiscard]] Duration transfer_time(std::int64_t bytes) const {
    return latency + payload_time(bytes);
  }

  /// Time for a zero-payload control message (RTS/CTS handshakes).
  [[nodiscard]] Duration control_time() const { return latency; }

  bool operator==(const LinkParams&) const = default;
};

}  // namespace iw::net
