// Fabric profiles: the full set of communication parameters for a cluster.
//
// A FabricProfile bundles LinkParams for every LinkClass plus the eager/
// rendezvous switch-over point. The presets are calibrated to the two RRZE
// systems the paper measures on:
//
//  * "Emmy"   — QDR InfiniBand, 40 Gbit/s/link/direction, asymptotic
//               node-to-node bandwidth ~3 GB/s (the value the paper's Eq. 1
//               model uses), MPI latency ~1.7 us.
//  * "Meggie" — Omni-Path, 100 Gbit/s/link/direction, ~10 GB/s asymptotic,
//               MPI latency ~1.1 us.
//
// Intra-node parameters use typical shared-memory MPI figures for the
// respective generations (latency well under a microsecond, bandwidths of
// several GB/s); the paper notes intra-node characteristics differ but "this
// is of no significance" for the wave phenomenology.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "net/link.hpp"

namespace iw::net {

struct FabricProfile {
  std::string name;
  std::array<LinkParams, kLinkClassCount> link;
  std::int64_t eager_limit_bytes = 131072;  ///< paper: 16384 doubles = 131072 B

  [[nodiscard]] const LinkParams& params(LinkClass c) const {
    return link[static_cast<std::size_t>(c)];
  }
  [[nodiscard]] LinkParams& params(LinkClass c) {
    return link[static_cast<std::size_t>(c)];
  }

  bool operator==(const FabricProfile&) const = default;

  /// QDR-InfiniBand cluster ("Emmy").
  [[nodiscard]] static FabricProfile infiniband_qdr();
  /// Omni-Path cluster ("Meggie").
  [[nodiscard]] static FabricProfile omnipath();
  /// A homogeneous ideal fabric: identical parameters on every link class.
  /// This is the "Simulated system (Hockney model)" reference of Fig. 8.
  [[nodiscard]] static FabricProfile ideal(Duration latency,
                                           double bandwidth_Bps);
};

}  // namespace iw::net
