#include "net/fabric.hpp"

#include "support/error.hpp"

namespace iw::net {
namespace {

LinkParams make_link(Duration latency, double bandwidth_Bps,
                     Duration overhead, Duration gap) {
  IW_REQUIRE(bandwidth_Bps > 0.0, "link bandwidth must be positive");
  IW_REQUIRE(latency.ns() >= 0 && overhead.ns() >= 0 && gap.ns() >= 0,
             "link time parameters must be non-negative");
  LinkParams p;
  p.latency = latency;
  p.bandwidth_Bps = bandwidth_Bps;
  p.overhead = overhead;
  p.gap = gap;
  return p;
}

}  // namespace

FabricProfile FabricProfile::infiniband_qdr() {
  FabricProfile f;
  f.name = "InfiniBand (Emmy)";
  f.params(LinkClass::self) =
      make_link(microseconds(0.05), 50e9, microseconds(0.05), microseconds(0.02));
  f.params(LinkClass::intra_socket) =
      make_link(microseconds(0.35), 8e9, microseconds(0.25), microseconds(0.10));
  f.params(LinkClass::inter_socket) =
      make_link(microseconds(0.55), 6e9, microseconds(0.30), microseconds(0.12));
  f.params(LinkClass::inter_node) =
      make_link(microseconds(1.70), 3.0e9, microseconds(0.40), microseconds(0.30));
  // The tier above the leaf switch (a synthetic extension — the paper
  // measures within one island): the spine hop adds latency while per-flow
  // bandwidth degrades slightly under tapering.
  f.params(LinkClass::inter_switch) =
      make_link(microseconds(2.30), 2.8e9, microseconds(0.40), microseconds(0.30));
  f.eager_limit_bytes = 131072;
  return f;
}

FabricProfile FabricProfile::omnipath() {
  FabricProfile f;
  f.name = "Omni-Path (Meggie)";
  f.params(LinkClass::self) =
      make_link(microseconds(0.05), 60e9, microseconds(0.05), microseconds(0.02));
  f.params(LinkClass::intra_socket) =
      make_link(microseconds(0.30), 10e9, microseconds(0.22), microseconds(0.08));
  f.params(LinkClass::inter_socket) =
      make_link(microseconds(0.50), 8e9, microseconds(0.28), microseconds(0.10));
  // Omni-Path: higher link rate but a more CPU-intensive driver (the paper
  // attributes Meggie's SMT-off noise peak to it) -> larger per-message o.
  f.params(LinkClass::inter_node) =
      make_link(microseconds(1.10), 10.0e9, microseconds(0.90), microseconds(0.25));
  // Synthetic spine tier, same tapering rationale as the InfiniBand preset.
  f.params(LinkClass::inter_switch) =
      make_link(microseconds(1.60), 9.0e9, microseconds(0.90), microseconds(0.25));
  f.eager_limit_bytes = 131072;
  return f;
}

FabricProfile FabricProfile::ideal(Duration latency, double bandwidth_Bps) {
  FabricProfile f;
  f.name = "Simulated (Hockney)";
  const LinkParams p =
      make_link(latency, bandwidth_Bps, Duration::zero(), Duration::zero());
  for (auto& lp : f.link) lp = p;
  f.eager_limit_bytes = 131072;
  return f;
}

}  // namespace iw::net
