// Grouped, self-validating transport configuration.
//
// The transport's knobs fall into three independent concerns and are grouped
// accordingly (replacing the flat Transport::Options of earlier revisions):
//
//   * NicModel         — how fast the NIC drains injections (finite in-flight
//                        injection budget);
//   * EagerPolicy      — when an eager-sized message is demoted to
//                        rendezvous (credit window);
//   * RendezvousPolicy — how a rendezvous payload moves once the handshake
//                        matches (flavor) and how pushes pipeline.
//
// A TransportConfig is plain data: copy it around, poke fields, then
// validate() before handing it to Transport. validate() rejects inconsistent
// combinations with messages that say how to fix them, and the lint suite
// (tools/lint/lint.py, rule transport-config-validate) enforces that every
// field declared here is covered by validate().
//
// The eager/rendezvous size threshold is the fabric's
// (`FabricProfile::eager_limit_bytes`). The protocol *size rule* is
// centralized here — Transport, the experiment driver and the verify oracle
// all call protocol_by_size() so the rule cannot drift between the
// simulator and its predictors.
#pragma once

#include <cstdint>
#include <string>

#include "mpi/message.hpp"

namespace iw::mpi {

/// Finite-injection-rate NIC model (LCI's bounded-queue sends: try to post,
/// else enqueue on a retry backlog drained as injections complete).
struct NicModel {
  /// Max in-flight injections per rank (posted sends whose NIC serialization
  /// has not finished). 0 = unbounded: the ideal NIC of the plain Hockney
  /// model, with no backlog machinery on the hot path at all.
  int injection_depth = 0;

  bool operator==(const NicModel&) const = default;
};

/// Eager-protocol admission policy: the paper's finite eager buffers
/// ("handled like a transition to a rendezvous protocol").
struct EagerPolicy {
  /// Credit-based flow control: max eager *messages* in flight (sent but
  /// not yet matched at the receiver) per (source, destination) pair.
  /// Exhaustion forces rendezvous; credits return when the receiver drains
  /// the message. 0 = unlimited (no credit accounting on the hot path).
  int credit_window = 0;

  bool operator==(const EagerPolicy&) const = default;
};

/// Rendezvous payload-movement policy.
struct RendezvousPolicy {
  RendezvousFlavor flavor = RendezvousFlavor::two_sided;
  /// Sender-side push pipelining (see message.hpp). Applies to the
  /// two_sided flavor only: one-sided puts/gets are executed by the NIC
  /// and never held behind the sender's other handshakes.
  RendezvousPipelining pipelining = RendezvousPipelining::deferred_push;

  bool operator==(const RendezvousPolicy&) const = default;
};

struct TransportConfig {
  NicModel nic;
  EagerPolicy eager;
  RendezvousPolicy rendezvous;

  bool operator==(const TransportConfig&) const = default;

  /// Rejects inconsistent combinations with an std::invalid_argument whose
  /// message names the offending field and how to fix it.
  void validate() const;

  /// The *size rule* half of the protocol decision — the static part shared
  /// by the transport, the experiment driver's Tcomm predictor and the
  /// verify oracle: eager up to the fabric's `eager_limit_bytes`. (The
  /// transport adds the dynamic credit demotion on top; see
  /// Transport::protocol_for.)
  [[nodiscard]] WireProtocol protocol_by_size(
      std::int64_t bytes, std::int64_t fabric_limit) const {
    return bytes <= fabric_limit ? WireProtocol::eager
                                 : WireProtocol::rendezvous;
  }

  /// Idealized transport: unbounded NIC, infinite eager buffering, no
  /// credits, two-sided rendezvous with deferred pushes (the paper's
  /// production-system semantics).
  [[nodiscard]] static TransportConfig ideal() { return {}; }

  /// Finite-injection NIC: at most `injection_depth` in-flight injections
  /// per rank; excess posts queue on the unbounded retry backlog.
  [[nodiscard]] static TransportConfig finite_nic(int injection_depth) {
    TransportConfig c;
    c.nic.injection_depth = injection_depth;
    return c;
  }

  /// Credit-limited eager flow control: at most `credit_window` unmatched
  /// eager messages per endpoint pair; exhaustion forces rendezvous.
  [[nodiscard]] static TransportConfig credit_limited(int credit_window) {
    TransportConfig c;
    c.eager.credit_window = credit_window;
    return c;
  }
};

/// Inverse of to_string(RendezvousFlavor); throws std::invalid_argument on
/// an unknown name (listing the valid ones).
[[nodiscard]] RendezvousFlavor rendezvous_flavor_from_string(
    const std::string& name);

}  // namespace iw::mpi
