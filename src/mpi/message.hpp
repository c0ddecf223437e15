// Message-passing primitives of the simulated MPI layer.
#pragma once

#include <cstdint>

namespace iw::mpi {

/// Handle to a pending nonblocking operation (the MPI_Request analogue):
/// its index in the owning process's current WaitAll window. The transport
/// keeps everything about the operation and settles the id once, with its
/// finish time; the process only counts the ids still open.
using RequestId = int;

/// Wire protocol actually used for a message (paper Sec. II-C1). Short
/// messages go eager (buffered, no handshake — the sender "can get rid of
/// its messages"); large ones go rendezvous (RTS/CTS handshake that couples
/// the sender to the receiver's progress).
enum class WireProtocol : std::uint8_t { eager, rendezvous };

/// Sender-side pipelining semantics for rendezvous data pushes.
///
/// `deferred_push` models the coupling observed on the paper's production
/// systems: a process does not push payload for any handshake-complete
/// rendezvous send while at least one of its own rendezvous handshakes is
/// still outstanding. This reproduces the paper's sigma = 2 propagation
/// speed for bidirectional rendezvous communication (Sec. IV-C, Fig. 5(g,h),
/// Fig. 7) while leaving every other mode at sigma = 1.
///
/// The rule can deadlock a legal program: a rank that posts two rendezvous
/// sends to one receiver in one window, which receives them in two
/// one-request windows, holds the first payload for the second handshake,
/// whose receive waits for the first payload. Cluster::run then fails its
/// deadlock check; under `independent` the same program completes.
///
/// `independent` is the idealized fully-asynchronous semantic; under it all
/// modes propagate at sigma = 1 (the ablation bench demonstrates this).
enum class RendezvousPipelining : std::uint8_t { deferred_push, independent };

/// How the rendezvous payload actually moves once the handshake matches.
///
/// `two_sided` is the classic RTS/CTS/push exchange: the receiver answers the
/// RTS with a CTS, the sender pushes payload, and the *receiver's CPU*
/// completes the message (charged a receive overhead `o`).
///
/// `rdma_put` models a one-sided writer protocol (LCI's RECV_READY /
/// SEND_WRITE_FIN shape): the CTS doubles as an RTR carrying the target
/// address and remote key, the sender's NIC puts the payload straight into
/// the receive buffer, and a trailing FIN control message — not the payload
/// arrival — completes the receiver. No receive-side CPU overhead is charged.
///
/// `rdma_get` models a one-sided reader protocol: the RTS itself carries the
/// source buffer's remote key, the receiver issues a GET request (a control
/// message back to the source), the source NIC streams the payload without
/// CPU involvement, and a FIN from the receiver retires the sender's buffer.
enum class RendezvousFlavor : std::uint8_t { two_sided, rdma_put, rdma_get };

[[nodiscard]] constexpr const char* to_string(RendezvousFlavor f) {
  switch (f) {
    case RendezvousFlavor::two_sided: return "two_sided";
    case RendezvousFlavor::rdma_put: return "rdma_put";
    case RendezvousFlavor::rdma_get: return "rdma_get";
  }
  return "?";
}

/// Message envelope used for matching: MPI matches on (source, tag) within a
/// communicator; we have a single communicator per simulation.
struct Envelope {
  int src = -1;
  int dst = -1;
  int tag = 0;
  std::int64_t bytes = 0;

  [[nodiscard]] bool matches(int want_src, int want_tag) const {
    return src == want_src && tag == want_tag;
  }
};

}  // namespace iw::mpi
