#include "mpi/transport_config.hpp"

#include <stdexcept>

namespace iw::mpi {

namespace {
[[noreturn]] void reject(const std::string& message) {
  throw std::invalid_argument("TransportConfig: " + message);
}
}  // namespace

void TransportConfig::validate() const {
  // NicModel. Depth 0 is the ideal unbounded NIC.
  if (nic.injection_depth < 0)
    reject("nic.injection_depth must be >= 0 (0 = unbounded ideal NIC), got " +
           std::to_string(nic.injection_depth));

  // EagerPolicy.
  if (eager.credit_window < 0)
    reject("eager.credit_window must be >= 0 (0 = unlimited credits), got " +
           std::to_string(eager.credit_window));

  // RendezvousPolicy. The enums arrive from CLI/catalog parsing — check the
  // underlying values are in range rather than trusting the cast.
  switch (rendezvous.flavor) {
    case RendezvousFlavor::two_sided:
    case RendezvousFlavor::rdma_put:
    case RendezvousFlavor::rdma_get:
      break;
    default:
      reject("rendezvous.flavor holds an out-of-range value " +
             std::to_string(static_cast<int>(rendezvous.flavor)) +
             " (valid: two_sided, rdma_put, rdma_get)");
  }
  switch (rendezvous.pipelining) {
    case RendezvousPipelining::deferred_push:
    case RendezvousPipelining::independent:
      break;
    default:
      reject("rendezvous.pipelining holds an out-of-range value " +
             std::to_string(static_cast<int>(rendezvous.pipelining)) +
             " (valid: deferred_push, independent)");
  }
}

RendezvousFlavor rendezvous_flavor_from_string(const std::string& name) {
  if (name == "two_sided") return RendezvousFlavor::two_sided;
  if (name == "rdma_put") return RendezvousFlavor::rdma_put;
  if (name == "rdma_get") return RendezvousFlavor::rdma_get;
  throw std::invalid_argument(
      "unknown rendezvous flavor '" + name +
      "' (valid: two_sided, rdma_put, rdma_get)");
}

}  // namespace iw::mpi
