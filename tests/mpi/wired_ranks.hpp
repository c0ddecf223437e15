// Test harness: simulated ranks wired the way Cluster wires them. Each rank
// is a Process running its own Program over one Transport; the transport
// settles every request through a rank-indexed Process* table.
//
// A request's completion time is read off the trace: a one-request window
// (a post, a WaitAll and a step mark, see send_window()/recv_window())
// marks the time its request completes, or its post time if it completed
// on the spot.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "mpi/process.hpp"
#include "mpi/program.hpp"
#include "mpi/trace.hpp"
#include "mpi/transport.hpp"
#include "net/fabric.hpp"
#include "net/topology.hpp"
#include "sim/engine.hpp"

namespace iw::mpi {

/// 1 us latency, 1 GB/s, zero overhead and gap on every link class.
inline net::FabricProfile default_test_fabric() {
  return net::FabricProfile::ideal(microseconds(1.0), 1e9);
}

/// A one-request send window: the post, a WaitAll and a step mark.
inline Program& send_window(Program& p, int peer, std::int64_t bytes,
                            int tag = 0) {
  return p.isend(peer, bytes, tag).waitall().mark();
}

/// A one-request receive window: the post, a WaitAll and a step mark.
inline Program& recv_window(Program& p, int peer, std::int64_t bytes,
                            int tag = 0) {
  return p.irecv(peer, bytes, tag).waitall().mark();
}

struct WiredRanks {
  /// `ranks` ranks, one per node, so every message takes the NIC path.
  explicit WiredRanks(int ranks, const TransportConfig& config = {},
                      net::FabricProfile fabric_profile = default_test_fabric())
      : WiredRanks(net::TopologySpec::one_rank_per_node(ranks), config,
                   std::move(fabric_profile)) {}

  WiredRanks(const net::TopologySpec& spec, const TransportConfig& config,
             net::FabricProfile fabric_profile)
      : topo(spec),
        fabric(std::move(fabric_profile)),
        transport(engine, topo, fabric, config),
        trace(spec.ranks) {
    for (int r = 0; r < spec.ranks; ++r) {
      procs.push_back(std::make_unique<Process>(r, engine, transport, trace));
      table.push_back(procs.back().get());
    }
  }

  /// Binds one program per rank (the harness keeps them), wires the
  /// process table (reconfigure() clears it) and starts each rank at
  /// engine.now(). To start again, once the previous programs have finished
  /// or after an engine reset, rearm() first; the trace keeps appending.
  void start(std::vector<Program> rank_programs) {
    programs = std::move(rank_programs);
    transport.set_processes(table.data());
    for (std::size_t r = 0; r < programs.size(); ++r) {
      procs[r]->set_program(&programs[r]);
      procs[r]->start();
    }
  }

  /// Re-arms every process for another start() (Process::reset()).
  void rearm() {
    for (std::size_t r = 0; r < procs.size(); ++r)
      procs[r]->reset(static_cast<int>(r), trace);
  }

  void run(std::vector<Program> rank_programs) {
    start(std::move(rank_programs));
    engine.run();
  }

  Process& rank(int r) { return *procs[static_cast<std::size_t>(r)]; }
  /// Step marks rank `r` has recorded so far.
  [[nodiscard]] std::size_t marks(int r) const {
    return trace.step_begin(r).size();
  }
  /// Step mark `k` of rank `r`, or -1 ns if it has not been recorded, so a
  /// missing mark fails an equality check instead of reading past the row.
  [[nodiscard]] SimTime mark(int r, std::size_t k) const {
    const auto row = trace.step_begin(r);
    return k < row.size() ? row[k] : SimTime{-1};
  }

  sim::Engine engine;
  net::Topology topo;
  net::FabricProfile fabric;
  Transport transport;
  Trace trace;
  std::vector<Program> programs;
  std::vector<std::unique_ptr<Process>> procs;
  std::vector<Process*> table;  ///< rank-indexed, as Cluster wires it
};

}  // namespace iw::mpi
