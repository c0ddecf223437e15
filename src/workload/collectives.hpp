// Collective operations composed from point-to-point primitives.
//
// The paper's outlook (Sec. VII) asks how "more advanced point-to-point and
// also collective communication patterns influence the idle wave
// phenomenon". These builders append textbook collective algorithms to rank
// programs so that question can be studied on the simulator:
//
//  * binomial-tree barrier  — O(log n) depth, rooted at rank 0;
//  * ring allreduce         — 2(n-1) rounds of neighbor exchange
//                             (reduce-scatter + allgather);
//  * binomial broadcast     — root-to-all along the same tree.
//
// A collective is a *synchronization funnel*: an idle wave that reaches any
// participant is instantly globalized by the barrier/allreduce dependency
// structure, which changes the propagation picture qualitatively (see the
// CollectiveWaves tests in tests/integration/test_extensions.cpp).
#pragma once

#include <cstdint>
#include <vector>

#include "mpi/program.hpp"
#include "workload/ring.hpp"

namespace iw::workload {

enum class CollectiveKind : std::uint8_t { none, barrier, allreduce, bcast };

[[nodiscard]] constexpr const char* to_string(CollectiveKind k) {
  switch (k) {
    case CollectiveKind::none: return "none";
    case CollectiveKind::barrier: return "barrier";
    case CollectiveKind::allreduce: return "allreduce";
    case CollectiveKind::bcast: return "bcast";
  }
  return "?";
}

/// Appends a binomial-tree barrier (up-sweep to rank 0, down-sweep back).
/// `tag_base` must leave 2*ceil(log2(n)) tag values free.
void append_barrier(mpi::Program& prog, int rank, int ranks, int tag_base);

/// Appends a ring allreduce of `bytes` total payload: 2(n-1) rounds of
/// send-right/receive-left with bytes/n chunks (reduce-scatter followed by
/// allgather). Requires ranks >= 2.
void append_ring_allreduce(mpi::Program& prog, int rank, int ranks,
                           std::int64_t bytes, int tag_base);

/// Appends a binomial broadcast of `bytes` from rank 0.
void append_bcast(mpi::Program& prog, int rank, int ranks, std::int64_t bytes,
                  int tag_base);

/// Number of distinct tags a collective may consume (for tag budgeting).
[[nodiscard]] int collective_tag_span(CollectiveKind kind, int ranks);

/// Ring workload in which every `collective_every` steps the compute-
/// exchange cycle is followed by the given collective (payload
/// `collective_bytes` where applicable). This is the paper's bulk-
/// synchronous benchmark with a periodic global synchronization point.
[[nodiscard]] std::vector<mpi::Program> build_ring_with_collective(
    const RingSpec& spec, CollectiveKind kind, int collective_every,
    std::int64_t collective_bytes,
    std::span<const DelaySpec> delays = {});

}  // namespace iw::workload
