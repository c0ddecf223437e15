// MPI-parallel STREAM triad workload (paper Sec. I-B, Fig. 1).
//
// The motivating experiment: A(:) = B(:) + s*C(:) over 5e7 elements
// (Vmem = 1.2 GB working set, 24 B/element across three arrays), split
// evenly across ranks; after each full traversal every rank exchanges
// Vnet = 2 MB with both ring neighbors (closed ring). The compute phase is
// memory-bound and runs in the rank's socket bandwidth domain, so the
// saturation/overlap physics of Fig. 1 emerges in simulation.
#pragma once

#include <cstdint>
#include <vector>

#include "mpi/program.hpp"

namespace iw::workload {

struct StreamTriadSpec {
  std::int64_t elements = 50'000'000;  ///< total vector length
  int bytes_per_element = 24;          ///< 3 arrays x 8 B
  int flops_per_element = 2;           ///< multiply + add
  std::int64_t halo_bytes = 2 * 1024 * 1024;  ///< Vnet per neighbor
  int ranks = 20;
  int steps = 100;
};

/// Working-set bytes one rank streams per traversal.
[[nodiscard]] std::int64_t triad_bytes_per_rank(const StreamTriadSpec& spec);

/// Total flops of one full traversal (all ranks).
[[nodiscard]] std::int64_t triad_flops_per_step(const StreamTriadSpec& spec);

/// Builds one Program per rank: a mem_work + bidirectional ring exchange
/// step body, repeated `steps` times.
[[nodiscard]] std::vector<mpi::Program> build_stream_triad(
    const StreamTriadSpec& spec);

}  // namespace iw::workload
