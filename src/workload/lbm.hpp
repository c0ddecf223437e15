// Lattice-Boltzmann D3Q19 proxy workload (paper Sec. I-B, Fig. 2).
//
// The paper's second motivating example: a double-precision D3Q19
// single-relaxation-time LBM solver on 302^3 cells, decomposed along the
// outer dimension across 100 ranks with periodic boundaries, giving >=30 %
// communication overhead. The proxy reproduces the performance-relevant
// structure: a memory-bound sweep over the rank's slab (two lattices, 19
// populations) followed by halo exchanges with both neighbors.
#pragma once

#include <cstdint>
#include <vector>

#include "mpi/program.hpp"

namespace iw::workload {

struct LbmSpec {
  int nx = 302, ny = 302, nz = 302;  ///< lattice cells incl. boundary layer
  int ranks = 100;
  int steps = 1000;
  /// Memory traffic per cell update: 19 populations read + 19 written with
  /// write-allocate (19*8*3 = 456 B). Tunable for calibration studies.
  int bytes_per_cell = 456;
  /// Populations crossing a face per cell (5 of 19 move in +x or -x).
  int halo_populations = 5;
};

/// Memory traffic one rank's slab generates per timestep.
[[nodiscard]] std::int64_t lbm_bytes_per_rank(const LbmSpec& spec);

/// Halo bytes exchanged with each neighbor per timestep.
[[nodiscard]] std::int64_t lbm_halo_bytes(const LbmSpec& spec);

/// Aggregate working set (both lattices), for reporting.
[[nodiscard]] std::int64_t lbm_working_set(const LbmSpec& spec);

/// Builds one Program per rank: a mem_work + bidirectional periodic halo
/// exchange step body along the decomposed (outer) dimension, repeated
/// `steps` times.
[[nodiscard]] std::vector<mpi::Program> build_lbm(const LbmSpec& spec);

}  // namespace iw::workload
