// Two-dimensional Cartesian halo-exchange workload.
//
// The paper's categorization (Sec. II-C2b) names multiple-neighbor
// communication as the generalization of its 1-D chains: "this occurs in
// many linear algebra and domain decomposition scenarios and entails more
// rigid dependencies across the processor grid". This builder creates a
// px * py process grid with 4-neighbor (von Neumann) halo exchange, letting
// idle waves be studied in two dimensions, where the front becomes a
// diamond (L1 ball) expanding at the Eq. 2 speed per hop.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "mpi/program.hpp"
#include "workload/ring.hpp"

namespace iw::workload {

struct Grid2DSpec {
  int px = 4;                    ///< ranks along x
  int py = 4;                    ///< ranks along y
  Boundary boundary = Boundary::open;
  std::int64_t msg_bytes = 8192;
  int steps = 20;
  Duration texec = milliseconds(3.0);
  bool noisy = true;

  [[nodiscard]] int ranks() const { return px * py; }
};

/// Rank of grid coordinate (x, y); row-major.
[[nodiscard]] int grid_rank(const Grid2DSpec& spec, int x, int y);

/// Coordinates of a rank.
[[nodiscard]] std::pair<int, int> grid_coords(const Grid2DSpec& spec,
                                              int rank);

/// Manhattan (hop) distance between two ranks under the boundary rule.
[[nodiscard]] int grid_distance(const Grid2DSpec& spec, int a, int b);

/// Builds one Program per rank: compute(Texec), then the emit_exchange()
/// step body with the 4-neighborhood under the boundary rule (out-of-range
/// neighbors dropped on open boundaries), in the order +x, -x, +y, -y for
/// both the sends and the receives.
[[nodiscard]] std::vector<mpi::Program> build_grid2d(
    const Grid2DSpec& spec, std::span<const DelaySpec> delays = {});

}  // namespace iw::workload
