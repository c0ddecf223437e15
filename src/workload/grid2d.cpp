#include "workload/grid2d.hpp"

#include <algorithm>
#include <cstdlib>

#include "support/error.hpp"
#include "workload/delay.hpp"

namespace iw::workload {
namespace {

void validate(const Grid2DSpec& spec) {
  IW_REQUIRE(spec.px >= 1 && spec.py >= 1, "grid must be non-empty");
  IW_REQUIRE(spec.ranks() >= 2, "grid needs at least two ranks");
  IW_REQUIRE(spec.steps >= 1, "need at least one timestep");
  if (spec.boundary == Boundary::periodic)
    IW_REQUIRE(spec.px >= 3 && spec.py >= 3,
               "periodic grid needs at least 3 ranks per dimension");
}

/// Calls `fn(peer)` for the 4-neighborhood of `rank` under the boundary
/// rule, in program order: +x, -x, +y, -y. Allocates nothing.
template <typename Fn>
void for_each_grid_peer(const Grid2DSpec& spec, int rank, Fn&& fn) {
  const auto [x, y] = grid_coords(spec, rank);
  constexpr int kOffsets[4][2] = {{1, 0}, {-1, 0}, {0, 1}, {0, -1}};
  for (const auto& [dx, dy] : kOffsets) {
    const int nx = wrap_or_clip(x + dx, spec.px, spec.boundary);
    const int ny = wrap_or_clip(y + dy, spec.py, spec.boundary);
    if (nx >= 0 && ny >= 0) fn(ny * spec.px + nx);
  }
}

/// Hops between two coordinates of one axis: the shorter way round on a
/// periodic axis.
int axis_distance(int a, int b, int extent, Boundary boundary) {
  const int direct = std::abs(a - b);
  if (boundary == Boundary::open) return direct;
  return std::min(direct, extent - direct);
}

}  // namespace

int grid_rank(const Grid2DSpec& spec, int x, int y) {
  IW_REQUIRE(x >= 0 && x < spec.px && y >= 0 && y < spec.py,
             "grid coordinate out of range");
  return y * spec.px + x;
}

std::pair<int, int> grid_coords(const Grid2DSpec& spec, int rank) {
  IW_REQUIRE(rank >= 0 && rank < spec.ranks(), "rank out of range");
  return {rank % spec.px, rank / spec.px};
}

int grid_distance(const Grid2DSpec& spec, int a, int b) {
  const auto [ax, ay] = grid_coords(spec, a);
  const auto [bx, by] = grid_coords(spec, b);
  return axis_distance(ax, bx, spec.px, spec.boundary) +
         axis_distance(ay, by, spec.py, spec.boundary);
}

std::vector<mpi::Program> build_grid2d(const Grid2DSpec& spec,
                                       std::span<const DelaySpec> delays) {
  validate(spec);
  const auto sorted = sorted_delays(delays, spec.ranks(), spec.steps);
  std::vector<mpi::Program> programs(static_cast<std::size_t>(spec.ranks()));
  for (int rank = 0; rank < spec.ranks(); ++rank) {
    auto& prog = programs[static_cast<std::size_t>(rank)];
    prog.mark().compute(spec.texec, spec.noisy);
    emit_exchange(
        prog,
        [&](int, auto&& fn) { for_each_grid_peer(spec, rank, fn); },
        spec.msg_bytes, spec.steps, delays_of(sorted, rank));
  }
  return programs;
}

}  // namespace iw::workload
