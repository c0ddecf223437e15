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

/// Wraps or clips a coordinate; -1 when outside an open grid.
int resolve(int coord, int extent, Boundary boundary) {
  if (boundary == Boundary::periodic) return ((coord % extent) + extent) % extent;
  return (coord >= 0 && coord < extent) ? coord : -1;
}

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

std::vector<int> grid_neighbors(const Grid2DSpec& spec, int rank) {
  const auto [x, y] = grid_coords(spec, rank);
  std::vector<int> neighbors;
  const int offsets[4][2] = {{1, 0}, {-1, 0}, {0, 1}, {0, -1}};
  for (const auto& off : offsets) {
    const int nx = resolve(x + off[0], spec.px, spec.boundary);
    const int ny = resolve(y + off[1], spec.py, spec.boundary);
    if (nx < 0 || ny < 0) continue;
    const int peer = grid_rank(spec, nx, ny);
    if (peer != rank) neighbors.push_back(peer);
  }
  return neighbors;
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
    const auto neighbors = grid_neighbors(spec, rank);
    const auto mine = delays_of(sorted, rank);
    prog.mark().compute(spec.texec, spec.noisy);
    if (!mine.empty()) prog.inject_point();
    for (const int peer : neighbors) prog.isend(peer, spec.msg_bytes, 0);
    for (const int peer : neighbors) prog.irecv(peer, spec.msg_bytes, 0);
    prog.waitall().repeat(spec.steps);
    for (const auto& d : mine) prog.inject_at(d.step, d.duration);
  }
  return programs;
}

}  // namespace iw::workload
