#include "workload/lbm.hpp"

#include "support/error.hpp"

namespace iw::workload {

std::int64_t lbm_bytes_per_rank(const LbmSpec& spec) {
  const std::int64_t cells = static_cast<std::int64_t>(spec.nx) * spec.ny *
                             spec.nz / spec.ranks;
  return cells * spec.bytes_per_cell;
}

std::int64_t lbm_halo_bytes(const LbmSpec& spec) {
  // One face: ny*nz cells, halo_populations doubles each.
  return static_cast<std::int64_t>(spec.ny) * spec.nz *
         spec.halo_populations * 8;
}

std::int64_t lbm_working_set(const LbmSpec& spec) {
  return static_cast<std::int64_t>(spec.nx) * spec.ny * spec.nz * 19 * 8 * 2;
}

std::vector<mpi::Program> build_lbm(const LbmSpec& spec) {
  IW_REQUIRE(spec.ranks >= 2, "LBM proxy needs at least two ranks");
  IW_REQUIRE(spec.nx >= spec.ranks,
             "outer dimension must be at least one layer per rank");
  IW_REQUIRE(spec.steps >= 1, "need at least one timestep");

  const std::int64_t work = lbm_bytes_per_rank(spec);
  const std::int64_t halo = lbm_halo_bytes(spec);

  std::vector<mpi::Program> programs(static_cast<std::size_t>(spec.ranks));
  for (int rank = 0; rank < spec.ranks; ++rank) {
    auto& prog = programs[static_cast<std::size_t>(rank)];
    const int n = spec.ranks;
    const int up = (rank + 1) % n;
    const int down = (rank - 1 + n) % n;
    prog.mark().mem_work(work).isend(up, halo, 0);
    if (down != up) prog.isend(down, halo, 0);
    prog.irecv(down, halo, 0);
    if (down != up) prog.irecv(up, halo, 0);
    prog.waitall().repeat(spec.steps);
  }
  return programs;
}

}  // namespace iw::workload
