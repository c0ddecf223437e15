#include "workload/stream_triad.hpp"

#include "support/error.hpp"

namespace iw::workload {

std::int64_t triad_bytes_per_rank(const StreamTriadSpec& spec) {
  return spec.elements * spec.bytes_per_element / spec.ranks;
}

std::int64_t triad_flops_per_step(const StreamTriadSpec& spec) {
  return spec.elements * spec.flops_per_element;
}

std::vector<mpi::Program> build_stream_triad(const StreamTriadSpec& spec) {
  IW_REQUIRE(spec.ranks >= 1, "need at least one rank");
  IW_REQUIRE(spec.steps >= 1, "need at least one step");
  IW_REQUIRE(spec.elements > 0, "need a non-empty vector");

  const std::int64_t work = triad_bytes_per_rank(spec);
  std::vector<mpi::Program> programs(static_cast<std::size_t>(spec.ranks));
  for (int rank = 0; rank < spec.ranks; ++rank) {
    auto& prog = programs[static_cast<std::size_t>(rank)];
    const int n = spec.ranks;
    const int up = (rank + 1) % n;
    const int down = (rank - 1 + n) % n;
    prog.mark().mem_work(work);
    if (n > 1) {
      prog.isend(up, spec.halo_bytes, 0);
      if (down != up) prog.isend(down, spec.halo_bytes, 0);
      prog.irecv(down, spec.halo_bytes, 0);
      if (down != up) prog.irecv(up, spec.halo_bytes, 0);
    }
    prog.waitall().repeat(spec.steps);
  }
  return programs;
}

}  // namespace iw::workload
