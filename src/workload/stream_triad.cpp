#include "workload/stream_triad.hpp"

#include "support/error.hpp"
#include "workload/ring.hpp"

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
  const RingSpec ring{.ranks = spec.ranks,
                      .direction = Direction::bidirectional,
                      .boundary = Boundary::periodic};
  std::vector<mpi::Program> programs(static_cast<std::size_t>(spec.ranks));
  for (int rank = 0; rank < spec.ranks; ++rank) {
    auto& prog = programs[static_cast<std::size_t>(rank)];
    prog.mark().mem_work(work);
    emit_exchange(
        prog,
        [&](int sign, auto&& fn) { for_each_peer(ring, rank, sign, fn); },
        spec.halo_bytes, spec.steps);
  }
  return programs;
}

}  // namespace iw::workload
