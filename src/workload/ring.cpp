#include "workload/ring.hpp"

#include "support/error.hpp"
#include "workload/delay.hpp"

namespace iw::workload {
namespace {

void validate(const RingSpec& spec) {
  IW_REQUIRE(spec.ranks >= 2, "ring needs at least two ranks");
  IW_REQUIRE(spec.distance >= 1, "communication distance must be >= 1");
  IW_REQUIRE(spec.distance < spec.ranks,
             "communication distance must be smaller than the ring");
  IW_REQUIRE(spec.steps >= 1, "need at least one timestep");
  IW_REQUIRE(spec.msg_bytes >= 0, "message size must be non-negative");
  if (spec.boundary == Boundary::periodic)
    IW_REQUIRE(2 * spec.distance < spec.ranks,
               "periodic ring must be larger than the neighborhood");
}

std::vector<int> peers(const RingSpec& spec, int rank, int sign) {
  std::vector<int> out;
  for_each_peer(spec, rank, sign, [&out](int p) { out.push_back(p); });
  return out;
}

/// Emits one rank's loop program into `prog`: one step body repeated
/// `steps` times, with the rank's step-ordered `delays` at its injection
/// point. Shared by the whole-ring and single-rank builders so both emit
/// identical programs.
void emit_ring_rank(const RingSpec& spec, int rank,
                    std::span<const DelaySpec> delays, mpi::Program& prog) {
  prog.mark().compute(spec.texec, spec.noisy);
  if (!delays.empty()) prog.inject_point();
  for_each_peer(spec, rank, +1,
                [&](int peer) { prog.isend(peer, spec.msg_bytes, 0); });
  for_each_peer(spec, rank, -1,
                [&](int peer) { prog.irecv(peer, spec.msg_bytes, 0); });
  prog.waitall().repeat(spec.steps);
  for (const auto& d : delays) prog.inject_at(d.step, d.duration);
}

}  // namespace

std::vector<int> send_peers(const RingSpec& spec, int rank) {
  return peers(spec, rank, 1);
}

std::vector<int> recv_peers(const RingSpec& spec, int rank) {
  return peers(spec, rank, -1);
}

std::vector<mpi::Program> build_ring(const RingSpec& spec,
                                     std::span<const DelaySpec> delays) {
  validate(spec);
  const auto sorted = sorted_delays(delays, spec.ranks, spec.steps);
  std::vector<mpi::Program> programs(static_cast<std::size_t>(spec.ranks));
  for (int rank = 0; rank < spec.ranks; ++rank)
    emit_ring_rank(spec, rank, delays_of(sorted, rank),
                   programs[static_cast<std::size_t>(rank)]);
  return programs;
}

mpi::Program build_ring_rank(const RingSpec& spec, int rank,
                             std::span<const DelaySpec> delays) {
  validate(spec);
  IW_REQUIRE(rank >= 0 && rank < spec.ranks, "rank out of range");
  const auto sorted = sorted_delays(delays, spec.ranks, spec.steps);
  mpi::Program prog;
  emit_ring_rank(spec, rank, delays_of(sorted, rank), prog);
  return prog;
}

}  // namespace iw::workload
