#include "workload/ring.hpp"

#include "support/error.hpp"
#include "workload/delay.hpp"

namespace iw::workload {
namespace {

/// Resolves rank + offset under the boundary rule; -1 if outside an open
/// chain.
int neighbor(const RingSpec& spec, int rank, int offset) {
  const int n = spec.ranks;
  int peer = rank + offset;
  if (spec.boundary == Boundary::periodic) return ((peer % n) + n) % n;
  return (peer >= 0 && peer < n) ? peer : -1;
}

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

/// Peers at offsets sign*k (then -sign*k when bidirectional), k = 1..d.
std::vector<int> peers(const RingSpec& spec, int rank, int sign) {
  std::vector<int> out;
  for (int k = 1; k <= spec.distance; ++k) {
    if (const int p = neighbor(spec, rank, sign * k); p >= 0) out.push_back(p);
    if (spec.direction == Direction::bidirectional)
      if (const int p = neighbor(spec, rank, -sign * k); p >= 0)
        out.push_back(p);
  }
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
  for (const int peer : peers(spec, rank, 1))
    prog.isend(peer, spec.msg_bytes, 0);
  for (const int peer : peers(spec, rank, -1))
    prog.irecv(peer, spec.msg_bytes, 0);
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
