// Ring / chain workload builder: the bulk-synchronous synthetic benchmark
// of the paper (Sec. II-C2, IV).
//
// Every rank executes `steps` iterations of
//   compute(Texec)  ->  Isend/Irecv to all neighbors  ->  Waitall
// with next-neighbor (or distance-d) point-to-point communication, in all
// eight combinations of {eager, rendezvous} x {uni, bi}directional x
// {open, periodic} boundaries that Fig. 5 scans. One-off delays are injected
// at given (rank, step) positions right after the compute phase of that
// step. Each rank's Program is that step body, built once and repeated
// `steps` times; a delayed rank's body carries an injection point. The
// exchange half of the body (emit_exchange) and the boundary rule
// (wrap_or_clip) live here and serve every workload: ring, 2-D grid,
// STREAM triad and LBM differ only in their peer walk and compute phase.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "mpi/program.hpp"
#include "support/time.hpp"

namespace iw::workload {

enum class Direction : std::uint8_t { unidirectional, bidirectional };
enum class Boundary : std::uint8_t { open, periodic };

[[nodiscard]] constexpr const char* to_string(Direction d) {
  return d == Direction::unidirectional ? "unidirectional" : "bidirectional";
}
[[nodiscard]] constexpr const char* to_string(Boundary b) {
  return b == Boundary::open ? "open" : "periodic";
}

struct RingSpec {
  int ranks = 18;
  Direction direction = Direction::unidirectional;
  Boundary boundary = Boundary::open;
  int distance = 1;                     ///< d: talk to i±1..i±d
  std::int64_t msg_bytes = 8192;        ///< paper default message size
  int steps = 20;
  Duration texec = milliseconds(3.0);   ///< paper default execution phase
  bool noisy = true;                    ///< compute phases receive noise

  bool operator==(const RingSpec&) const = default;
};

/// A one-off delay injected at `rank` after the compute phase of `step`.
struct DelaySpec {
  int rank = 0;
  int step = 0;
  Duration duration;
};

/// The boundary rule on one axis of `extent` ranks: `coord` itself when in
/// range, wrapped into range on a periodic axis, -1 off an open one.
[[nodiscard]] constexpr int wrap_or_clip(int coord, int extent,
                                         Boundary boundary) {
  if (coord >= 0 && coord < extent) return coord;
  if (boundary == Boundary::open) return -1;
  return ((coord % extent) + extent) % extent;
}

/// Calls `fn(peer)` for every send target (`sign` = +1) or receive source
/// (`sign` = -1) of `rank`, in program order: offset sign*k, then -sign*k
/// when bidirectional, for k = 1..d, under the boundary rule. A peer equal
/// to the rank, or to the k-th peer already called, is skipped; only a
/// closed ring of one or two ranks (STREAM, LBM) has one. Allocates
/// nothing, so the fast-forward ghost schedule can walk every silent rank
/// of a machine-scale ring.
template <typename Fn>
void for_each_peer(const RingSpec& spec, int rank, int sign, Fn&& fn) {
  for (int k = 1; k <= spec.distance; ++k) {
    const int ahead = wrap_or_clip(rank + sign * k, spec.ranks, spec.boundary);
    if (ahead >= 0 && ahead != rank) fn(ahead);
    if (spec.direction == Direction::unidirectional) continue;
    const int behind =
        wrap_or_clip(rank - sign * k, spec.ranks, spec.boundary);
    if (behind >= 0 && behind != rank && behind != ahead) fn(behind);
  }
}

/// The halo-exchange step body every workload shares, emitted after the
/// caller's `mark().compute(...)` or `mark().mem_work(...)`: an injection
/// point when the rank has `delays`, an Isend of `bytes` to every peer
/// `peers(+1, fn)` calls `fn` with, an Irecv from every peer `peers(-1, fn)`
/// calls it with, and a WaitAll. The body runs `steps` times, and the
/// rank's step-ordered `delays` land at its injection point. Tags are 0;
/// the loop adds the step, so matching is unambiguous across rounds.
template <typename Peers>
void emit_exchange(mpi::Program& prog, Peers&& peers, std::int64_t bytes,
                   int steps, std::span<const DelaySpec> delays = {}) {
  if (!delays.empty()) prog.inject_point();
  peers(+1, [&](int peer) { prog.isend(peer, bytes, 0); });
  peers(-1, [&](int peer) { prog.irecv(peer, bytes, 0); });
  prog.waitall().repeat(steps);
  for (const auto& d : delays) prog.inject_at(d.step, d.duration);
}

/// Builds one Program per rank: compute(Texec), then the exchange with the
/// for_each_peer() peers.
///
/// Unidirectional: rank i sends to i+k and receives from i-k, k = 1..d
/// (paper: "each process receives data from one neighbor and sends it to
/// the other"). Bidirectional: i exchanges with both i±k. With open
/// boundaries, out-of-range neighbors are skipped; with periodic boundaries
/// indices wrap (closed ring).
[[nodiscard]] std::vector<mpi::Program> build_ring(
    const RingSpec& spec, std::span<const DelaySpec> delays = {});

/// Builds the Program of a single rank — identical to the corresponding
/// build_ring entry. The fast-forward path uses this to
/// materialize only the active ranks' programs: at machine scale the silent
/// majority never gets a Program at all.
[[nodiscard]] mpi::Program build_ring_rank(const RingSpec& spec, int rank,
                                           std::span<const DelaySpec> delays =
                                               {});

}  // namespace iw::workload
