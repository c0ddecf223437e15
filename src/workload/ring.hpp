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
// `steps` times; a delayed rank's body carries an injection point.
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

/// Builds one Program per rank.
///
/// Unidirectional: rank i sends to i+k and receives from i-k, k = 1..d
/// (paper: "each process receives data from one neighbor and sends it to
/// the other"). Bidirectional: i exchanges with both i±k. With open
/// boundaries, out-of-range neighbors are skipped; with periodic boundaries
/// indices wrap (closed ring). Message tags equal the step, so matching is
/// unambiguous across rounds.
[[nodiscard]] std::vector<mpi::Program> build_ring(
    const RingSpec& spec, std::span<const DelaySpec> delays = {});

/// Builds the Program of a single rank — identical to the corresponding
/// build_ring entry. The fast-forward path uses this to
/// materialize only the active ranks' programs: at machine scale the silent
/// majority never gets a Program at all.
[[nodiscard]] mpi::Program build_ring_rank(const RingSpec& spec, int rank,
                                           std::span<const DelaySpec> delays =
                                               {});

/// Calls `fn(peer)` for every send target (`sign` = +1) or receive source
/// (`sign` = -1) of `rank`, in program order: offset sign*k, then -sign*k
/// when bidirectional, for k = 1..d, skipping ranks off an open chain.
/// Allocates nothing, so the fast-forward ghost schedule can walk every
/// silent rank of a machine-scale ring.
template <typename Fn>
void for_each_peer(const RingSpec& spec, int rank, int sign, Fn&& fn) {
  const int n = spec.ranks;
  const auto neighbor = [&spec, rank, n](int offset) {
    const int peer = rank + offset;
    if (spec.boundary == Boundary::periodic) return ((peer % n) + n) % n;
    return (peer >= 0 && peer < n) ? peer : -1;
  };
  for (int k = 1; k <= spec.distance; ++k) {
    if (const int p = neighbor(sign * k); p >= 0) fn(p);
    if (spec.direction == Direction::bidirectional)
      if (const int p = neighbor(-sign * k); p >= 0) fn(p);
  }
}

/// Neighbor list (send targets) of `rank` under the spec; exposed for tests
/// and for the analytic Tcomm estimate.
[[nodiscard]] std::vector<int> send_peers(const RingSpec& spec, int rank);

/// Neighbor list (receive sources) of `rank` under the spec.
[[nodiscard]] std::vector<int> recv_peers(const RingSpec& spec, int rank);

}  // namespace iw::workload
