// Delay-injection plans (paper Sec. IV-B, Fig. 6).
//
// Fig. 6 injects delays "on local rank 5 of every socket" in three
// variants: equal everywhere, half-length on odd sockets, and random
// lengths. These builders produce the corresponding DelaySpec lists.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "support/rng.hpp"
#include "support/time.hpp"
#include "workload/ring.hpp"

namespace iw::workload {

enum class MultiDelayMode : std::uint8_t {
  equal,     ///< same duration on every socket — full mutual cancellation
  half_odd,  ///< odd sockets get half the duration — partial cancellation
  random,    ///< uniformly random durations in (0, base] — longest survives
};

[[nodiscard]] constexpr const char* to_string(MultiDelayMode m) {
  switch (m) {
    case MultiDelayMode::equal: return "equal";
    case MultiDelayMode::half_odd: return "half";
    case MultiDelayMode::random: return "random";
  }
  return "?";
}

/// One delay at a single (rank, step).
[[nodiscard]] std::vector<DelaySpec> single_delay(int rank, int step,
                                                  Duration duration);

/// One delay on the `local_rank`-th process of each of `sockets` consecutive
/// groups of `ranks_per_socket` ranks, at `step`, with durations per `mode`.
/// `rng` is consulted only in random mode.
[[nodiscard]] std::vector<DelaySpec> per_socket_delays(
    int sockets, int ranks_per_socket, int local_rank, int step,
    Duration base_duration, MultiDelayMode mode, Rng& rng);

/// `delays`, checked against a `ranks` x `steps` run and sorted by (rank,
/// step); delays_of() then yields one rank's run for Program::inject_at().
[[nodiscard]] std::vector<DelaySpec> sorted_delays(
    std::span<const DelaySpec> delays, int ranks, int steps);
[[nodiscard]] std::span<const DelaySpec> delays_of(
    std::span<const DelaySpec> sorted, int rank);

}  // namespace iw::workload
