#include "workload/delay.hpp"

#include <algorithm>
#include <utility>

#include "support/error.hpp"

namespace iw::workload {

std::vector<DelaySpec> single_delay(int rank, int step, Duration duration) {
  return {DelaySpec{rank, step, duration}};
}

std::vector<DelaySpec> per_socket_delays(int sockets, int ranks_per_socket,
                                         int local_rank, int step,
                                         Duration base_duration,
                                         MultiDelayMode mode, Rng& rng) {
  IW_REQUIRE(sockets >= 1, "need at least one socket");
  IW_REQUIRE(ranks_per_socket >= 1, "need at least one rank per socket");
  IW_REQUIRE(local_rank >= 0 && local_rank < ranks_per_socket,
             "local rank must fit in the socket");
  IW_REQUIRE(base_duration.ns() > 0, "base delay must be positive");

  std::vector<DelaySpec> delays;
  delays.reserve(static_cast<std::size_t>(sockets));
  for (int s = 0; s < sockets; ++s) {
    Duration d = base_duration;
    switch (mode) {
      case MultiDelayMode::equal:
        break;
      case MultiDelayMode::half_odd:
        if (s % 2 == 1) d = d / 2;
        break;
      case MultiDelayMode::random: {
        // Uniform in (0.1, 1.0] of the base so even the shortest delay is
        // clearly visible against background noise.
        const double frac = rng.uniform(0.1, 1.0);
        d = Duration{static_cast<std::int64_t>(
            static_cast<double>(base_duration.ns()) * frac)};
        break;
      }
    }
    delays.push_back(DelaySpec{s * ranks_per_socket + local_rank, step, d});
  }
  return delays;
}

std::vector<DelaySpec> sorted_delays(std::span<const DelaySpec> delays,
                                     int ranks, int steps) {
  for (const auto& d : delays) {
    IW_REQUIRE(d.rank >= 0 && d.rank < ranks, "delay rank out of range");
    IW_REQUIRE(d.step >= 0 && d.step < steps, "delay step out of range");
  }
  std::vector<DelaySpec> sorted(delays.begin(), delays.end());
  std::ranges::sort(sorted, {}, [](const DelaySpec& d) {
    return std::pair(d.rank, d.step);
  });
  return sorted;
}

std::span<const DelaySpec> delays_of(std::span<const DelaySpec> sorted,
                                     int rank) {
  return std::ranges::equal_range(sorted, rank, {}, &DelaySpec::rank);
}

}  // namespace iw::workload
