// Differential property test: a loop program against its unrolled twin.
//
// The ring and grid2d builders emit one step body per rank, repeated
// `steps` times, with the rank's delays on the body's injection point. The
// twin below writes the same run out flat: every step spelled out with
// tag = step and the step's summed delay as an inline inject op. On random
// specs, run through one recycled Cluster, both must produce byte-identical
// segments, step marks, finish times, engine counters and transport stats.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/cluster.hpp"
#include "support/rng.hpp"
#include "workload/grid2d.hpp"
#include "workload/ring.hpp"

namespace iw {
namespace {

using workload::DelaySpec;

struct Case {
  bool grid = false;
  workload::RingSpec ring;
  workload::Grid2DSpec grid2d;
  std::vector<DelaySpec> delays;
  net::TopologySpec topo;
  noise::NoiseSpec noise = noise::NoiseSpec::none();

  [[nodiscard]] int ranks() const {
    return grid ? grid2d.ranks() : ring.ranks;
  }
  [[nodiscard]] int steps() const { return grid ? grid2d.steps : ring.steps; }
};

std::vector<mpi::Program> loop_programs(const Case& c) {
  return c.grid ? workload::build_grid2d(c.grid2d, c.delays)
                : workload::build_ring(c.ring, c.delays);
}

std::vector<mpi::Program> unrolled_programs(const Case& c) {
  const Duration texec = c.grid ? c.grid2d.texec : c.ring.texec;
  const bool noisy = c.grid ? c.grid2d.noisy : c.ring.noisy;
  const std::int64_t bytes = c.grid ? c.grid2d.msg_bytes : c.ring.msg_bytes;
  std::vector<mpi::Program> programs(static_cast<std::size_t>(c.ranks()));
  for (int rank = 0; rank < c.ranks(); ++rank) {
    const auto sends = c.grid ? workload::grid_neighbors(c.grid2d, rank)
                              : workload::send_peers(c.ring, rank);
    const auto recvs = c.grid ? workload::grid_neighbors(c.grid2d, rank)
                              : workload::recv_peers(c.ring, rank);
    mpi::Program& p = programs[static_cast<std::size_t>(rank)];
    for (int step = 0; step < c.steps(); ++step) {
      p.mark().compute(texec, noisy);
      Duration delay = Duration::zero();
      bool delayed = false;
      for (const DelaySpec& d : c.delays) {
        if (d.rank != rank || d.step != step) continue;
        delay += d.duration;
        delayed = true;
      }
      if (delayed) p.inject(delay);
      for (const int peer : sends) p.isend(peer, bytes, step);
      for (const int peer : recvs) p.irecv(peer, bytes, step);
      p.waitall();
    }
  }
  return programs;
}

Case random_case(Rng& rng) {
  Case c;
  const std::int64_t sizes[] = {1024, 16384, 174080, 262144};  // eager, rdv
  const std::int64_t bytes = sizes[rng.uniform_below(4)];
  const Duration texec = microseconds(rng.uniform(300.0, 2000.0));
  const bool noisy = rng.uniform() < 0.7;
  c.grid = rng.uniform() < 0.3;
  if (c.grid) {
    c.grid2d.px = 3 + static_cast<int>(rng.uniform_below(3));
    c.grid2d.py = 3 + static_cast<int>(rng.uniform_below(3));
    c.grid2d.boundary = rng.uniform() < 0.5 ? workload::Boundary::open
                                            : workload::Boundary::periodic;
    c.grid2d.steps = 3 + static_cast<int>(rng.uniform_below(8));
    c.grid2d.msg_bytes = bytes;
    c.grid2d.texec = texec;
    c.grid2d.noisy = noisy;
  } else {
    c.ring.distance = 1 + static_cast<int>(rng.uniform_below(3));
    c.ring.ranks = 2 * c.ring.distance + 1 +
                   static_cast<int>(rng.uniform_below(16));
    c.ring.direction = rng.uniform() < 0.5
                           ? workload::Direction::unidirectional
                           : workload::Direction::bidirectional;
    c.ring.boundary = rng.uniform() < 0.5 ? workload::Boundary::open
                                          : workload::Boundary::periodic;
    c.ring.steps = 3 + static_cast<int>(rng.uniform_below(8));
    c.ring.msg_bytes = bytes;
    c.ring.texec = texec;
    c.ring.noisy = noisy;
  }
  const int n = c.ranks();
  const int last = c.steps() - 1;
  const auto rank = [&] { return static_cast<int>(rng.uniform_below(n)); };
  const auto delay = [&] { return microseconds(rng.uniform(500.0, 8000.0)); };
  // At step 0, at the last step, two on one rank (the second sometimes on
  // the same step, where they add), and one of zero length.
  const int twice = rank();
  c.delays = {DelaySpec{rank(), 0, delay()},
              DelaySpec{rank(), last, delay()},
              DelaySpec{twice, last, delay()},
              DelaySpec{twice, rng.uniform() < 0.3 ? last : 1, delay()},
              DelaySpec{rank(), static_cast<int>(rng.uniform_below(
                                    static_cast<std::uint64_t>(last + 1))),
                        Duration::zero()}};
  c.topo = rng.uniform() < 0.5 ? net::TopologySpec::one_rank_per_node(n)
                               : net::TopologySpec::packed(n, 4);
  if (rng.uniform() < 0.5)
    c.noise = noise::NoiseSpec::exponential(texec / 10);
  return c;
}

struct Outcome {
  mpi::Trace trace;
  std::uint64_t events;
  std::size_t peak_pending;
  mpi::Transport::Stats stats;
};

Outcome run_once(core::Cluster& cluster, const core::ClusterConfig& config,
        const std::vector<mpi::Program>& programs,
        const noise::NoiseSpec& noise) {
  cluster.reset(config);
  mpi::Trace trace = cluster.run(programs, noise);
  return Outcome{std::move(trace), cluster.events_processed(),
                 cluster.peak_events_pending(), cluster.transport_stats()};
}

void expect_identical(const Outcome& loop, const Outcome& flat,
                      const std::string& where) {
  ASSERT_EQ(loop.trace.ranks(), flat.trace.ranks()) << where;
  for (int r = 0; r < loop.trace.ranks(); ++r) {
    const auto a = loop.trace.segments(r);
    const auto b = flat.trace.segments(r);
    ASSERT_EQ(a.size(), b.size()) << where << " rank " << r;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].kind, b[i].kind) << where << " rank " << r << " #" << i;
      EXPECT_EQ(a[i].begin, b[i].begin) << where << " rank " << r << " #" << i;
      EXPECT_EQ(a[i].end, b[i].end) << where << " rank " << r << " #" << i;
      EXPECT_EQ(a[i].step, b[i].step) << where << " rank " << r << " #" << i;
      EXPECT_EQ(a[i].noise, b[i].noise) << where << " rank " << r << " #" << i;
    }
    const auto ma = loop.trace.step_begin(r);
    const auto mb = flat.trace.step_begin(r);
    EXPECT_TRUE(std::equal(ma.begin(), ma.end(), mb.begin(), mb.end()))
        << where << " rank " << r;
    EXPECT_EQ(loop.trace.finish(r), flat.trace.finish(r)) << where;
  }
  EXPECT_EQ(loop.trace.bytes_used(), flat.trace.bytes_used()) << where;
  EXPECT_EQ(loop.events, flat.events) << where;
  EXPECT_EQ(loop.peak_pending, flat.peak_pending) << where;
  EXPECT_EQ(std::memcmp(&loop.stats, &flat.stats, sizeof(loop.stats)), 0)
      << where;
}

TEST(LoopVsUnrolled, RandomRingAndGridSpecs) {
  constexpr int kCases = 200;
  std::unique_ptr<core::Cluster> cluster;
  for (int k = 0; k < kCases; ++k) {
    Rng rng(0x100B0D1Eull + static_cast<std::uint64_t>(k));
    const Case c = random_case(rng);
    core::ClusterConfig config;
    config.topo = c.topo;
    config.seed = rng.next_u64();
    if (cluster == nullptr) cluster = std::make_unique<core::Cluster>(config);
    const auto loop = loop_programs(c);
    const auto flat = unrolled_programs(c);
    for (std::size_t r = 0; r < loop.size(); ++r) {
      ASSERT_EQ(loop[r].segment_bound(), flat[r].segment_bound());
      ASSERT_EQ(loop[r].step_marks(), flat[r].step_marks());
    }
    const Outcome a = run_once(*cluster, config, loop, c.noise);
    const Outcome b = run_once(*cluster, config, flat, c.noise);
    expect_identical(a, b, "case " + std::to_string(k));
  }
}

}  // namespace
}  // namespace iw
