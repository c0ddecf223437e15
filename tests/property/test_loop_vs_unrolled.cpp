// Differential property test: a loop program against its unrolled twin.
//
// The ring and grid2d builders emit one step body per rank, repeated
// `steps` times, with the rank's delays on the body's injection point. The
// twin below writes the same run out flat: every step spelled out with
// tag = step and the step's summed delay as an inline inject op, with peer
// sets written out here rather than taken from the builders' own walk
// (ring: i±k for k = 1..d, wrapped or clipped; grid: +x, -x, +y, -y). The
// loop program, unrolled, must equal the twin op for op, on random specs
// and on every ring and grid2d point of the catalog with np <= 2048. On the
// random specs, run through one recycled Cluster, both must also produce
// byte-identical segments, step marks, finish times, engine counters and
// transport stats.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "core/cluster.hpp"
#include "support/rng.hpp"
#include "sweep/scenario.hpp"
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

/// Send targets (`sign` = +1) or receive sources (-1) of a ring rank:
/// i + sign*k, then i - sign*k when bidirectional, for k = 1..d; wrapped on
/// a periodic ring, dropped off an open one.
std::vector<int> ring_peers(const workload::RingSpec& s, int rank, int sign) {
  std::vector<int> out;
  const auto add = [&](int peer) {
    if (s.boundary == workload::Boundary::periodic)
      out.push_back((peer + s.ranks) % s.ranks);
    else if (peer >= 0 && peer < s.ranks)
      out.push_back(peer);
  };
  for (int k = 1; k <= s.distance; ++k) {
    add(rank + sign * k);
    if (s.direction == workload::Direction::bidirectional) add(rank - sign * k);
  }
  return out;
}

/// Peers of a grid rank, sends and receives alike: +x, -x, +y, -y; each
/// axis wrapped on a torus, dropped off an open grid.
std::vector<int> grid_peers(const workload::Grid2DSpec& g, int rank) {
  const int x = rank % g.px;
  const int y = rank / g.px;
  std::vector<int> out;
  const auto add = [&](int nx, int ny) {
    if (g.boundary == workload::Boundary::periodic) {
      nx = (nx + g.px) % g.px;
      ny = (ny + g.py) % g.py;
    } else if (nx < 0 || nx >= g.px || ny < 0 || ny >= g.py) {
      return;
    }
    out.push_back(ny * g.px + nx);
  };
  add(x + 1, y);
  add(x - 1, y);
  add(x, y + 1);
  add(x, y - 1);
  return out;
}

std::vector<mpi::Program> unrolled_programs(const Case& c) {
  const Duration texec = c.grid ? c.grid2d.texec : c.ring.texec;
  const bool noisy = c.grid ? c.grid2d.noisy : c.ring.noisy;
  const std::int64_t bytes = c.grid ? c.grid2d.msg_bytes : c.ring.msg_bytes;
  std::vector<mpi::Program> programs(static_cast<std::size_t>(c.ranks()));
  for (int rank = 0; rank < c.ranks(); ++rank) {
    const auto sends = c.grid ? grid_peers(c.grid2d, rank)
                              : ring_peers(c.ring, rank, +1);
    const auto recvs = c.grid ? grid_peers(c.grid2d, rank)
                              : ring_peers(c.ring, rank, -1);
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

/// One op as text, so two op lists compare with a readable diff.
std::string describe(const mpi::Op& op) {
  return std::visit(
      [](const auto& o) -> std::string {
        using T = std::decay_t<decltype(o)>;
        if constexpr (std::is_same_v<T, mpi::OpCompute>)
          return "compute " + std::to_string(o.duration.ns()) +
                 (o.noisy ? " noisy" : "");
        else if constexpr (std::is_same_v<T, mpi::OpMemWork>)
          return "mem_work " + std::to_string(o.bytes);
        else if constexpr (std::is_same_v<T, mpi::OpInject>)
          return "inject " + std::to_string(o.duration.ns()) +
                 (o.point ? " point" : "");
        else if constexpr (std::is_same_v<T, mpi::OpIsend>)
          return "isend " + std::to_string(o.peer) + " " +
                 std::to_string(o.bytes) + " tag " + std::to_string(o.tag);
        else if constexpr (std::is_same_v<T, mpi::OpIrecv>)
          return "irecv " + std::to_string(o.peer) + " " +
                 std::to_string(o.bytes) + " tag " + std::to_string(o.tag);
        else if constexpr (std::is_same_v<T, mpi::OpWaitAll>)
          return "waitall";
        else
          return "mark";
      },
      op);
}

/// The ops a loop program runs, written out: iteration i adds i to every
/// tag, and its injection point becomes an inline inject op of the listed
/// duration, or nothing when the iteration is not listed.
std::vector<std::string> ops_run(const mpi::Program& p) {
  std::vector<std::string> out;
  const auto listed = p.injections();
  std::size_t next = 0;
  for (int i = 0; i < p.repeats(); ++i)
    for (const mpi::Op& op : p.body()) {
      if (const auto* inj = std::get_if<mpi::OpInject>(&op);
          inj != nullptr && inj->point) {
        if (next < listed.size() && listed[next].iteration == i)
          out.push_back(describe(mpi::OpInject{listed[next++].duration}));
      } else if (const auto* send = std::get_if<mpi::OpIsend>(&op)) {
        out.push_back(describe(
            mpi::OpIsend{send->peer, send->bytes, send->tag + i}));
      } else if (const auto* recv = std::get_if<mpi::OpIrecv>(&op)) {
        out.push_back(describe(
            mpi::OpIrecv{recv->peer, recv->bytes, recv->tag + i}));
      } else {
        out.push_back(describe(op));
      }
    }
  EXPECT_EQ(next, listed.size()) << "injection list not consumed";
  return out;
}

/// Builds the case both ways and compares every rank op for op.
void expect_same_ops(const Case& c, const std::string& where) {
  const auto loop = loop_programs(c);
  const auto flat = unrolled_programs(c);
  ASSERT_EQ(loop.size(), flat.size()) << where;
  for (std::size_t r = 0; r < loop.size(); ++r) {
    ASSERT_EQ(flat[r].repeats(), 1) << where;
    std::vector<std::string> expected;
    for (const mpi::Op& op : flat[r].body()) expected.push_back(describe(op));
    ASSERT_EQ(ops_run(loop[r]), expected) << where << " rank " << r;
    ASSERT_EQ(loop[r].segment_bound(), flat[r].segment_bound()) << where;
    ASSERT_EQ(loop[r].step_marks(), flat[r].step_marks()) << where;
  }
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
    const std::string where = "case " + std::to_string(k);
    expect_same_ops(c, where);
    const auto loop = loop_programs(c);
    const auto flat = unrolled_programs(c);
    const Outcome a = run_once(*cluster, config, loop, c.noise);
    const Outcome b = run_once(*cluster, config, flat, c.noise);
    expect_identical(a, b, where);
  }
}

TEST(LoopVsUnrolled, CatalogPointsOpForOp) {
  int checked = 0;
  for (const sweep::Scenario& sc : sweep::scenario_catalog())
    for (const sweep::SweepPoint& pt : sweep::expand(sc.spec)) {
      if (pt.np > 2048) continue;
      Case c;
      c.grid = pt.exp.grid.has_value();
      c.ring = pt.exp.ring;
      if (c.grid) c.grid2d = *pt.exp.grid;
      c.delays = pt.exp.delays;
      expect_same_ops(c, sc.name + " point " + std::to_string(pt.index));
      ++checked;
    }
  EXPECT_GT(checked, 100);
}

}  // namespace
}  // namespace iw
