// Tests for collectives composed from point-to-point primitives.
#include <gtest/gtest.h>

#include "core/cluster.hpp"
#include "workload/collectives.hpp"

namespace iw::workload {
namespace {

/// Runs one program per rank on an ideal 1-ppn cluster and returns the
/// trace; convenience for collective-correctness checks.
mpi::Trace run(std::vector<mpi::Program> programs) {
  core::ClusterConfig config;
  config.topo = net::TopologySpec::one_rank_per_node(
      static_cast<int>(programs.size()));
  core::Cluster cluster(config);
  return cluster.run(programs);
}

std::vector<mpi::Program> barrier_only(int ranks) {
  std::vector<mpi::Program> programs(static_cast<std::size_t>(ranks));
  for (int r = 0; r < ranks; ++r) {
    programs[static_cast<std::size_t>(r)].mark();
    append_barrier(programs[static_cast<std::size_t>(r)], r, ranks, 0);
  }
  return programs;
}

TEST(Barrier, CompletesOnAllRankCounts) {
  // Powers of two, odd counts, and primes: the tree must always terminate.
  for (const int n : {2, 3, 4, 5, 7, 8, 13, 16, 33}) {
    const auto trace = run(barrier_only(n));
    for (int r = 0; r < n; ++r)
      EXPECT_GT(trace.finish(r).ns(), 0) << "n=" << n << " rank=" << r;
  }
}

TEST(Barrier, SingleRankIsNoop) {
  mpi::Program prog;
  append_barrier(prog, 0, 1, 0);
  EXPECT_TRUE(prog.body().empty());
}

TEST(Barrier, NobodyLeavesBeforeTheLastArrives) {
  // Rank 3 of 8 computes 10 ms before entering the barrier; everyone's
  // barrier exit must be >= 10 ms.
  const int n = 8;
  std::vector<mpi::Program> programs(n);
  for (int r = 0; r < n; ++r) {
    if (r == 3) programs[static_cast<std::size_t>(r)].compute(
        milliseconds(10.0), false);
    append_barrier(programs[static_cast<std::size_t>(r)], r, n, 0);
  }
  const auto trace = run(std::move(programs));
  for (int r = 0; r < n; ++r)
    EXPECT_GE(trace.finish(r), SimTime::zero() + milliseconds(10.0))
        << "rank " << r << " left the barrier early";
}

TEST(Barrier, LogDepthNotLinear) {
  // Barrier latency grows ~log2(n), not ~n: 32 ranks must cost well under
  // 16x the 2-rank barrier.
  const auto t2 = run(barrier_only(2)).makespan();
  const auto t32 = run(barrier_only(32)).makespan();
  EXPECT_LT(t32.ns(), 8 * t2.ns());
  EXPECT_GT(t32, t2);
}

TEST(RingAllreduce, CompletesAndSynchronizes) {
  const int n = 6;
  std::vector<mpi::Program> programs(n);
  for (int r = 0; r < n; ++r) {
    if (r == 2) programs[static_cast<std::size_t>(r)].compute(
        milliseconds(5.0), false);
    append_ring_allreduce(programs[static_cast<std::size_t>(r)], r, n,
                          6 * 1024, 0);
  }
  const auto trace = run(std::move(programs));
  // Allreduce is globally synchronizing: no rank finishes before the
  // latecomer's 5 ms plus the rounds.
  for (int r = 0; r < n; ++r)
    EXPECT_GE(trace.finish(r), SimTime::zero() + milliseconds(5.0));
}

TEST(RingAllreduce, RoundStructure) {
  mpi::Program prog;
  append_ring_allreduce(prog, 0, 5, 5000, 0);
  // 2(n-1) = 8 rounds, each isend+irecv+waitall.
  int waits = 0;
  for (const auto& op : prog.body())
    waits += std::holds_alternative<mpi::OpWaitAll>(op);
  EXPECT_EQ(waits, 8);
  int sends = 0;
  for (const auto& op : prog.body())
    if (const auto* send = std::get_if<mpi::OpIsend>(&op)) {
      ++sends;
      EXPECT_EQ(send->bytes, 1000);  // bytes / ranks
      EXPECT_EQ(send->peer, 1);      // always the right neighbor
    }
  EXPECT_EQ(sends, 8);
}

TEST(Bcast, RootSendsLeavesReceive) {
  const int n = 8;
  std::vector<mpi::Program> programs(n);
  for (int r = 0; r < n; ++r)
    append_bcast(programs[static_cast<std::size_t>(r)], r, n, 4096, 0);
  // Root has no receive; leaf 7 has no send.
  for (const auto& op : programs[0].body())
    EXPECT_FALSE(std::holds_alternative<mpi::OpIrecv>(op));
  for (const auto& op : programs[7].body())
    EXPECT_FALSE(std::holds_alternative<mpi::OpIsend>(op));
  const auto trace = run(std::move(programs));
  for (int r = 0; r < n; ++r) EXPECT_GT(trace.finish(r).ns(), 0);
}

TEST(Bcast, RootDelayReachesEveryone) {
  const int n = 8;
  std::vector<mpi::Program> programs(n);
  for (int r = 0; r < n; ++r) {
    if (r == 0) programs[0].compute(milliseconds(3.0), false);
    append_bcast(programs[static_cast<std::size_t>(r)], r, n, 4096, 0);
  }
  const auto trace = run(std::move(programs));
  for (int r = 1; r < n; ++r)
    EXPECT_GE(trace.finish(r), SimTime::zero() + milliseconds(3.0));
}

TEST(RingWithCollective, BuildsAndRuns) {
  RingSpec ring;
  ring.ranks = 8;
  ring.steps = 6;
  ring.texec = milliseconds(1.0);
  ring.noisy = false;
  const auto programs = build_ring_with_collective(
      ring, CollectiveKind::barrier, /*every=*/2, 0);
  const auto trace = run(programs);
  for (int r = 0; r < 8; ++r) {
    EXPECT_GE(trace.finish(r), SimTime::zero() + milliseconds(6.0));
    EXPECT_EQ(trace.step_begin(r).size(), 6u);
  }
}

TEST(RingWithCollective, TagSpans) {
  EXPECT_EQ(collective_tag_span(CollectiveKind::none, 8), 0);
  EXPECT_EQ(collective_tag_span(CollectiveKind::barrier, 8), 2);
  EXPECT_EQ(collective_tag_span(CollectiveKind::allreduce, 8), 14);
  EXPECT_EQ(collective_tag_span(CollectiveKind::bcast, 8), 1);
}

TEST(Collectives, Validation) {
  mpi::Program prog;
  EXPECT_THROW(append_ring_allreduce(prog, 0, 1, 100, 0),
               std::invalid_argument);
  EXPECT_THROW(append_barrier(prog, 5, 4, 0), std::invalid_argument);
  RingSpec ring;
  ring.ranks = 4;
  EXPECT_THROW(
      (void)build_ring_with_collective(ring, CollectiveKind::barrier, 0, 0),
      std::invalid_argument);
}

TEST(Collectives, KindNames) {
  EXPECT_STREQ(to_string(CollectiveKind::barrier), "barrier");
  EXPECT_STREQ(to_string(CollectiveKind::allreduce), "allreduce");
}

}  // namespace
}  // namespace iw::workload
