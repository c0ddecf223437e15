// Tests for the Cluster facade and experiment helpers.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/cluster.hpp"
#include "core/experiment.hpp"
#include "workload/delay.hpp"
#include "workload/ring.hpp"

namespace iw::core {
namespace {

TEST(Cluster, RunsARingToCompletion) {
  workload::RingSpec ring;
  ring.ranks = 4;
  ring.steps = 3;
  ring.texec = milliseconds(1.0);
  ring.noisy = false;

  ClusterConfig config = cluster_for_ring(ring);
  Cluster cluster(config);
  const auto trace = cluster.run(workload::build_ring(ring));
  EXPECT_EQ(trace.ranks(), 4);
  for (int r = 0; r < 4; ++r) {
    EXPECT_GE(trace.finish(r), SimTime::zero() + milliseconds(3.0));
    EXPECT_EQ(trace.step_begin(r).size(), 3u);
  }
  EXPECT_GT(cluster.events_processed(), 0u);
}

TEST(Cluster, RunIsSingleShot) {
  workload::RingSpec ring;
  ring.ranks = 2;
  ring.steps = 1;
  ring.noisy = false;
  ClusterConfig config = cluster_for_ring(ring);
  Cluster cluster(config);
  const auto programs = workload::build_ring(ring);
  (void)cluster.run(programs);
  EXPECT_THROW((void)cluster.run(programs), std::invalid_argument);
}

TEST(Cluster, ResetReproducesAFreshRunExactly) {
  workload::RingSpec ring;
  ring.ranks = 6;
  ring.steps = 6;
  ring.texec = milliseconds(1.0);
  const ClusterConfig config = cluster_for_ring(ring);
  const auto programs = workload::build_ring(ring);

  Cluster fresh(config);
  const auto want = fresh.run(programs);

  Cluster reused(config);
  (void)reused.run(programs);
  reused.reset(config);
  const auto got = reused.run(programs);

  ASSERT_EQ(got.ranks(), want.ranks());
  for (int r = 0; r < got.ranks(); ++r) {
    EXPECT_EQ(got.finish(r), want.finish(r));
    ASSERT_EQ(got.segments(r).size(), want.segments(r).size());
    for (std::size_t s = 0; s < got.segments(r).size(); ++s) {
      EXPECT_EQ(got.segments(r)[s].begin, want.segments(r)[s].begin);
      EXPECT_EQ(got.segments(r)[s].end, want.segments(r)[s].end);
      EXPECT_EQ(got.segments(r)[s].kind, want.segments(r)[s].kind);
    }
  }
  EXPECT_EQ(reused.events_processed(), fresh.events_processed());
}

TEST(Cluster, ResetCanReshapeTheTopology) {
  workload::RingSpec small;
  small.ranks = 4;
  small.steps = 2;
  small.noisy = false;
  workload::RingSpec big;
  big.ranks = 10;
  big.steps = 2;
  big.noisy = false;

  Cluster cluster(cluster_for_ring(small));
  EXPECT_EQ(cluster.run(workload::build_ring(small)).ranks(), 4);
  cluster.reset(cluster_for_ring(big));
  EXPECT_EQ(cluster.topology().ranks(), 10);
  EXPECT_EQ(cluster.run(workload::build_ring(big)).ranks(), 10);
  cluster.reset(cluster_for_ring(small));
  EXPECT_EQ(cluster.run(workload::build_ring(small)).ranks(), 4);
}

TEST(Cluster, ReusedRunsStopGrowingTransportPools) {
  workload::RingSpec ring;
  ring.ranks = 8;
  ring.steps = 10;
  ring.noisy = false;
  const ClusterConfig config = cluster_for_ring(ring);
  const auto programs = workload::build_ring(ring);

  Cluster cluster(config);
  (void)cluster.run(programs);  // warm every pool
  cluster.reset(config);
  (void)cluster.run(programs);
  const auto warm = cluster.transport_pool_stats();
  for (int i = 0; i < 3; ++i) {
    cluster.reset(config);
    (void)cluster.run(programs);
  }
  EXPECT_EQ(cluster.transport_pool_stats().allocations, warm.allocations);
}

// Every event of a periodic ring run, accounted for exactly: one start and
// one final wake per rank, one compute end per rank-step, one arrival per
// eager message whose receive was not yet posted when it was sent, and the
// RTS and CTS arrivals of each two-sided rendezvous message. Every wait
// but the last ends fused into the next compute, with no wake.
TEST(Cluster, EventsPerRankStepAreAccountedExactly) {
  constexpr std::uint64_t kRanks = 8;
  constexpr std::uint64_t kSteps = 10;
  for (const bool rendezvous : {false, true}) {
    for (const auto direction : {workload::Direction::unidirectional,
                                 workload::Direction::bidirectional}) {
      for (const bool noisy : {false, true}) {
        workload::RingSpec ring;
        ring.ranks = static_cast<int>(kRanks);
        ring.steps = static_cast<int>(kSteps);
        ring.texec = milliseconds(1.0);
        ring.boundary = workload::Boundary::periodic;
        ring.direction = direction;
        ring.noisy = noisy;
        ClusterConfig config = cluster_for_ring(ring);
        ring.msg_bytes =
            rendezvous ? 2 * config.fabric.eager_limit_bytes : 8192;
        if (noisy)
          config.system_noise =
              noise::NoiseSpec::exponential(microseconds(200.0));
        Cluster cluster(config);
        (void)cluster.run(workload::build_ring(ring));

        const auto& s = cluster.transport_stats();
        const std::uint64_t messages =
            kRanks * kSteps *
            (direction == workload::Direction::bidirectional ? 2 : 1);
        EXPECT_EQ(rendezvous ? s.rendezvous_sends : s.eager_sends, messages);
        EXPECT_LE(s.eager_at_post, s.eager_sends);
        EXPECT_EQ(cluster.events_processed(),
                  kRanks + kRanks * kSteps + kRanks +
                      (s.eager_sends - s.eager_at_post) +
                      2 * s.rendezvous_sends)
            << (rendezvous ? "rendezvous" : "eager") << ' '
            << workload::to_string(direction) << (noisy ? " noisy" : "");
      }
    }
  }
}

TEST(Cluster, ProgramCountMustMatchRanks) {
  workload::RingSpec ring;
  ring.ranks = 4;
  ClusterConfig config = cluster_for_ring(ring);
  config.topo.ranks = 5;
  Cluster cluster(config);
  EXPECT_THROW((void)cluster.run(workload::build_ring(ring)),
               std::invalid_argument);
}

TEST(Cluster, MessageTimeFollowsProtocol) {
  workload::RingSpec ring;
  ring.ranks = 4;
  ClusterConfig config = cluster_for_ring(ring);
  Cluster cluster(config);
  const Duration small = cluster.message_time(0, 1, 8192);
  const Duration large = cluster.message_time(0, 1, 200'000);
  EXPECT_LT(small, large);
}

TEST(Cluster, SystemNoiseChangesTiming) {
  workload::RingSpec ring;
  ring.ranks = 2;
  ring.steps = 10;
  ring.texec = milliseconds(1.0);

  ClusterConfig silent = cluster_for_ring(ring);
  silent.system_noise = noise::NoiseSpec::none();
  Cluster c1(silent);
  const auto t_silent = c1.run(workload::build_ring(ring)).makespan();

  ClusterConfig noisy = cluster_for_ring(ring);
  noisy.system_noise = noise::NoiseSpec::exponential(microseconds(200.0));
  Cluster c2(noisy);
  const auto t_noisy = c2.run(workload::build_ring(ring)).makespan();

  EXPECT_GT(t_noisy, t_silent);
}

/// The trace bytes of `programs` reserved exactly: the row tables plus one
/// slab entry per bounded segment and per step mark.
std::size_t exact_trace_bytes(const std::vector<mpi::Program>& programs) {
  std::size_t bytes =
      mpi::Trace(static_cast<int>(programs.size())).bytes_used();
  for (const auto& p : programs)
    bytes += p.segment_bound() * sizeof(mpi::Segment) +
             p.step_marks() * sizeof(SimTime);
  return bytes;
}

TEST(Cluster, UnmarkedWaitRoundsTraceIsSizedExactly) {
  // Every step runs a second exchange round in its own WaitAll window that
  // marks no step: step rows hold 6 marks, not one per WaitAll.
  constexpr int np = 5;
  std::vector<mpi::Program> programs(np);
  for (int r = 0; r < np; ++r) {
    const int right = (r + 1) % np;
    const int left = (r + np - 1) % np;
    programs[static_cast<std::size_t>(r)]
        .mark()
        .compute(milliseconds(1.0), false)
        .isend(right, 5000, 0)
        .irecv(left, 5000, 0)
        .waitall()
        .isend(left, 5000, 100)
        .irecv(right, 5000, 100)
        .waitall()
        .repeat(6);
  }
  ClusterConfig config;
  config.topo = net::TopologySpec::one_rank_per_node(np);
  Cluster cluster(config);
  const auto trace = cluster.run(programs);
  for (int r = 0; r < np; ++r) {
    EXPECT_EQ(trace.step_begin(r).size(), 6u);
    EXPECT_LE(trace.segments(r).size(),
              programs[static_cast<std::size_t>(r)].segment_bound());
  }
  EXPECT_EQ(trace.bytes_used(), exact_trace_bytes(programs));
}

TEST(Cluster, MarksWithoutWaitallTraceIsSizedExactly) {
  std::vector<mpi::Program> programs(2);
  for (int s = 0; s < 7; ++s) programs[0].mark().compute(milliseconds(1.0));
  programs[1].mark().compute(milliseconds(2.0)).repeat(7);
  ClusterConfig config;
  config.topo = net::TopologySpec::one_rank_per_node(2);
  Cluster cluster(config);
  const auto trace = cluster.run(programs);
  for (int r = 0; r < 2; ++r) {
    EXPECT_EQ(trace.step_begin(r).size(), 7u);
    EXPECT_EQ(trace.segments(r).size(), 7u);
  }
  EXPECT_EQ(trace.bytes_used(), exact_trace_bytes(programs));
}

/// Rank 0 posts two 1 MiB (rendezvous) sends to rank 1 in one window;
/// rank 1 receives them in two one-request windows. Legal MPI, but under
/// deferred push the first payload waits for the second handshake, whose
/// receive waits for the first payload.
std::vector<mpi::Program> two_sends_received_one_at_a_time() {
  constexpr std::int64_t kMiB = std::int64_t{1} << 20;
  std::vector<mpi::Program> programs(2);
  programs[0].isend(1, kMiB, 0).isend(1, kMiB, 1).waitall();
  programs[1].irecv(0, kMiB, 0).waitall().irecv(0, kMiB, 1).waitall();
  return programs;
}

TEST(Cluster, DeferredPushDeadlocksOnReceivesPostedOneAtATime) {
  const auto programs = two_sends_received_one_at_a_time();
  ClusterConfig config;
  config.topo = net::TopologySpec::one_rank_per_node(2);
  ASSERT_EQ(config.transport.rendezvous.pipelining,
            mpi::RendezvousPipelining::deferred_push);
  Cluster cluster(config);
  try {
    (void)cluster.run(programs);
    FAIL() << "expected the deadlock check to throw";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("deadlock"), std::string::npos)
        << e.what();
  }

  // Independent pushes carry the same program to completion.
  config.transport.rendezvous.pipelining =
      mpi::RendezvousPipelining::independent;
  cluster.reset(config);
  const auto trace = cluster.run(programs);
  EXPECT_EQ(trace.makespan(), SimTime{709'850});
}

TEST(ExperimentHelpers, MeasuredCycleFromMarks) {
  mpi::Trace trace(1);
  for (int s = 0; s < 5; ++s)
    trace.mark_step(0, s, SimTime{s * 2'000'000});
  EXPECT_EQ(measured_cycle(trace, 0, 1, 4), milliseconds(2.0));
  EXPECT_THROW((void)measured_cycle(trace, 0, 3, 3), std::invalid_argument);
  EXPECT_THROW((void)measured_cycle(trace, 0, 0, 5), std::invalid_argument);
}

TEST(ExperimentHelpers, InjectionBegin) {
  mpi::Trace trace(2);
  trace.add_segment(1, {mpi::SegKind::injected, SimTime{42}, SimTime{100},
                        0, Duration::zero()});
  EXPECT_EQ(injection_begin(trace, 1), SimTime{42});
  EXPECT_EQ(injection_begin(trace, 0), SimTime::zero());
}

TEST(ExperimentHelpers, ClusterForRingShapes) {
  workload::RingSpec ring;
  ring.ranks = 12;
  const ClusterConfig ppn1 = cluster_for_ring(ring, true);
  EXPECT_EQ(net::Topology(ppn1.topo).nodes(), 12);
  const ClusterConfig packed = cluster_for_ring(ring, false, 6);
  EXPECT_EQ(net::Topology(packed.topo).sockets(), 2);
}

TEST(RunWaveExperiment, NoDelaysMeansNoWave) {
  workload::RingSpec ring;
  ring.ranks = 4;
  ring.steps = 3;
  ring.noisy = false;
  WaveExperiment exp;
  exp.ring = ring;
  exp.cluster = cluster_for_ring(ring);
  const auto result = run_wave_experiment(exp);
  EXPECT_EQ(result.up.hops_probed, 0);
  EXPECT_TRUE(result.up.front.empty());
  EXPECT_EQ(result.down.hops_probed, 0);
  EXPECT_TRUE(result.down.front.empty());
  EXPECT_EQ(result.trace.ranks(), 4);
}

TEST(RunWaveExperiment, ReportsProtocolAndPrediction) {
  workload::RingSpec ring;
  ring.ranks = 8;
  ring.steps = 12;
  ring.texec = milliseconds(1.0);
  ring.noisy = false;
  WaveExperiment exp;
  exp.ring = ring;
  exp.cluster = cluster_for_ring(ring);
  exp.delays = workload::single_delay(2, 0, milliseconds(5.0));
  const auto result = run_wave_experiment(exp);
  EXPECT_EQ(result.protocol, mpi::WireProtocol::eager);
  EXPECT_GT(result.predicted_speed, 900.0);   // ~1000 ranks/s at 1 ms
  EXPECT_LT(result.predicted_speed, 1000.0);  // comm adds a little
  EXPECT_GT(result.up.speed_ranks_per_sec, 0.0);
}

}  // namespace
}  // namespace iw::core
