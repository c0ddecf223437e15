// Integration: the qualitative propagation matrix of paper Figs. 4 and 5.
#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "workload/delay.hpp"

namespace iw::core {
namespace {

WaveExperiment flavor_experiment(workload::Direction dir,
                                 workload::Boundary bnd,
                                 std::int64_t msg_bytes) {
  workload::RingSpec ring;
  ring.ranks = 18;
  ring.direction = dir;
  ring.boundary = bnd;
  ring.msg_bytes = msg_bytes;
  ring.steps = 20;
  ring.texec = milliseconds(3.0);
  ring.noisy = false;  // silent system: sharpest assertions

  WaveExperiment exp;
  exp.ring = ring;
  exp.cluster = cluster_for_ring(ring);
  exp.delays = workload::single_delay(5, 0, milliseconds(13.5));
  return exp;
}

constexpr std::int64_t kSmall = 16384;    // eager
constexpr std::int64_t kLarge = 174080;   // rendezvous (> 131072)

TEST(PropagationFlavors, EagerUnidirectionalTravelsOnlyUpward) {
  // Fig. 4 / Fig. 5(a): ranks below the injection are unaffected because
  // the eager sender can get rid of its messages.
  const auto result =
      run_wave_experiment(flavor_experiment(workload::Direction::unidirectional,
                                            workload::Boundary::open, kSmall));
  EXPECT_EQ(result.up.survival_hops, 12);  // rank 6..17: runs out at the end
  EXPECT_EQ(result.down.survival_hops, 0);
  // Ranks below the injection never wait more than the noise floor.
  for (int r = 0; r < 5; ++r)
    EXPECT_LT(result.trace.total(r, mpi::SegKind::wait), milliseconds(1.0));
}

TEST(PropagationFlavors, EagerUnidirectionalPeriodicDiesAtInjector) {
  // Fig. 5(b): the wave wraps around and dies where it was born; after one
  // traversal everything is in sync again.
  const auto result = run_wave_experiment(
      flavor_experiment(workload::Direction::unidirectional,
                        workload::Boundary::periodic, kSmall));
  EXPECT_EQ(result.up.survival_hops, 17);  // all other ranks hit once
  // The injecting rank itself never idles: it is busy absorbing the
  // backlog of eager messages.
  EXPECT_LT(result.trace.total(5, mpi::SegKind::wait), milliseconds(1.0));
  // Total excess runtime ~ one injected delay, not more (wave died).
  const Duration makespan = result.trace.makespan() - SimTime::zero();
  const Duration ideal = milliseconds(3.0) * 20 + milliseconds(13.5);
  EXPECT_LT(makespan - ideal, milliseconds(2.0));
}

TEST(PropagationFlavors, EagerBidirectionalTravelsBothWays) {
  // Fig. 5(c): open boundaries, waves die at both chain ends.
  const auto result =
      run_wave_experiment(flavor_experiment(workload::Direction::bidirectional,
                                            workload::Boundary::open, kSmall));
  EXPECT_EQ(result.up.survival_hops, 12);
  EXPECT_EQ(result.down.survival_hops, 5);
}

TEST(PropagationFlavors, EagerBidirectionalPeriodicWavesCancel) {
  // Fig. 5(d): the two branches wrap and annihilate near the antipode
  // (rank 14 for injection at 5 on 18 ranks).
  const auto result = run_wave_experiment(
      flavor_experiment(workload::Direction::bidirectional,
                        workload::Boundary::periodic, kSmall));
  // Both branches survive to the probe cap (ranks/2 - 1 = 8 hops).
  EXPECT_EQ(result.up.survival_hops, 8);
  EXPECT_EQ(result.down.survival_hops, 8);
  // After cancellation the run ends with exactly one delay of excess.
  const Duration makespan = result.trace.makespan() - SimTime::zero();
  const Duration ideal = milliseconds(3.0) * 20 + milliseconds(13.5);
  EXPECT_LT(makespan - ideal, milliseconds(2.0));
}

TEST(PropagationFlavors, RendezvousUnidirectionalTravelsBothWays) {
  // Fig. 5(e): the sender toward the delayed rank blocks too (no CTS), so
  // the wave propagates backward as well.
  const auto result =
      run_wave_experiment(flavor_experiment(workload::Direction::unidirectional,
                                            workload::Boundary::open, kLarge));
  EXPECT_EQ(result.protocol, mpi::WireProtocol::rendezvous);
  EXPECT_EQ(result.up.survival_hops, 12);
  EXPECT_EQ(result.down.survival_hops, 5);
}

TEST(PropagationFlavors, SpeedRatiosAcrossModes) {
  // Fig. 5(g,h) / Sec. IV-C: bidirectional rendezvous is twice as fast as
  // every other mode.
  const auto eager_uni =
      run_wave_experiment(flavor_experiment(workload::Direction::unidirectional,
                                            workload::Boundary::open, kSmall));
  const auto rdv_uni =
      run_wave_experiment(flavor_experiment(workload::Direction::unidirectional,
                                            workload::Boundary::open, kLarge));
  const auto rdv_bidi =
      run_wave_experiment(flavor_experiment(workload::Direction::bidirectional,
                                            workload::Boundary::open, kLarge));

  const double v_eager = eager_uni.up.speed_ranks_per_sec;
  const double v_rdv = rdv_uni.up.speed_ranks_per_sec;
  const double v_rdv_bidi = rdv_bidi.up.speed_ranks_per_sec;

  // Rendezvous vs eager differ only through the slightly larger Tcomm.
  EXPECT_NEAR(v_rdv / v_eager, 1.0, 0.05);
  // The doubling.
  EXPECT_NEAR(v_rdv_bidi / v_rdv, 2.0, 0.05);
}

TEST(PropagationFlavors, OnlyDeferredPushTwoSidedRendezvousDoublesSpeed) {
  // Sec. IV-C's sigma = 2 needs the sender-side push pipeline coupling of
  // two-sided deferred-push rendezvous. Fully independent progress and the
  // one-sided wire flavors, which move the payload without a sender push,
  // keep the bidirectional wave at the unidirectional speed.
  struct Mode {
    const char* label;
    mpi::RendezvousFlavor flavor;
    mpi::RendezvousPipelining pipelining;
    double bidi_over_uni;
  };
  const Mode modes[] = {
      {"two_sided/deferred_push", mpi::RendezvousFlavor::two_sided,
       mpi::RendezvousPipelining::deferred_push, 2.0},
      {"two_sided/independent", mpi::RendezvousFlavor::two_sided,
       mpi::RendezvousPipelining::independent, 1.0},
      {"rdma_put", mpi::RendezvousFlavor::rdma_put,
       mpi::RendezvousPipelining::deferred_push, 1.0},
      {"rdma_get", mpi::RendezvousFlavor::rdma_get,
       mpi::RendezvousPipelining::deferred_push, 1.0},
  };
  for (const Mode& mode : modes) {
    auto speed = [&](workload::Direction dir) {
      WaveExperiment exp =
          flavor_experiment(dir, workload::Boundary::open, kLarge);
      exp.cluster.transport.rendezvous.flavor = mode.flavor;
      exp.cluster.transport.rendezvous.pipelining = mode.pipelining;
      return run_wave_experiment(exp).up.speed_ranks_per_sec;
    };
    const double v_uni = speed(workload::Direction::unidirectional);
    const double v_bidi = speed(workload::Direction::bidirectional);
    ASSERT_GT(v_uni, 0.0) << mode.label;
    EXPECT_NEAR(v_bidi / v_uni, mode.bidi_over_uni, 0.05) << mode.label;
  }
}

TEST(PropagationFlavors, MeasuredSpeedMatchesEq2InSilentSystem) {
  for (const auto msg : {kSmall, kLarge}) {
    for (const auto dir : {workload::Direction::unidirectional,
                           workload::Direction::bidirectional}) {
      const auto result = run_wave_experiment(
          flavor_experiment(dir, workload::Boundary::open, msg));
      ASSERT_GT(result.up.speed_ranks_per_sec, 0.0);
      EXPECT_NEAR(result.up.speed_ranks_per_sec / result.predicted_speed, 1.0,
                  0.03)
          << "direction=" << to_string(dir) << " msg=" << msg;
    }
  }
}

TEST(PropagationFlavors, FrontFitIsCleanInSilentSystem) {
  const auto result =
      run_wave_experiment(flavor_experiment(workload::Direction::unidirectional,
                                            workload::Boundary::open, kSmall));
  EXPECT_GT(result.up.front_fit.r2, 0.9999);
}

TEST(PropagationFlavors, ExcessRuntimeEqualsDelayInSilentSystem) {
  // Fig. 9(a) logic: on a noise-free system the idle wave costs the whole
  // injected delay in wall-clock time.
  const auto result =
      run_wave_experiment(flavor_experiment(workload::Direction::bidirectional,
                                            workload::Boundary::open, kSmall));
  const Duration makespan = result.trace.makespan() - SimTime::zero();
  const Duration ideal = milliseconds(3.0) * 20;
  EXPECT_NEAR((makespan - ideal).ms(), 13.5, 0.5);
}

TEST(PropagationFlavors, EagerBufferExhaustionCreatesBackwardWave) {
  // Paper footnote 1: "there is of course a limit to the internal buffers
  // that store such messages, but this can be handled like a transition to
  // a rendezvous protocol." With unlimited eager credits, ranks below an
  // eager-unidirectional injection never feel the delay; with a finite
  // credit window the sender below the delayed rank runs out of credit,
  // demotes to rendezvous, blocks — and a backward wave appears.
  auto run_with_credits = [](int window) {
    WaveExperiment exp = flavor_experiment(
        workload::Direction::unidirectional, workload::Boundary::open,
        kSmall);
    exp.cluster.transport.eager.credit_window = window;
    return run_wave_experiment(exp);
  };

  const auto unbounded = run_with_credits(0);  // 0 = unlimited credits
  EXPECT_EQ(unbounded.down.survival_hops, 0);
  EXPECT_LT(unbounded.trace.total(4, mpi::SegKind::wait), milliseconds(1.0));

  // Two messages in flight (the delay spans 4.5 phases, so the third
  // send toward the sleeping rank finds the window exhausted).
  const auto bounded = run_with_credits(2);
  EXPECT_GT(bounded.down.survival_hops, 0)
      << "credit exhaustion must propagate the wave backward";
  EXPECT_GT(bounded.trace.total(4, mpi::SegKind::wait), milliseconds(5.0));
}

}  // namespace
}  // namespace iw::core
