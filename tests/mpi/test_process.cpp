// Tests for the process interpreter: op semantics, blocking, tracing.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "memory/bandwidth_domain.hpp"
#include "mpi/process.hpp"
#include "net/fabric.hpp"
#include "noise/system_profiles.hpp"
#include "support/check.hpp"
#include "wired_ranks.hpp"

namespace iw::mpi {
namespace {

TEST(Process, ComputeAdvancesClockAndTraces) {
  WiredRanks f(1);
  Program p;
  p.mark().compute(milliseconds(3.0), false);
  f.run({std::move(p)});
  EXPECT_TRUE(f.procs[0]->done());
  EXPECT_EQ(f.trace.finish(0), SimTime::zero() + milliseconds(3.0));
  ASSERT_EQ(f.trace.segments(0).size(), 1u);
  const auto& seg = f.trace.segments(0)[0];
  EXPECT_EQ(seg.kind, SegKind::compute);
  EXPECT_EQ(seg.duration(), milliseconds(3.0));
  EXPECT_EQ(seg.step, 0);
}

TEST(Process, InjectTracedSeparately) {
  WiredRanks f(1);
  Program p;
  p.mark().compute(milliseconds(1.0), false).inject(milliseconds(9.0));
  f.run({std::move(p)});
  EXPECT_EQ(f.trace.total(0, SegKind::injected), milliseconds(9.0));
  EXPECT_EQ(f.trace.finish(0), SimTime::zero() + milliseconds(10.0));
}

TEST(Process, NoiseSourceExtendsComputePhases) {
  WiredRanks f(1);
  f.procs[0]->add_noise(
      noise::NoiseSpec::uniform(microseconds(100.0), microseconds(100.0)),
      Rng(1));
  Program p;
  p.mark().compute(milliseconds(1.0), true).compute(milliseconds(1.0), true);
  f.run({std::move(p)});
  // Two phases, each +100 us.
  EXPECT_EQ(f.trace.finish(0), SimTime::zero() + milliseconds(2.2));
  EXPECT_EQ(f.trace.segments(0)[0].noise, microseconds(100.0));
}

TEST(Process, NonNoisyComputeIgnoresNoise) {
  WiredRanks f(1);
  f.procs[0]->add_noise(
      noise::NoiseSpec::uniform(microseconds(100.0), microseconds(100.0)),
      Rng(1));
  Program p;
  p.compute(milliseconds(1.0), false);
  f.run({std::move(p)});
  EXPECT_EQ(f.trace.finish(0), SimTime::zero() + milliseconds(1.0));
}

TEST(Process, InvalidNoiseSpecRejectedBeforeRun) {
  WiredRanks f(1);
  noise::NoiseSpec spec;  // assembled field by field, bypassing the factory
  spec.kind = noise::NoiseSpec::Kind::uniform;
  spec.lo = microseconds(3.0);
  spec.hi = microseconds(2.0);
  EXPECT_THROW(f.procs[0]->add_noise(spec, Rng(1)), std::invalid_argument);
}

TEST(Process, PingPongBlocksAndRecordsWait) {
  WiredRanks f(2);
  // Rank 0 computes 1 ms then sends; rank 1 waits for it immediately.
  Program p0, p1;
  p0.mark().compute(milliseconds(1.0), false).isend(1, 100, 0).waitall();
  p1.mark().irecv(0, 100, 0).waitall();
  f.run({std::move(p0), std::move(p1)});
  // Rank 1 waited from t=0 to arrival (1 ms + ~1 us network).
  const Duration wait = f.trace.total(1, SegKind::wait);
  EXPECT_GT(wait, milliseconds(1.0));
  EXPECT_LT(wait, milliseconds(1.1));
}

TEST(Process, WaitallWithCompletedRequestsDoesNotBlock) {
  WiredRanks f(2);
  Program p0, p1;
  // Rank 0 sends eagerly (completes locally) and waits: no wait segment.
  p0.isend(1, 100, 0).waitall().compute(milliseconds(1.0), false);
  p1.compute(milliseconds(2.0), false).irecv(0, 100, 0).waitall();
  f.run({std::move(p0), std::move(p1)});
  // Eager local completion has overhead 0 on the ideal fabric.
  EXPECT_EQ(f.trace.total(0, SegKind::wait), Duration::zero());
  EXPECT_EQ(f.trace.total(1, SegKind::wait), Duration::zero());
}

TEST(Process, StepMarksRecordWallclock) {
  WiredRanks f(1);
  Program p;
  p.mark().compute(milliseconds(2.0), false)
      .mark().compute(milliseconds(3.0), false)
      .mark();
  f.run({std::move(p)});
  const auto& marks = f.trace.step_begin(0);
  ASSERT_EQ(marks.size(), 3u);
  EXPECT_EQ(marks[0], SimTime::zero());
  EXPECT_EQ(marks[1], SimTime::zero() + milliseconds(2.0));
  EXPECT_EQ(marks[2], SimTime::zero() + milliseconds(5.0));
}

TEST(Process, MemWorkUsesDomain) {
  WiredRanks f(1);
  memory::BandwidthDomain domain(f.engine, 10e9, 10e9);
  f.procs[0]->set_domain(&domain);
  Program p;
  p.mark().mem_work(10'000'000, false);  // 10 MB at 10 GB/s = 1 ms
  f.run({std::move(p)});
  EXPECT_EQ(f.trace.finish(0), SimTime::zero() + milliseconds(1.0));
}

TEST(Process, MemWorkWithoutDomainThrows) {
  WiredRanks f(1);
  Program p;
  p.mem_work(100);
  f.start({std::move(p)});
  EXPECT_THROW(f.engine.run(), std::invalid_argument);
}

TEST(Process, FinishingRecordsTheFinishTime) {
  WiredRanks f(1);
  Program p;
  p.compute(milliseconds(1.0), false);
  f.start({std::move(p)});
  EXPECT_FALSE(f.rank(0).done());
  f.engine.run();
  EXPECT_TRUE(f.rank(0).done());
  EXPECT_EQ(f.trace.finish(0), SimTime::zero() + milliseconds(1.0));
}

// The transport settles each request of a window once. An id outside the
// window is rejected in every build; a second settle of one id is a
// transport bug that audit builds catch.
TEST(Process, RejectsUnknownAndTwiceSettledRequests) {
  WiredRanks f(2);
  std::vector<Program> p(2);
  p[0].irecv(1, 8, 0).irecv(1, 8, 1).waitall();  // rank 1 never sends
  f.run(std::move(p));
  Process& proc = f.rank(0);
  EXPECT_THROW(proc.on_request_settles_at(2, SimTime{10}),
               std::invalid_argument);
  proc.on_request_settles_at(0, SimTime{10});
  if (!check::kAuditEnabled)
    GTEST_SKIP() << "double settles are caught only in audit builds";
  try {
    proc.on_request_settles_at(0, SimTime{10});
    FAIL() << "expected the audit to catch the second settle";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("settled twice"), std::string::npos)
        << e.what();
  }
}

TEST(Process, TwoRankRingStaysInLockstep) {
  WiredRanks f(2);
  std::vector<Program> progs(2);
  for (int r = 0; r < 2; ++r) {
    const int peer = 1 - r;
    for (int s = 0; s < 5; ++s) {
      progs[static_cast<std::size_t>(r)]
          .mark()
          .compute(milliseconds(1.0), false)
          .isend(peer, 100, s)
          .irecv(peer, 100, s)
          .waitall();
    }
  }
  f.run(std::move(progs));
  // Both ranks finish together, 5 cycles of ~1 ms + ~1.1 us comm.
  EXPECT_EQ(f.trace.finish(0), f.trace.finish(1));
  EXPECT_GT(f.trace.finish(0), SimTime::zero() + milliseconds(5.0));
  EXPECT_LT(f.trace.finish(0), SimTime::zero() + milliseconds(5.1));
}

TEST(Process, LoopBodyRunsEveryIteration) {
  WiredRanks f(1);
  Program p;
  p.mark().compute(milliseconds(2.0), false).repeat(3);
  f.run({std::move(p)});
  EXPECT_TRUE(f.procs[0]->done());
  EXPECT_EQ(f.trace.finish(0), SimTime::zero() + milliseconds(6.0));
  const auto segs = f.trace.segments(0);
  ASSERT_EQ(segs.size(), 3u);
  for (std::int32_t i = 0; i < 3; ++i) EXPECT_EQ(segs[i].step, i);
  ASSERT_EQ(f.trace.step_begin(0).size(), 3u);
  EXPECT_EQ(f.trace.step_begin(0)[2], SimTime::zero() + milliseconds(4.0));
}

TEST(Process, InjectionPointRunsOnlyListedIterations) {
  WiredRanks f(1);
  Program p;
  p.mark().compute(milliseconds(1.0), false).inject_point().repeat(4);
  p.inject_at(1, milliseconds(5.0)).inject_at(3, Duration::zero());
  f.run({std::move(p)});
  const auto segs = f.trace.segments(0);
  // Iterations 0 and 2 pass the point without a segment; iteration 3's
  // zero-length entry still records one.
  ASSERT_EQ(segs.size(), 6u);
  EXPECT_EQ(segs[2].kind, SegKind::injected);
  EXPECT_EQ(segs[2].step, 1);
  EXPECT_EQ(segs[2].duration(), milliseconds(5.0));
  EXPECT_EQ(segs[5].kind, SegKind::injected);
  EXPECT_EQ(segs[5].step, 3);
  EXPECT_EQ(segs[5].duration(), Duration::zero());
  EXPECT_EQ(f.trace.finish(0), SimTime::zero() + milliseconds(9.0));
}

TEST(Process, IterationSendMatchesOnlyThatIterationsReceive) {
  // Rank 0 loops over one send body, so iteration i sends tag 10 + i.
  // Receives posted in reverse tag order each match their own iteration.
  {
    WiredRanks f(2);
    Program sender, receiver;
    sender.mark().isend(1, 100, 10).waitall().repeat(3);
    receiver.irecv(0, 100, 12).irecv(0, 100, 11).irecv(0, 100, 10).waitall();
    f.run({std::move(sender), std::move(receiver)});
    EXPECT_TRUE(f.procs[0]->done());
    EXPECT_TRUE(f.procs[1]->done());
  }
  // Three receives of iteration 0's tag: only one send carries it, so the
  // receiver never completes.
  {
    WiredRanks f(2);
    Program sender, receiver;
    sender.mark().isend(1, 100, 10).waitall().repeat(3);
    receiver.irecv(0, 100, 10).irecv(0, 100, 10).irecv(0, 100, 10).waitall();
    f.run({std::move(sender), std::move(receiver)});
    EXPECT_TRUE(f.procs[0]->done());
    EXPECT_FALSE(f.procs[1]->done());
  }
}

TEST(Process, ResetRewindsTheLoop) {
  WiredRanks f(1);
  Program p;
  p.mark().compute(milliseconds(1.0), false).inject_point().repeat(2);
  p.inject_at(1, milliseconds(3.0));
  f.run({p});
  ASSERT_TRUE(f.procs[0]->done());

  Trace trace(1);
  Process& proc = *f.procs[0];
  proc.reset(0, trace);
  proc.set_program(&f.programs[0]);
  proc.start();
  f.engine.run();
  EXPECT_TRUE(proc.done());
  EXPECT_EQ(trace.segments(0).size(), 3u);
  EXPECT_EQ(trace.total(0, SegKind::injected), milliseconds(3.0));
  EXPECT_EQ(trace.step_begin(0).size(), 2u);
}

}  // namespace
}  // namespace iw::mpi
