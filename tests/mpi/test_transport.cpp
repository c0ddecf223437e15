// Tests for the eager/rendezvous transport: matching, protocol selection,
// completion timing, the deferred-push rule, the finite-injection NIC and
// the credit-window demotion. Every test drives the transport through
// Process-wired ranks running small programs (tests/mpi/wired_ranks.hpp),
// so each request settles the one way production settles it; a completion
// time is read as the step mark after a one-request window, or as the wait
// end of a wider one.
#include <gtest/gtest.h>

#include <vector>

#include "memory/bandwidth_domain.hpp"
#include "mpi/process.hpp"
#include "mpi/program.hpp"
#include "mpi/trace.hpp"
#include "mpi/transport.hpp"
#include "net/fabric.hpp"
#include "net/topology.hpp"
#include "sim/engine.hpp"
#include "wired_ranks.hpp"

namespace iw::mpi {
namespace {

/// The default test fabric with its eager/rendezvous threshold moved (0
/// makes every send rendezvous).
net::FabricProfile fabric_with_eager_limit(std::int64_t limit) {
  net::FabricProfile fabric = default_test_fabric();
  fabric.eager_limit_bytes = limit;
  return fabric;
}

/// The default test fabric with a NIC injection gap on every link class.
net::FabricProfile fabric_with_gap(Duration gap) {
  net::FabricProfile fabric = default_test_fabric();
  for (auto& link : fabric.link) link.gap = gap;
  return fabric;
}

SimTime us(double t) { return SimTime::zero() + microseconds(t); }

/// A rank that does nothing for `d` before its next op.
Program& idle(Program& p, Duration d) { return p.compute(d, false); }

/// Runs the engine in `step` slices, auditing the transport after each.
void run_auditing(WiredRanks& w, Duration step) {
  SimTime t = w.engine.now();
  while (w.engine.events_pending() > 0) {
    t += step;
    w.engine.run_until(t);
    w.transport.audit();
  }
}

TEST(Transport, EagerSenderCompletesLocally) {
  WiredRanks w(2);
  // No receive posted: the eager sender must still complete (buffering),
  // at its post time on this zero-overhead fabric.
  std::vector<Program> p(2);
  send_window(p[0], 1, 1000);
  w.run(p);
  ASSERT_EQ(w.marks(0), 1u);
  EXPECT_EQ(w.mark(0, 0), SimTime::zero());
  EXPECT_EQ(w.transport.stats().eager_sends, 1u);
  EXPECT_EQ(w.transport.stats().unexpected_eager, 1u);
}

TEST(Transport, EagerRecvFirstThenSend) {
  // Rank 0 starts first, so its receive is posted before rank 1 sends.
  WiredRanks w(2);
  std::vector<Program> p(2);
  recv_window(p[0], 1, 1000, 7);
  send_window(p[1], 0, 1000, 7);
  w.run(p);
  EXPECT_EQ(w.mark(0, 0), us(2.0));
  EXPECT_EQ(w.mark(1, 0), SimTime::zero());
  EXPECT_EQ(w.transport.stats().eager_at_post, 1u);
}

TEST(Transport, EagerSendFirstThenRecvMatchesUnexpected) {
  WiredRanks w(2);
  std::vector<Program> p(2);
  send_window(p[0], 1, 1000, 7);
  recv_window(idle(p[1], microseconds(10.0)), 0, 1000, 7);
  w.start(p);
  w.engine.run_until(us(5.0));  // arrived at 2 us, no receive yet
  EXPECT_EQ(w.marks(1), 0u);
  EXPECT_EQ(w.transport.stats().unexpected_eager, 1u);
  w.engine.run();
  EXPECT_EQ(w.mark(1, 0), us(10.0));  // matched when posted
}

TEST(Transport, EagerRecvTimingMatchesModel) {
  // ideal fabric: latency 1 us, 1 GB/s, zero overhead/gap.
  WiredRanks w(2);
  std::vector<Program> p(2);
  recv_window(p[0], 1, 1000);
  send_window(p[1], 0, 1000);
  w.run(p);
  // arrival = 1 us latency + 1000 B / 1 GB/s = 1 us -> 2 us total.
  EXPECT_EQ(w.mark(0, 0), SimTime{2000});
  EXPECT_EQ(w.transport.eager_transfer_time(0, 1, 1000), Duration{2000});
}

TEST(Transport, TagsDiscriminate) {
  // Rank 0 sends tag 2 (arrives 1.1 us), then tag 1 (1.2 us). The tag-1
  // receive, posted first, must let the tag-2 message pass by.
  WiredRanks w(2);
  std::vector<Program> p(2);
  send_window(p[0], 1, 100, /*tag=*/2);
  send_window(p[0], 1, 100, /*tag=*/1);
  recv_window(p[1], 0, 100, /*tag=*/1);
  recv_window(p[1], 0, 100, /*tag=*/2);
  w.run(p);
  EXPECT_EQ(w.mark(1, 0), us(1.2));
  EXPECT_EQ(w.mark(1, 1), us(1.2));  // the tag-2 message, unexpected
  EXPECT_EQ(w.transport.stats().unexpected_eager, 1u);
}

TEST(Transport, SourcesDiscriminate) {
  // Rank 2 receives from rank 1 first. Rank 0's message (1.1 us) must not
  // match it; rank 1's (sent at 5 us, arriving at 6.1 us) does.
  WiredRanks w(3);
  std::vector<Program> p(3);
  send_window(p[0], 2, 100);
  send_window(idle(p[1], microseconds(5.0)), 2, 100);
  recv_window(p[2], /*src=*/1, 100);
  recv_window(p[2], /*src=*/0, 100);
  w.run(p);
  EXPECT_EQ(w.mark(2, 0), us(6.1));
  EXPECT_EQ(w.mark(2, 1), us(6.1));
  EXPECT_EQ(w.transport.stats().unexpected_eager, 1u);
}

TEST(Transport, SameSourceAndTagMessagesBothMatch) {
  // Two sends with the same (src, tag) and two receives in one window:
  // each message takes one receive, and the window ends at the second
  // arrival (1.2 us; the NIC serializes the two 100 B payloads).
  WiredRanks w(2);
  std::vector<Program> p(2);
  send_window(p[0], 1, 100);
  send_window(p[0], 1, 100);
  p[1].irecv(0, 100, 0).irecv(0, 100, 0).waitall().mark();
  w.run(p);
  EXPECT_TRUE(w.rank(1).done());
  EXPECT_EQ(w.mark(1, 0), us(1.2));
  EXPECT_EQ(w.transport.stats().unexpected_eager, 0u);
}

TEST(Transport, ProtocolSelectionByEagerLimit) {
  WiredRanks w(2);
  const std::int64_t limit = w.transport.eager_limit();
  EXPECT_EQ(w.transport.protocol_for(0, 1, limit), WireProtocol::eager);
  EXPECT_EQ(w.transport.protocol_for(0, 1, limit + 1),
            WireProtocol::rendezvous);
}

TEST(Transport, EagerLimitComesFromTheFabric) {
  WiredRanks w(2, {}, fabric_with_eager_limit(1000));
  EXPECT_EQ(w.transport.eager_limit(), 1000);
  EXPECT_EQ(w.transport.protocol_for(0, 1, 1001), WireProtocol::rendezvous);
}

TEST(Transport, RendezvousWaitsForReceiver) {
  // Eager limit 0 forces rendezvous for every size.
  WiredRanks w(2, {}, fabric_with_eager_limit(0));
  std::vector<Program> p(2);
  send_window(p[0], 1, 1000);
  recv_window(idle(p[1], microseconds(10.0)), 0, 1000);
  w.start(p);
  w.engine.run_until(us(5.0));
  // No receive posted: the sender must NOT complete.
  EXPECT_EQ(w.marks(0), 0u);
  EXPECT_EQ(w.transport.stats().unexpected_rts, 1u);

  w.engine.run();
  // Receive at 10 us, CTS lands at 11 us, the push is injected by 12 us
  // and arrives at 13 us.
  EXPECT_EQ(w.mark(0, 0), us(12.0));
  EXPECT_EQ(w.mark(1, 0), us(13.0));
  EXPECT_EQ(w.transport.stats().rendezvous_sends, 1u);
}

TEST(Transport, RendezvousTimingIncludesHandshake) {
  WiredRanks w(2, {}, fabric_with_eager_limit(0));
  std::vector<Program> p(2);
  send_window(p[0], 1, 1000);
  recv_window(p[1], 0, 1000);
  w.run(p);
  // RTS 1 us + CTS 1 us + data (1 us latency + 1 us transfer) = 4 us.
  EXPECT_EQ(w.mark(1, 0), SimTime{4000});
  EXPECT_EQ(w.transport.rendezvous_transfer_time(0, 1, 1000),
            Duration{4000});
  // Sender completes when the payload is injected (before the latency).
  EXPECT_EQ(w.mark(0, 0), SimTime{3000});
}

TEST(Transport, TwoSidedPushSchedulesNoCompletionEvents) {
  // One pre-posted 100 kB rendezvous message. Each rank posts, then
  // computes 50 us, then waits. RTS lands at 1 us and CTS at 2 us. The
  // push then fixes both finish times: injection end at 102 us for the
  // sender, and arrival at 103 us for the receiver.
  WiredRanks w(2, {}, fabric_with_eager_limit(0));
  constexpr std::int64_t kBytes = 100'000;
  std::vector<Program> p(2);
  p[0].isend(1, kBytes, 0).compute(microseconds(50.0), false).waitall();
  p[1].irecv(0, kBytes, 0).compute(microseconds(50.0), false).waitall();
  w.start(p);

  // Through the CTS arrival: two starts, the RTS and the CTS. Both ranks
  // are still computing, so the push settles both requests without
  // scheduling anything. Only the two compute ends remain.
  w.engine.run_until(SimTime{2000});
  EXPECT_EQ(w.engine.events_processed(), 4u);
  EXPECT_EQ(w.engine.events_pending(), 2u);

  w.engine.run();
  EXPECT_TRUE(w.rank(0).done());
  EXPECT_TRUE(w.rank(1).done());
  // Compute ends and one timed wake per blocked WaitAll.
  EXPECT_EQ(w.engine.events_processed(), 8u);
  ASSERT_EQ(w.trace.segments(0).size(), 2u);
  ASSERT_EQ(w.trace.segments(1).size(), 2u);
  const Segment& send_wait = w.trace.segments(0)[1];
  const Segment& recv_wait = w.trace.segments(1)[1];
  EXPECT_EQ(send_wait.kind, SegKind::wait);
  EXPECT_EQ(recv_wait.kind, SegKind::wait);
  EXPECT_EQ(send_wait.end, SimTime{102'000});
  EXPECT_EQ(recv_wait.end,
            SimTime::zero() + w.transport.rendezvous_transfer_time(0, 1, kBytes));
}

TEST(Transport, EagerSettleAtPostKeepsSameTagMessagesInOrder) {
  // 10 us latency, 1 us overhead, 1000 B in 1 us. Rank 0 sends m1 at 0
  // (arrives at 11 us) and m2, same tag, at 2 us (arrives at 13 us). Rank
  // 1 posts its first receive at 1 us, while m1 is in flight, so m2 finds
  // a matching posted receive when it is sent. That receive is m1's: m2
  // must not settle it at post time, and each receive settles at its own
  // message's arrival + o.
  net::FabricProfile fabric =
      net::FabricProfile::ideal(microseconds(10.0), 1e9);
  for (auto& link : fabric.link) link.overhead = microseconds(1.0);
  WiredRanks w(2, {}, fabric);
  Program p0;
  p0.isend(1, 1000, 0).compute(microseconds(2.0), false).isend(1, 1000, 0);
  p0.waitall();
  Program p1;
  p1.compute(microseconds(1.0), false).irecv(0, 1000, 0).waitall();
  p1.irecv(0, 1000, 0).waitall();
  w.run({p0, p1});
  EXPECT_TRUE(w.rank(0).done());
  EXPECT_TRUE(w.rank(1).done());

  EXPECT_EQ(w.transport.stats().eager_sends, 2u);
  EXPECT_EQ(w.transport.stats().eager_at_post, 0u);
  EXPECT_EQ(w.transport.stats().unexpected_eager, 0u);
  const auto segs = w.trace.segments(1);
  ASSERT_EQ(segs.size(), 3u);
  EXPECT_EQ(segs[1].kind, SegKind::wait);
  EXPECT_EQ(segs[1].end, SimTime{12'000});
  EXPECT_EQ(segs[2].kind, SegKind::wait);
  EXPECT_EQ(segs[2].end, SimTime{14'000});
  EXPECT_EQ(w.trace.finish(1), SimTime{14'000});

  // With m1 already received, the same exchange settles m2 at post time:
  // rank 1 posts its second receive before m2 is sent.
  WiredRanks late(2, {}, fabric);
  Program q0;
  q0.isend(1, 1000, 0).compute(microseconds(20.0), false);
  q0.isend(1, 1000, 0).waitall();
  late.run({q0, p1});
  EXPECT_TRUE(late.rank(0).done());
  EXPECT_TRUE(late.rank(1).done());
  EXPECT_EQ(late.transport.stats().eager_at_post, 1u);
  const auto late_segs = late.trace.segments(1);
  ASSERT_EQ(late_segs.size(), 3u);
  EXPECT_EQ(late_segs[1].end, SimTime{12'000});
  EXPECT_EQ(late_segs[2].end, SimTime{32'000});  // 20 + 1 + 10 + o
}

TEST(Transport, EagerSettleAtPostFallsBackOnAZeroDelayFabric) {
  // Zero latency, overhead and payload time: the receive would settle at
  // its post time, inside the sender's resume. The send must instead take
  // the arrival event, which settles the receiver from the event loop.
  WiredRanks w(2, {}, net::FabricProfile::ideal(Duration::zero(), 1e9));
  Program p0;
  p0.compute(microseconds(1.0), false).isend(1, 0, 0).waitall();
  Program p1;
  p1.irecv(0, 0, 0).waitall().mark().compute(microseconds(1.0), false);
  w.run({p0, p1});
  EXPECT_TRUE(w.rank(0).done());
  EXPECT_TRUE(w.rank(1).done());

  EXPECT_EQ(w.transport.stats().eager_sends, 1u);
  EXPECT_EQ(w.transport.stats().eager_at_post, 0u);
  // Two starts, two compute ends and the arrival. Neither wait wakes: the
  // sender's request is settled on reaching its WaitAll, and the arrival
  // ends the receiver's wait when it fires.
  EXPECT_EQ(w.engine.events_processed(), 5u);
  EXPECT_EQ(w.trace.finish(0), SimTime{1'000});
  EXPECT_EQ(w.trace.step_begin(1)[0], SimTime{1'000});
  EXPECT_EQ(w.trace.finish(1), SimTime{2'000});
}

TEST(Transport, UnexpectedEagerDoesNotOvertakeEarlierRts) {
  // Rank 0 sends 200 kB (rendezvous; the RTS lands at 1 us) and then 1 kB
  // (eager; lands at 2 us), both with tag 0. Rank 1 posts its receives
  // one at a time from 10 us, after both have arrived. MPI non-overtaking:
  // the first receive takes the 200 kB message (CTS at 11 us, push
  // injected 11-211 us, arrival 212 us), the second the 1 kB payload.
  WiredRanks w(2);
  std::vector<Program> p(2);
  p[0].isend(1, 200'000, 0).isend(1, 1000, 0).waitall().mark();
  recv_window(idle(p[1], microseconds(10.0)), 0, 200'000);
  recv_window(p[1], 0, 1000);
  w.run(p);
  EXPECT_EQ(w.transport.stats().unexpected_rts, 1u);
  EXPECT_EQ(w.transport.stats().unexpected_eager, 1u);
  EXPECT_EQ(w.mark(1, 0), us(212.0));
  EXPECT_EQ(w.mark(1, 1), us(212.0));
  EXPECT_EQ(w.mark(0, 0), us(211.0));
}

TEST(Transport, DeferredPushHoldsDataWhileHandshakeOutstanding) {
  WiredRanks w(3, {}, fabric_with_eager_limit(0));
  // Rank 0 sends to 1 (receive posted) and to 2 (receive posted at 10 us:
  // handshake stuck until then). Under deferred_push the completed
  // handshake to 1 (CTS at 2 us) must NOT push.
  std::vector<Program> p(3);
  p[0].isend(1, 1000, 0).isend(2, 1000, 0).waitall().mark();
  recv_window(p[1], 0, 1000);
  recv_window(idle(p[2], microseconds(10.0)), 0, 1000);
  w.start(p);
  w.engine.run_until(us(5.0));
  EXPECT_EQ(w.marks(1), 0u);
  EXPECT_EQ(w.marks(0), 0u);
  EXPECT_EQ(w.transport.stats().deferred_pushes, 1u);

  // Unsticking the second handshake (CTS at 11 us) releases everything:
  // the held push goes first (injected by 12 us), then rank 2's (13 us).
  w.engine.run();
  EXPECT_EQ(w.mark(1, 0), us(13.0));
  EXPECT_EQ(w.mark(2, 0), us(14.0));
  EXPECT_EQ(w.mark(0, 0), us(13.0));
}

TEST(Transport, IndependentPushesImmediately) {
  TransportConfig opt;
  opt.rendezvous.pipelining = RendezvousPipelining::independent;
  WiredRanks w(3, opt, fabric_with_eager_limit(0));
  std::vector<Program> p(3);
  p[0].isend(1, 1000, 0).isend(2, 1000, 0).waitall().mark();
  recv_window(p[1], 0, 1000);
  // Stuck until 50 us, but must not block 0->1.
  recv_window(idle(p[2], microseconds(50.0)), 0, 1000);
  w.run(p);
  // 0->1 pushes at its CTS (2 us) and arrives at 4 us; 0->2 handshakes at
  // 51 us and is injected by 52 us.
  EXPECT_EQ(w.mark(1, 0), us(4.0));
  EXPECT_EQ(w.mark(0, 0), us(52.0));
  EXPECT_EQ(w.transport.stats().deferred_pushes, 0u);
}

TEST(Transport, UnexpectedRtsMatchInArrivalOrder) {
  TransportConfig opt;
  opt.rendezvous.pipelining = RendezvousPipelining::independent;
  WiredRanks w(2, opt, fabric_with_eager_limit(0));
  // Two same-(src, tag) RTS queue as unexpected: 1000 B, then 3000 B.
  // Later receives must pair with them FIFO, so the first receive (at
  // 10 us) gets the 1000 B message and the second (at 33 us) the 3000 B.
  std::vector<Program> p(2);
  p[0].isend(1, 1000, 7).isend(1, 3000, 7).waitall().mark();
  recv_window(idle(p[1], microseconds(10.0)), 0, 1000, 7);
  recv_window(idle(p[1], microseconds(20.0)), 0, 3000, 7);
  w.start(p);
  w.engine.run_until(us(5.0));
  EXPECT_EQ(w.transport.stats().unexpected_rts, 2u);

  // Only the first handshake is released by the first receive: CTS at
  // 11 us, 1000 B injected by 12 us, arrival at 13 us.
  w.engine.run_until(us(20.0));
  ASSERT_EQ(w.marks(1), 1u);
  EXPECT_EQ(w.mark(1, 0), us(13.0));
  EXPECT_EQ(w.marks(0), 0u);

  // The second: CTS at 34 us, 3000 B injected by 37 us, arrival at 38 us.
  w.engine.run();
  EXPECT_EQ(w.mark(1, 1), us(38.0));
  EXPECT_EQ(w.mark(0, 0), us(37.0));
}

TEST(Transport, DeferredPushCounterCountsEveryHeldPush) {
  WiredRanks w(4, {}, fabric_with_eager_limit(0));
  // Rank 0 opens three handshakes; receivers 1 and 2 answer immediately,
  // receiver 3 stays silent until 10 us. Both completed handshakes must be
  // held (two deferred pushes) until the third CTS clears the last
  // handshake at 11 us.
  std::vector<Program> p(4);
  p[0].isend(1, 1000, 0).isend(2, 1000, 0).isend(3, 1000, 0).waitall().mark();
  recv_window(p[1], 0, 1000);
  recv_window(p[2], 0, 1000);
  recv_window(idle(p[3], microseconds(10.0)), 0, 1000);
  w.start(p);
  w.engine.run_until(us(5.0));
  EXPECT_EQ(w.transport.stats().deferred_pushes, 2u);
  EXPECT_EQ(w.marks(1), 0u);
  EXPECT_EQ(w.marks(2), 0u);

  w.engine.run();
  // Held pushes flush in CTS-arrival order, before the releasing push:
  // the NIC injects them back to back from 11 us.
  EXPECT_EQ(w.mark(1, 0), us(13.0));
  EXPECT_EQ(w.mark(2, 0), us(14.0));
  EXPECT_EQ(w.mark(3, 0), us(15.0));
  EXPECT_EQ(w.mark(0, 0), us(14.0));
  EXPECT_EQ(w.transport.stats().deferred_pushes, 2u);
}

TEST(Transport, MidRunStopLeavesInFlightRendezvousRecoverable) {
  WiredRanks w(2, {}, fabric_with_eager_limit(0));
  std::vector<Program> p(2);
  send_window(p[0], 1, 1000);
  recv_window(p[1], 0, 1000);
  w.start(p);
  // Stop the engine mid-handshake: the RTS (1 us flight) has not landed.
  w.engine.run_until(SimTime{500});
  EXPECT_EQ(w.transport.pool_stats().rdv_in_flight, 1u);
  EXPECT_EQ(w.marks(0), 0u);

  // Resuming drains the handshake; the record returns to the free list.
  w.engine.run();
  EXPECT_EQ(w.mark(0, 0), us(3.0));
  EXPECT_EQ(w.mark(1, 0), us(4.0));
  EXPECT_EQ(w.transport.pool_stats().rdv_in_flight, 0u);
}

/// One loop body per rank exercising every protocol path the steady state
/// uses: a pre-posted eager message 0 -> 1, an unexpected eager message
/// 2 -> 3, and a 100 kB rendezvous exchange 1 -> 0. Each body takes at
/// least 10 us on every rank, so no queue outgrows one iteration.
std::vector<Program> mixed_rounds(int reps) {
  std::vector<Program> p(4);
  p[0].compute(microseconds(10.0), false).isend(1, 1000, 0);
  p[0].irecv(1, 100'000, 0).waitall();
  p[1].irecv(0, 1000, 0).isend(0, 100'000, 0);
  p[1].compute(microseconds(10.0), false).waitall();
  p[2].isend(3, 1000, 0).compute(microseconds(10.0), false).waitall();
  p[3].compute(microseconds(10.0), false).irecv(2, 1000, 0).waitall();
  for (Program& prog : p) prog.repeat(reps);
  return p;
}

TEST(Transport, SteadyStateMessagePathAllocatesNothing) {
  // Small sends eager, large rendezvous.
  WiredRanks w(4, {}, fabric_with_eager_limit(4096));
  w.run(mixed_rounds(16));  // warm every pool
  const Transport::PoolStats warm = w.transport.pool_stats();
  w.rearm();
  w.run(mixed_rounds(64));  // steady state: pools must not grow again
  const Transport::PoolStats after = w.transport.pool_stats();
  for (int r = 0; r < 4; ++r) EXPECT_TRUE(w.rank(r).done()) << r;
  EXPECT_EQ(after.allocations, warm.allocations);
  EXPECT_EQ(after.rdv_in_flight, 0u);
  EXPECT_GT(w.transport.stats().eager_sends, 100u);
  EXPECT_GT(w.transport.stats().rendezvous_sends, 60u);
  EXPECT_GT(w.transport.stats().eager_at_post, 0u);
  EXPECT_GT(w.transport.stats().unexpected_eager, 0u);
}

TEST(Transport, NicGapSerializesInjections) {
  WiredRanks w(3, {}, fabric_with_gap(microseconds(5.0)));
  std::vector<Program> p(3);
  recv_window(p[0], 2, 0);
  recv_window(p[1], 2, 0);
  send_window(p[2], 0, 0);
  send_window(p[2], 1, 0);
  w.run(p);
  // First message: gap 5 + latency 1 = 6 us. Second queues behind on the
  // sender NIC: 10 + 1 = 11 us.
  EXPECT_EQ(w.mark(0, 0), SimTime{6000});
  EXPECT_EQ(w.mark(1, 0), SimTime{11000});
}

TEST(Transport, SelfSendRejected) {
  {
    WiredRanks w(2);
    Program self_send;
    self_send.isend(0, 10, 0).waitall();
    EXPECT_THROW(w.run({self_send, Program{}}), std::invalid_argument);
  }
  {
    WiredRanks w(2);
    Program self_recv;
    self_recv.irecv(1, 10, 0).waitall();
    EXPECT_THROW(w.run({Program{}, self_recv}), std::invalid_argument);
  }
}

TEST(Transport, InterNodeSlowerThanIntraSocket) {
  // Packed topology: ranks 0,1 share a socket; 0,25 are on distinct nodes.
  sim::Engine engine;
  net::Topology topo(net::TopologySpec::packed(40));
  const net::FabricProfile fabric = net::FabricProfile::infiniband_qdr();
  Transport tr(engine, topo, fabric, {});
  const Duration near = tr.eager_transfer_time(0, 1, 8192);
  const Duration far = tr.eager_transfer_time(0, 25, 8192);
  EXPECT_LT(near, far);
}

TEST(Transport, IntraNodePayloadChargesMemoryDomains) {
  // With memory domains configured, an intra-socket message is two memory
  // copies: 10 MB at 10 GB/s twice = 2 ms, plus latency — far slower than
  // the NIC-path estimate when the bus is the bottleneck.
  WiredRanks w(net::TopologySpec::packed(4, 2), {},  // 2 ranks/socket
               net::FabricProfile::ideal(microseconds(1.0), 1e12));
  memory::BandwidthDomain domain(w.engine, 10e9, 10e9);
  w.transport.set_memory_domains({&domain, &domain, &domain, &domain});
  std::vector<Program> p(4);
  send_window(p[0], 1, 10'000'000);
  recv_window(p[1], 0, 10'000'000);
  w.run(p);
  // 10 MB goes rendezvous: RTS (1 us) + CTS (1 us), then two sequential
  // 1 ms copies + 1 us payload latency.
  EXPECT_EQ(w.mark(1, 0),
            SimTime::zero() + milliseconds(2.0) + microseconds(3.0));
}

TEST(Transport, InterNodePayloadKeepsNicPath) {
  // Memory domains must not affect cross-node traffic.
  WiredRanks w(2);
  memory::BandwidthDomain domain(w.engine, 10e9, 10e9);
  w.transport.set_memory_domains({&domain, &domain});
  std::vector<Program> p(2);
  recv_window(p[0], 1, 1000);
  send_window(p[1], 0, 1000);
  w.run(p);
  EXPECT_EQ(w.mark(0, 0), SimTime{2000});  // 1 us latency + 1 us transfer
  EXPECT_EQ(domain.active_jobs(), 0);
}

TEST(Transport, MemoryPathCopiesContendWithComputeJobs) {
  // A message copy sharing the domain with a compute job slows both:
  // processor sharing at 5 GB/s each.
  WiredRanks w(net::TopologySpec::packed(4, 2), {},
               net::FabricProfile::ideal(microseconds(0.0), 1e12));
  memory::BandwidthDomain domain(w.engine, 10e9, 10e9);
  w.transport.set_memory_domains({&domain, &domain, &domain, &domain});
  SimTime compute_done;
  domain.submit(10'000'000, [&] { compute_done = w.engine.now(); });
  std::vector<Program> p(4);
  send_window(p[0], 1, 10'000'000);
  recv_window(p[1], 0, 10'000'000);
  w.run(p);
  // Copy 1 and the compute job share: both 10 MB at 5 GB/s -> done at 2 ms.
  EXPECT_EQ(compute_done, SimTime::zero() + milliseconds(2.0));
  // Copy 2 then runs alone: 1 ms more.
  EXPECT_EQ(w.mark(1, 0), SimTime::zero() + milliseconds(3.0));
}

// The transport's structural audit (a no-op in plain Release) must hold at
// every phase boundary the rendezvous slab and queue pools pass through:
// warm steady state, a mid-run stop with a record in flight, the
// reconfigure() recycle, and the drained end state. The pool-accounting
// reconciliation (pool_stats().rdv_in_flight == live shadow slots) is part
// of audit() itself, so this doubles as the pool-balance regression test.
TEST(Transport, AuditHoldsAcrossProtocolPhasesAndReconfigure) {
  WiredRanks w(4, {}, fabric_with_eager_limit(4096));
  w.transport.audit();  // pristine

  // Every half microsecond through eight mixed rounds, mid-handshake
  // included: in-flight records stay balanced.
  w.start(mixed_rounds(8));
  run_auditing(w, microseconds(0.5));
  EXPECT_EQ(w.transport.pool_stats().rdv_in_flight, 0u);  // drained

  // Stop with a rendezvous handshake genuinely outstanding, then recycle
  // the transport for a new sweep point: reconfigure() audits on entry and
  // must reclaim the in-flight record (post-condition rdv_in_flight == 0).
  std::vector<Program> p(4);
  send_window(p[0], 1, 100'000);
  recv_window(p[1], 0, 100'000);
  w.rearm();
  w.start(p);
  w.engine.run_until(w.engine.now() + microseconds(0.5));
  EXPECT_EQ(w.transport.pool_stats().rdv_in_flight, 1u);
  w.engine.reset();
  w.transport.reconfigure(w.fabric, TransportConfig{});
  w.transport.audit();
  EXPECT_EQ(w.transport.pool_stats().rdv_in_flight, 0u);

  // The recycled transport is fully serviceable (reconfigure() drops the
  // process table by design — each sweep point re-wires it, as start()
  // does): RTS 1 us, CTS 2 us, 100 kB pushed by 102 us, arriving at 103.
  w.rearm();
  w.start(p);
  w.engine.run();
  w.transport.audit();
  ASSERT_EQ(w.marks(1), 1u);
  EXPECT_EQ(w.mark(1, 0), us(103.0));
}

// ---- TransportConfig: validation and presets ------------------------------

TEST(TransportConfig, ValidateRejectsInconsistentCombinations) {
  TransportConfig c;
  c.nic.injection_depth = -1;
  try {
    c.validate();
    FAIL() << "negative injection_depth must be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("nic.injection_depth"),
              std::string::npos);
  }

  c = {};
  c.eager.credit_window = -3;
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(TransportConfig, PresetsValidateAndSetTheirFields) {
  EXPECT_NO_THROW(TransportConfig::ideal().validate());

  const TransportConfig nic = TransportConfig::finite_nic(4);
  EXPECT_NO_THROW(nic.validate());
  EXPECT_EQ(nic.nic.injection_depth, 4);

  const TransportConfig credits = TransportConfig::credit_limited(3);
  EXPECT_NO_THROW(credits.validate());
  EXPECT_EQ(credits.eager.credit_window, 3);
}

TEST(TransportConfig, TransportConstructorValidates) {
  TransportConfig bad;
  bad.eager.credit_window = -1;  // negative window
  EXPECT_THROW(WiredRanks w(2, bad), std::invalid_argument);
}

TEST(TransportConfig, FlavorParserRoundTripsAndRejects) {
  EXPECT_EQ(rendezvous_flavor_from_string("rdma_put"),
            RendezvousFlavor::rdma_put);
  EXPECT_EQ(rendezvous_flavor_from_string(to_string(
                RendezvousFlavor::rdma_get)),
            RendezvousFlavor::rdma_get);
  EXPECT_THROW((void)rendezvous_flavor_from_string("rdma_write"),
               std::invalid_argument);
}

// ---- Finite-injection NIC -------------------------------------------------

TEST(Transport, NicBacklogDrainsFifoAcrossEndpointsUnderInterleaving) {
  WiredRanks w(3, TransportConfig::finite_nic(1),
               fabric_with_gap(microseconds(5.0)));
  // Depth-1 NIC: the first post injects, the rest queue on the backlog.
  // At 7 us, while drains are still re-posting the backlog, a fifth send
  // is posted. FIFO means it goes strictly behind the queued ones, even
  // though the budget briefly frees right before it is posted.
  std::vector<Program> p(3);
  p[0].isend(1, 0, 0).isend(2, 0, 0).isend(1, 0, 0).isend(2, 0, 0);
  idle(p[0], microseconds(7.0)).isend(1, 0, 0).waitall().mark();
  for (int i = 0; i < 3; ++i) recv_window(p[1], 0, 0);
  for (int i = 0; i < 2; ++i) recv_window(p[2], 0, 0);
  w.start(p);
  w.engine.run_until(SimTime::zero());
  EXPECT_EQ(w.transport.stats().nic_backlogged, 3u);
  EXPECT_EQ(w.transport.pool_stats().nic_backlog_depth, 3u);
  w.engine.run();

  // gap 5 us + latency 1 us each, serialized: arrivals at 6, 11, 16, 21,
  // 26 us in exact posting order across both destinations.
  EXPECT_EQ(w.mark(1, 0), SimTime{6000});
  EXPECT_EQ(w.mark(2, 0), SimTime{11000});
  EXPECT_EQ(w.mark(1, 1), SimTime{16000});
  EXPECT_EQ(w.mark(2, 1), SimTime{21000});
  EXPECT_EQ(w.mark(1, 2), SimTime{26000});
  // The sender's window ends when the fifth send reaches the NIC.
  EXPECT_EQ(w.mark(0, 0), SimTime{20000});
  EXPECT_EQ(w.transport.pool_stats().nic_backlog_depth, 0u);
  EXPECT_EQ(w.transport.pool_stats().nic_inflight, 0u);
}

TEST(Transport, NicBacklogDefersEagerLocalCompletion) {
  WiredRanks w(2, TransportConfig::finite_nic(1),
               fabric_with_gap(microseconds(5.0)));
  // The first eager send completes locally at post time (the ideal-NIC
  // behaviour); the second is backlogged and must complete only when it
  // reaches the NIC at t = 5 us — the sender is coupled to NIC drain.
  std::vector<Program> p(2);
  send_window(p[0], 1, 0);
  send_window(p[0], 1, 0);
  recv_window(p[1], 0, 0);
  recv_window(p[1], 0, 0);
  w.run(p);
  EXPECT_EQ(w.mark(0, 0), SimTime::zero());
  EXPECT_EQ(w.mark(0, 1), SimTime{5000});
}

TEST(Transport, NicBudgetAppliesToRtsButProtocolStillProgresses) {
  net::FabricProfile fabric = fabric_with_gap(microseconds(5.0));
  fabric.eager_limit_bytes = 0;  // every send is rendezvous
  WiredRanks w(3, TransportConfig::finite_nic(1), fabric);
  std::vector<Program> p(3);
  p[0].isend(1, 1000, 0).isend(2, 1000, 0).waitall().mark();
  recv_window(p[1], 0, 1000);
  recv_window(p[2], 0, 1000);
  w.start(p);
  w.engine.run_until(SimTime::zero());
  EXPECT_EQ(w.transport.stats().nic_backlogged, 1u);  // RTS behind the first
  w.engine.run();
  // CTS and pushes are budget-exempt responses, so both handshakes finish.
  // RTSs land at 6 and 11 us, CTSs at 12 and 17 us; the held push and then
  // the releasing one leave from 17 us, 6 us apiece.
  EXPECT_EQ(w.mark(1, 0), us(24.0));
  EXPECT_EQ(w.mark(2, 0), us(30.0));
  EXPECT_EQ(w.mark(0, 0), us(29.0));
  EXPECT_EQ(w.transport.pool_stats().rdv_in_flight, 0u);
}

// ---- Credit-based eager flow control --------------------------------------

TEST(Transport, CreditExhaustionMidBurstLosesNoMessages) {
  WiredRanks w(2, TransportConfig::credit_limited(2));
  // Burst of four eager-sized sends with no receiver until 10 us: the
  // first two take the window's credits, the rest demote to rendezvous —
  // nothing is dropped, the demoted sends just wait for the receiver like
  // any rendezvous message.
  std::vector<Program> p(2);
  for (int i = 0; i < 4; ++i) p[0].isend(1, 1000, 0);
  p[0].waitall().mark();
  idle(p[1], microseconds(10.0));
  for (int i = 0; i < 4; ++i) p[1].irecv(0, 1000, 0);
  p[1].waitall().mark();
  w.start(p);
  w.engine.run_until(us(5.0));
  EXPECT_EQ(w.transport.stats().eager_sends, 2u);
  EXPECT_EQ(w.transport.stats().credit_stalls, 2u);
  EXPECT_EQ(w.transport.stats().rendezvous_sends, 2u);
  EXPECT_EQ(w.transport.protocol_for(0, 1, 1000), WireProtocol::rendezvous);
  EXPECT_EQ(w.marks(0), 0u);  // demoted: waiting for the receiver

  // Receiver drains the burst at 10 us: every message arrives exactly once
  // and the returned credits restore the eager protocol. The two eager
  // payloads have arrived; both CTSs land at 11 us, and the two pushes are
  // injected back to back by 13 us and arrive by 14 us.
  w.engine.run();
  EXPECT_TRUE(w.rank(0).done());
  EXPECT_TRUE(w.rank(1).done());
  EXPECT_EQ(w.mark(1, 0), us(14.0));
  EXPECT_EQ(w.mark(0, 0), us(13.0));
  EXPECT_EQ(w.transport.protocol_for(0, 1, 1000), WireProtocol::eager);
}

TEST(Transport, CreditsReturnOnReceiverDrainNotArrival) {
  WiredRanks w(2, TransportConfig::credit_limited(1));
  std::vector<Program> p(2);
  send_window(p[0], 1, 1000);
  recv_window(idle(p[1], microseconds(10.0)), 0, 1000);
  w.start(p);
  w.engine.run_until(us(5.0));  // payload has ARRIVED (unexpected)...
  EXPECT_EQ(w.transport.protocol_for(0, 1, 1000), WireProtocol::rendezvous);
  w.engine.run();  // ...and is drained at 10 us
  EXPECT_EQ(w.transport.protocol_for(0, 1, 1000), WireProtocol::eager);
}

TEST(Transport, CreditWindowsArePerEndpointPair) {
  WiredRanks w(3, TransportConfig::credit_limited(1));
  std::vector<Program> p(3);
  send_window(p[0], 1, 1000);
  w.start(p);
  w.engine.run_until(SimTime::zero());
  EXPECT_EQ(w.transport.protocol_for(0, 1, 1000), WireProtocol::rendezvous);
  // An unrelated pair keeps its own window.
  EXPECT_EQ(w.transport.protocol_for(0, 2, 1000), WireProtocol::eager);
  EXPECT_EQ(w.transport.protocol_for(2, 1, 1000), WireProtocol::eager);
}

// ---- RDMA put/get rendezvous flavors --------------------------------------

TEST(Transport, RdmaPutFinCompletesReceiverAfterPayload) {
  TransportConfig opt;
  opt.rendezvous.flavor = RendezvousFlavor::rdma_put;
  net::FabricProfile fabric = fabric_with_gap(microseconds(2.0));
  fabric.eager_limit_bytes = 0;
  WiredRanks w(2, opt, fabric);
  std::vector<Program> p(2);
  send_window(p[0], 1, 1000);
  recv_window(p[1], 0, 1000);
  w.run(p);
  // RTS (gap 2 + lat 1 = 3) -> RTR (3 more) -> put injection (gap 2 +
  // 1000 B = 3): the sender is done at hand-off, t = 9 us. The receiver
  // completes at the FIN's arrival (2 + 1 more), t = 12 us — strictly
  // after the payload landed at t = 10. A WaitAll that saw the payload
  // arrive must still block until the FIN races in.
  EXPECT_EQ(w.mark(0, 0), SimTime{9000});
  EXPECT_EQ(w.mark(1, 0), SimTime{12000});
  EXPECT_EQ(w.transport.rendezvous_transfer_time(0, 1, 1000),
            Duration{12000});
  EXPECT_EQ(w.transport.stats().rdma_puts, 1u);
}

TEST(Transport, RdmaGetReceiverCompletesAtArrival) {
  TransportConfig opt;
  opt.rendezvous.flavor = RendezvousFlavor::rdma_get;
  WiredRanks w(2, opt, fabric_with_eager_limit(0));
  std::vector<Program> p(2);
  send_window(p[0], 1, 1000);
  recv_window(p[1], 0, 1000);
  w.run(p);
  // RTS 1 us + GET request 1 us + payload (1 us latency + 1 us transfer):
  // the receiver completes at arrival, t = 4 us, with no CPU overhead; the
  // trailing FIN retires the sender at t = 5 us, off the critical path.
  EXPECT_EQ(w.mark(1, 0), SimTime{4000});
  EXPECT_EQ(w.mark(0, 0), SimTime{5000});
  EXPECT_EQ(w.transport.rendezvous_transfer_time(0, 1, 1000),
            Duration{4000});
  EXPECT_EQ(w.transport.stats().rdma_gets, 1u);
}

TEST(Transport, OneSidedFlavorsIgnoreDeferredPush) {
  // Under two_sided/deferred_push a second outstanding handshake holds the
  // first push (DeferredPushHoldsDataWhileHandshakeOutstanding). One-sided
  // puts are executed by the NIC and must NOT be held.
  TransportConfig opt;
  opt.rendezvous.flavor = RendezvousFlavor::rdma_put;
  WiredRanks w(3, opt, fabric_with_eager_limit(0));
  std::vector<Program> p(3);
  p[0].isend(1, 1000, 0).isend(2, 1000, 0).waitall();  // 0->2 never matched
  recv_window(p[1], 0, 1000);
  w.run(p);
  // RTR at 2 us, put injected by 3 us, FIN lands at 4 us.
  EXPECT_EQ(w.mark(1, 0), us(4.0));
  EXPECT_FALSE(w.rank(0).done());  // its 0->2 send is never matched
  EXPECT_EQ(w.transport.stats().deferred_pushes, 0u);
}

TEST(Transport, RdmaPutUnexpectedRtsMatchesOnLateRecv) {
  TransportConfig opt;
  opt.rendezvous.flavor = RendezvousFlavor::rdma_put;
  WiredRanks w(2, opt, fabric_with_eager_limit(0));
  std::vector<Program> p(2);
  send_window(p[0], 1, 1000);
  recv_window(idle(p[1], microseconds(10.0)), 0, 1000);
  w.start(p);
  w.engine.run_until(us(5.0));
  EXPECT_EQ(w.transport.stats().unexpected_rts, 1u);
  EXPECT_EQ(w.marks(0), 0u);
  w.engine.run();
  // RTR at 11 us, put injected by 12 us, FIN lands at 13 us.
  EXPECT_EQ(w.mark(0, 0), us(12.0));
  EXPECT_EQ(w.mark(1, 0), us(13.0));
  EXPECT_EQ(w.transport.pool_stats().rdv_in_flight, 0u);
}

// ---- Combined-feature steady state ----------------------------------------

/// Bursts deep enough to exercise the NIC backlog AND the credit demotion
/// (four eager-sized sends 0 -> 1 per round), beside a rendezvous message
/// 2 -> 3.
std::vector<Program> burst_rounds(int reps) {
  std::vector<Program> p(4);
  for (int i = 0; i < 4; ++i) p[0].isend(1, 1000, 0);
  p[0].waitall();
  for (int i = 0; i < 4; ++i) p[1].irecv(0, 1000, 0);
  p[1].waitall();
  p[2].isend(3, 100'000, 0).waitall();
  p[3].irecv(2, 100'000, 0).waitall();
  for (Program& prog : p) prog.repeat(reps);
  return p;
}

TEST(Transport, SteadyStateWithFiniteNicAndCreditsAllocatesNothing) {
  TransportConfig opt;
  opt.nic.injection_depth = 2;
  opt.eager.credit_window = 2;
  WiredRanks w(4, opt, fabric_with_eager_limit(4096));

  w.start(burst_rounds(16));  // warm every pool, backlog and credits too
  run_auditing(w, microseconds(1.0));
  const Transport::PoolStats warm = w.transport.pool_stats();
  w.rearm();
  w.start(burst_rounds(64));
  run_auditing(w, microseconds(1.0));
  const Transport::PoolStats after = w.transport.pool_stats();
  for (int r = 0; r < 4; ++r) EXPECT_TRUE(w.rank(r).done()) << r;
  EXPECT_EQ(after.allocations, warm.allocations);
  EXPECT_EQ(after.rdv_in_flight, 0u);
  EXPECT_EQ(after.nic_backlog_depth, 0u);
  EXPECT_EQ(after.nic_inflight, 0u);
  EXPECT_GT(w.transport.stats().nic_backlogged, 0u);
  EXPECT_GT(w.transport.stats().credit_stalls, 0u);

  // Recycling across a sweep point keeps the pools (audit on entry).
  w.engine.reset();
  w.transport.reconfigure(w.fabric, opt);
  EXPECT_EQ(w.transport.pool_stats().allocations, after.allocations);
}

}  // namespace
}  // namespace iw::mpi
