// Tests for the eager/rendezvous transport: matching, protocol selection,
// completion timing, the deferred-push rule, the finite-injection NIC and
// the credit-window demotion.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "mpi/process.hpp"
#include "mpi/program.hpp"
#include "mpi/trace.hpp"
#include "mpi/transport.hpp"
#include "net/fabric.hpp"
#include "net/topology.hpp"
#include "sim/engine.hpp"

namespace iw::mpi {
namespace {

/// Harness: N ranks, 1 per node, recording completion times per (rank, req).
class TransportFixture {
 public:
  explicit TransportFixture(int ranks,
                            TransportConfig config = {},
                            net::FabricProfile fabric =
                                net::FabricProfile::ideal(microseconds(1.0),
                                                          1e9))
      : topo_(net::TopologySpec::one_rank_per_node(ranks)),
        fabric_(std::move(fabric)),
        transport_(engine_, topo_, fabric_, config) {
    transport_.set_completion_handler([this](int rank, RequestId req) {
      completions_[{rank, req}] = engine_.now();
    });
  }

  /// Posts a send; an eager send returns its local-completion delay, which
  /// the fixture converts back into a recorded completion (Process does the
  /// equivalent folding into its WaitAll accounting in production).
  void post_send(int src, int dst, int tag, std::int64_t bytes,
                 RequestId req) {
    if (const auto local = transport_.post_send(src, dst, tag, bytes, req)) {
      engine_.after(*local, [this, src, req] {
        completions_[{src, req}] = engine_.now();
      });
    }
  }

  [[nodiscard]] bool completed(int rank, RequestId req) const {
    return completions_.count({rank, req}) > 0;
  }
  [[nodiscard]] SimTime completion_time(int rank, RequestId req) const {
    return completions_.at({rank, req});
  }

  sim::Engine engine_;
  net::Topology topo_;
  net::FabricProfile fabric_;
  Transport transport_;
  std::map<std::pair<int, RequestId>, SimTime> completions_;
};

/// The fixture's default fabric with its eager/rendezvous threshold moved
/// (0 makes every send rendezvous).
net::FabricProfile fabric_with_eager_limit(std::int64_t limit) {
  net::FabricProfile fabric = net::FabricProfile::ideal(microseconds(1.0), 1e9);
  fabric.eager_limit_bytes = limit;
  return fabric;
}

TEST(Transport, EagerSenderCompletesLocally) {
  TransportFixture f(2);
  // No receive posted: the eager sender must still complete (buffering).
  f.post_send(0, 1, 0, 1000, 0);
  f.engine_.run();
  EXPECT_TRUE(f.completed(0, 0));
  EXPECT_FALSE(f.completed(1, 0));
  EXPECT_EQ(f.transport_.stats().eager_sends, 1u);
  EXPECT_EQ(f.transport_.stats().unexpected_eager, 1u);
}

TEST(Transport, EagerRecvFirstThenSend) {
  TransportFixture f(2);
  f.transport_.post_recv(1, 0, 7, 1000, 3);
  f.post_send(0, 1, 7, 1000, 5);
  f.engine_.run();
  EXPECT_TRUE(f.completed(1, 3));
  EXPECT_TRUE(f.completed(0, 5));
}

TEST(Transport, EagerSendFirstThenRecvMatchesUnexpected) {
  TransportFixture f(2);
  f.post_send(0, 1, 7, 1000, 0);
  f.engine_.run();
  EXPECT_FALSE(f.completed(1, 9));
  f.transport_.post_recv(1, 0, 7, 1000, 9);
  f.engine_.run();
  EXPECT_TRUE(f.completed(1, 9));
}

TEST(Transport, EagerRecvTimingMatchesModel) {
  // ideal fabric: latency 1 us, 1 GB/s, zero overhead/gap.
  TransportFixture f(2);
  f.transport_.post_recv(1, 0, 0, 1000, 0);
  f.post_send(0, 1, 0, 1000, 0);
  f.engine_.run();
  // arrival = 1 us latency + 1000 B / 1 GB/s = 1 us -> 2 us total.
  EXPECT_EQ(f.completion_time(1, 0), SimTime{2000});
  EXPECT_EQ(f.transport_.eager_transfer_time(0, 1, 1000), Duration{2000});
}

TEST(Transport, TagsDiscriminate) {
  TransportFixture f(2);
  f.transport_.post_recv(1, 0, /*tag=*/1, 100, 0);
  f.post_send(0, 1, /*tag=*/2, 100, 0);
  f.engine_.run();
  EXPECT_FALSE(f.completed(1, 0));  // tag mismatch: stays unexpected
  f.transport_.post_recv(1, 0, /*tag=*/2, 100, 1);
  f.engine_.run();
  EXPECT_TRUE(f.completed(1, 1));
}

TEST(Transport, SourcesDiscriminate) {
  TransportFixture f(3);
  f.transport_.post_recv(2, /*src=*/1, 0, 100, 0);
  f.post_send(0, 2, 0, 100, 0);  // from rank 0: no match
  f.engine_.run();
  EXPECT_FALSE(f.completed(2, 0));
  f.post_send(1, 2, 0, 100, 0);
  f.engine_.run();
  EXPECT_TRUE(f.completed(2, 0));
}

TEST(Transport, FifoMatchingPerSource) {
  TransportFixture f(2);
  // Two sends same (src, tag); two recvs: first recv gets first message.
  f.transport_.post_recv(1, 0, 0, 100, 0);
  f.transport_.post_recv(1, 0, 0, 100, 1);
  f.post_send(0, 1, 0, 100, 0);
  f.post_send(0, 1, 0, 100, 1);
  f.engine_.run();
  ASSERT_TRUE(f.completed(1, 0));
  ASSERT_TRUE(f.completed(1, 1));
  EXPECT_LE(f.completion_time(1, 0), f.completion_time(1, 1));
}

TEST(Transport, ProtocolSelectionByEagerLimit) {
  TransportFixture f(2);
  const std::int64_t limit = f.transport_.eager_limit();
  EXPECT_EQ(f.transport_.protocol_for(0, 1, limit), WireProtocol::eager);
  EXPECT_EQ(f.transport_.protocol_for(0, 1, limit + 1),
            WireProtocol::rendezvous);
}

TEST(Transport, EagerLimitComesFromTheFabric) {
  TransportFixture f(2, {}, fabric_with_eager_limit(1000));
  EXPECT_EQ(f.transport_.eager_limit(), 1000);
  EXPECT_EQ(f.transport_.protocol_for(0, 1, 1001), WireProtocol::rendezvous);
}

TEST(Transport, RendezvousWaitsForReceiver) {
  // Eager limit 0 forces rendezvous for every size.
  TransportFixture f(2, {}, fabric_with_eager_limit(0));
  f.post_send(0, 1, 0, 1000, 0);
  f.engine_.run();
  // No receive posted: the sender must NOT complete.
  EXPECT_FALSE(f.completed(0, 0));
  EXPECT_EQ(f.transport_.stats().unexpected_rts, 1u);

  f.transport_.post_recv(1, 0, 0, 1000, 0);
  f.engine_.run();
  EXPECT_TRUE(f.completed(0, 0));
  EXPECT_TRUE(f.completed(1, 0));
  EXPECT_EQ(f.transport_.stats().rendezvous_sends, 1u);
}

TEST(Transport, RendezvousTimingIncludesHandshake) {
  TransportFixture f(2, {}, fabric_with_eager_limit(0));
  f.transport_.post_recv(1, 0, 0, 1000, 0);
  f.post_send(0, 1, 0, 1000, 0);
  f.engine_.run();
  // RTS 1 us + CTS 1 us + data (1 us latency + 1 us transfer) = 4 us.
  EXPECT_EQ(f.completion_time(1, 0), SimTime{4000});
  EXPECT_EQ(f.transport_.rendezvous_transfer_time(0, 1, 1000),
            Duration{4000});
  // Sender completes when the payload is injected (before the latency).
  EXPECT_EQ(f.completion_time(0, 0), SimTime{3000});
}

TEST(Transport, TwoSidedPushSchedulesNoCompletionEvents) {
  // One pre-posted 100 kB rendezvous message between two Process-wired
  // ranks. Each rank posts, then computes 50 us, then waits. RTS lands at
  // 1 us and CTS at 2 us. The push then fixes both finish times: injection
  // end at 102 us for the sender, and arrival at 103 us for the receiver.
  sim::Engine engine;
  net::Topology topo(net::TopologySpec::one_rank_per_node(2));
  const net::FabricProfile fabric = fabric_with_eager_limit(0);
  Transport transport(engine, topo, fabric, {});
  Trace trace(2);
  Process sender(0, engine, transport, trace);
  Process receiver(1, engine, transport, trace);
  const std::vector<Process*> table{&sender, &receiver};
  transport.set_processes(table.data());

  constexpr std::int64_t kBytes = 100'000;
  Program send_prog;
  send_prog.isend(1, kBytes, 0).compute(microseconds(50.0), false).waitall();
  Program recv_prog;
  recv_prog.irecv(0, kBytes, 0).compute(microseconds(50.0), false).waitall();
  sender.set_program(&send_prog);
  receiver.set_program(&recv_prog);
  sender.start();
  receiver.start();

  // Through the CTS arrival: two starts, the RTS and the CTS. Both ranks
  // are still computing, so the push settles both requests without
  // scheduling anything. Only the two compute ends remain.
  engine.run_until(SimTime{2000});
  EXPECT_EQ(engine.events_processed(), 4u);
  EXPECT_EQ(engine.events_pending(), 2u);

  engine.run();
  EXPECT_TRUE(sender.done());
  EXPECT_TRUE(receiver.done());
  // Compute ends and one timed wake per blocked WaitAll.
  EXPECT_EQ(engine.events_processed(), 8u);
  ASSERT_EQ(trace.segments(0).size(), 2u);
  ASSERT_EQ(trace.segments(1).size(), 2u);
  const Segment& send_wait = trace.segments(0)[1];
  const Segment& recv_wait = trace.segments(1)[1];
  EXPECT_EQ(send_wait.kind, SegKind::wait);
  EXPECT_EQ(recv_wait.kind, SegKind::wait);
  EXPECT_EQ(send_wait.end, SimTime{102'000});
  EXPECT_EQ(recv_wait.end,
            SimTime::zero() + transport.rendezvous_transfer_time(0, 1, kBytes));
}

TEST(Transport, TwoSidedPushDeliversOnceAtSettleTimeWithoutProcesses) {
  // The CompletionFn twin: each request gets one delivery event, at the
  // same times the Process-wired path settles it.
  sim::Engine engine;
  net::Topology topo(net::TopologySpec::one_rank_per_node(2));
  const net::FabricProfile fabric = fabric_with_eager_limit(0);
  Transport transport(engine, topo, fabric, {});
  std::map<std::pair<int, RequestId>, std::vector<SimTime>> deliveries;
  transport.set_completion_handler([&](int rank, RequestId req) {
    deliveries[{rank, req}].push_back(engine.now());
  });

  constexpr std::int64_t kBytes = 100'000;
  transport.post_recv(1, 0, 0, kBytes, 0);
  EXPECT_FALSE(transport.post_send(0, 1, 0, kBytes, 0).has_value());
  engine.run_until(SimTime{2000});
  EXPECT_EQ(engine.events_processed(), 2u);  // RTS and CTS arrivals
  EXPECT_EQ(engine.events_pending(), 2u);    // one delivery per request

  engine.run();
  EXPECT_EQ(engine.events_processed(), 4u);
  const std::vector<SimTime> send_at{SimTime{102'000}};
  const std::vector<SimTime> recv_at{
      SimTime::zero() + transport.rendezvous_transfer_time(0, 1, kBytes)};
  EXPECT_EQ(deliveries.size(), 2u);
  EXPECT_EQ((deliveries[{0, 0}]), send_at);
  EXPECT_EQ((deliveries[{1, 0}]), recv_at);
}

/// Two Process-wired ranks on `fabric` (one per node, so every message
/// takes the NIC path) running the given programs to completion.
struct WiredPair {
  explicit WiredPair(const net::FabricProfile& fabric_profile)
      : topo(net::TopologySpec::one_rank_per_node(2)),
        fabric(fabric_profile),
        transport(engine, topo, fabric, {}),
        trace(2),
        rank0(0, engine, transport, trace),
        rank1(1, engine, transport, trace),
        table{&rank0, &rank1} {
    transport.set_processes(table.data());
  }

  void run(const Program& p0, const Program& p1) {
    rank0.set_program(&p0);
    rank1.set_program(&p1);
    rank0.start();
    rank1.start();
    engine.run();
    EXPECT_TRUE(rank0.done());
    EXPECT_TRUE(rank1.done());
  }

  sim::Engine engine;
  net::Topology topo;
  net::FabricProfile fabric;
  Transport transport;
  Trace trace;
  Process rank0;
  Process rank1;
  std::vector<Process*> table;
};

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
  WiredPair w(fabric);
  Program p0;
  p0.isend(1, 1000, 0).compute(microseconds(2.0), false).isend(1, 1000, 0);
  p0.waitall();
  Program p1;
  p1.compute(microseconds(1.0), false).irecv(0, 1000, 0).waitall();
  p1.irecv(0, 1000, 0).waitall();
  w.run(p0, p1);

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
  WiredPair late(fabric);
  Program q0;
  q0.isend(1, 1000, 0).compute(microseconds(20.0), false);
  q0.isend(1, 1000, 0).waitall();
  late.run(q0, p1);
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
  WiredPair w(net::FabricProfile::ideal(Duration::zero(), 1e9));
  Program p0;
  p0.compute(microseconds(1.0), false).isend(1, 0, 0).waitall();
  Program p1;
  p1.irecv(0, 0, 0).waitall().mark().compute(microseconds(1.0), false);
  w.run(p0, p1);

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

TEST(Transport, DeferredPushHoldsDataWhileHandshakeOutstanding) {
  TransportFixture f(3, {}, fabric_with_eager_limit(0));
  // Rank 0 sends to 1 (recv posted) and to 2 (no recv posted -> handshake
  // stuck). Under deferred_push the completed handshake to 1 must NOT push.
  f.transport_.post_recv(1, 0, 0, 1000, 0);
  f.post_send(0, 1, 0, 1000, 0);
  f.post_send(0, 2, 0, 1000, 1);
  f.engine_.run();
  EXPECT_FALSE(f.completed(1, 0));
  EXPECT_FALSE(f.completed(0, 0));
  EXPECT_GE(f.transport_.stats().deferred_pushes, 1u);

  // Unsticking the second handshake releases everything.
  f.transport_.post_recv(2, 0, 0, 1000, 0);
  f.engine_.run();
  EXPECT_TRUE(f.completed(1, 0));
  EXPECT_TRUE(f.completed(0, 0));
  EXPECT_TRUE(f.completed(2, 0));
  EXPECT_TRUE(f.completed(0, 1));
}

TEST(Transport, IndependentPushesImmediately) {
  TransportConfig opt;
  opt.rendezvous.pipelining = RendezvousPipelining::independent;
  TransportFixture f(3, opt, fabric_with_eager_limit(0));
  f.transport_.post_recv(1, 0, 0, 1000, 0);
  f.post_send(0, 1, 0, 1000, 0);
  f.post_send(0, 2, 0, 1000, 1);  // stuck, but must not block 0->1
  f.engine_.run();
  EXPECT_TRUE(f.completed(1, 0));
  EXPECT_TRUE(f.completed(0, 0));
  EXPECT_EQ(f.transport_.stats().deferred_pushes, 0u);
}

TEST(Transport, UnexpectedRtsMatchInArrivalOrder) {
  TransportConfig opt;
  opt.rendezvous.pipelining = RendezvousPipelining::independent;
  TransportFixture f(2, opt, fabric_with_eager_limit(0));
  // Two same-(src, tag) RTS queue as unexpected; later receives must pair
  // with them FIFO, so recv 0 gets send 0 and recv 1 gets send 1.
  f.post_send(0, 1, 7, 1000, 0);
  f.post_send(0, 1, 7, 1000, 1);
  f.engine_.run();
  EXPECT_EQ(f.transport_.stats().unexpected_rts, 2u);

  f.transport_.post_recv(1, 0, 7, 1000, 0);
  f.engine_.run();
  // Only the first handshake is released by the first receive.
  EXPECT_TRUE(f.completed(0, 0));
  EXPECT_TRUE(f.completed(1, 0));
  EXPECT_FALSE(f.completed(0, 1));

  f.transport_.post_recv(1, 0, 7, 1000, 1);
  f.engine_.run();
  EXPECT_TRUE(f.completed(0, 1));
  EXPECT_TRUE(f.completed(1, 1));
  EXPECT_LE(f.completion_time(1, 0), f.completion_time(1, 1));
}

TEST(Transport, DeferredPushCounterCountsEveryHeldPush) {
  TransportFixture f(4, {}, fabric_with_eager_limit(0));
  // Rank 0 opens three handshakes; receivers 1 and 2 answer immediately,
  // receiver 3 stays silent. Both completed handshakes must be held (two
  // deferred pushes) until the third CTS clears the last handshake.
  f.transport_.post_recv(1, 0, 0, 1000, 0);
  f.transport_.post_recv(2, 0, 0, 1000, 0);
  f.post_send(0, 1, 0, 1000, 0);
  f.post_send(0, 2, 0, 1000, 1);
  f.post_send(0, 3, 0, 1000, 2);
  f.engine_.run();
  EXPECT_EQ(f.transport_.stats().deferred_pushes, 2u);
  EXPECT_FALSE(f.completed(1, 0));
  EXPECT_FALSE(f.completed(2, 0));

  f.transport_.post_recv(3, 0, 0, 1000, 0);
  f.engine_.run();
  EXPECT_TRUE(f.completed(1, 0));
  EXPECT_TRUE(f.completed(2, 0));
  EXPECT_TRUE(f.completed(3, 0));
  // Held pushes flush in CTS-arrival order, before the releasing push.
  EXPECT_LE(f.completion_time(1, 0), f.completion_time(2, 0));
  EXPECT_LE(f.completion_time(2, 0), f.completion_time(3, 0));
  EXPECT_EQ(f.transport_.stats().deferred_pushes, 2u);
}

TEST(Transport, MidRunStopLeavesInFlightRendezvousRecoverable) {
  TransportFixture f(2, {}, fabric_with_eager_limit(0));
  f.transport_.post_recv(1, 0, 0, 1000, 0);
  f.post_send(0, 1, 0, 1000, 0);
  // Stop the engine mid-handshake: the RTS (1 us flight) has not landed.
  f.engine_.run_until(SimTime{500});
  EXPECT_EQ(f.transport_.pool_stats().rdv_in_flight, 1u);
  EXPECT_FALSE(f.completed(0, 0));

  // Resuming drains the handshake; the record returns to the free list.
  f.engine_.run();
  EXPECT_TRUE(f.completed(0, 0));
  EXPECT_TRUE(f.completed(1, 0));
  EXPECT_EQ(f.transport_.pool_stats().rdv_in_flight, 0u);
}

TEST(Transport, SteadyStateMessagePathAllocatesNothing) {
  // Small sends eager, large rendezvous.
  TransportFixture f(4, {}, fabric_with_eager_limit(4096));

  // One mixed round: pre-posted eager, unexpected eager, and a rendezvous
  // exchange — every protocol path the steady state exercises.
  const auto round = [&f](int reps) {
    for (int r = 0; r < reps; ++r) {
      f.transport_.post_recv(1, 0, 0, 1000, r * 8 + 0);    // pre-posted eager
      f.post_send(0, 1, 0, 1000, r * 8 + 1);
      f.post_send(2, 3, 0, 1000, r * 8 + 2);    // unexpected eager
      f.engine_.run();
      f.transport_.post_recv(3, 2, 0, 1000, r * 8 + 3);
      f.post_send(1, 0, 0, 100'000, r * 8 + 4);  // rendezvous
      f.transport_.post_recv(0, 1, 0, 100'000, r * 8 + 5);
      f.engine_.run();
    }
  };

  round(16);  // warm every pool
  const Transport::PoolStats warm = f.transport_.pool_stats();
  round(64);  // steady state: pools must not grow again
  const Transport::PoolStats after = f.transport_.pool_stats();
  EXPECT_EQ(after.allocations, warm.allocations);
  EXPECT_EQ(after.rdv_in_flight, 0u);
  EXPECT_GT(f.transport_.stats().eager_sends, 100u);
  EXPECT_GT(f.transport_.stats().rendezvous_sends, 60u);
}

TEST(Transport, NicGapSerializesInjections) {
  net::FabricProfile fabric = net::FabricProfile::ideal(microseconds(1.0), 1e9);
  for (auto& p : fabric.link) p.gap = microseconds(5.0);
  TransportFixture f(3, {}, fabric);
  f.transport_.post_recv(1, 0, 0, 0, 0);
  f.transport_.post_recv(2, 0, 0, 0, 0);
  f.post_send(0, 1, 0, 0, 0);
  f.post_send(0, 2, 0, 0, 1);
  f.engine_.run();
  // First message: gap 5 + latency 1 = 6 us. Second queues behind on the
  // sender NIC: 10 + 1 = 11 us.
  EXPECT_EQ(f.completion_time(1, 0), SimTime{6000});
  EXPECT_EQ(f.completion_time(2, 0), SimTime{11000});
}

TEST(Transport, SelfSendRejected) {
  TransportFixture f(2);
  EXPECT_THROW((void)f.post_send(0, 0, 0, 10, 0),
               std::invalid_argument);
  EXPECT_THROW((void)f.transport_.post_recv(1, 1, 0, 10, 0),
               std::invalid_argument);
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
  sim::Engine engine;
  net::Topology topo(net::TopologySpec::packed(4, 2));  // 2 ranks/socket
  net::FabricProfile fabric = net::FabricProfile::ideal(microseconds(1.0), 1e12);
  Transport tr(engine, topo, fabric, {});
  memory::BandwidthDomain domain(engine, 10e9, 10e9);
  tr.set_memory_domains({&domain, &domain, &domain, &domain});
  SimTime recv_done;
  tr.set_completion_handler([&](int rank, RequestId req) {
    if (rank == 1 && req == 0) recv_done = engine.now();
  });
  tr.post_recv(1, 0, 0, 10'000'000, 0);
  tr.post_send(0, 1, 0, 10'000'000, 0);
  engine.run();
  // 10 MB goes rendezvous: RTS (1 us) + CTS (1 us), then two sequential
  // 1 ms copies + 1 us payload latency.
  EXPECT_EQ(recv_done, SimTime::zero() + milliseconds(2.0) + microseconds(3.0));
}

TEST(Transport, InterNodePayloadKeepsNicPath) {
  // Memory domains must not affect cross-node traffic.
  sim::Engine engine;
  net::Topology topo(net::TopologySpec::one_rank_per_node(2));
  net::FabricProfile fabric = net::FabricProfile::ideal(microseconds(1.0), 1e9);
  Transport tr(engine, topo, fabric, {});
  memory::BandwidthDomain domain(engine, 10e9, 10e9);
  tr.set_memory_domains({&domain, &domain});
  SimTime recv_done;
  tr.set_completion_handler([&](int rank, RequestId req) {
    if (rank == 1 && req == 0) recv_done = engine.now();
  });
  tr.post_recv(1, 0, 0, 1000, 0);
  tr.post_send(0, 1, 0, 1000, 0);
  engine.run();
  EXPECT_EQ(recv_done, SimTime{2000});  // 1 us latency + 1 us transfer
  EXPECT_EQ(domain.active_jobs(), 0);
}

TEST(Transport, MemoryPathCopiesContendWithComputeJobs) {
  // A message copy sharing the domain with a compute job slows both:
  // processor sharing at 5 GB/s each.
  sim::Engine engine;
  net::Topology topo(net::TopologySpec::packed(4, 2));
  net::FabricProfile fabric = net::FabricProfile::ideal(microseconds(0.0), 1e12);
  Transport tr(engine, topo, fabric, {});
  memory::BandwidthDomain domain(engine, 10e9, 10e9);
  tr.set_memory_domains({&domain, &domain, &domain, &domain});
  SimTime compute_done, recv_done;
  tr.set_completion_handler([&](int rank, RequestId req) {
    if (rank == 1 && req == 0) recv_done = engine.now();
  });
  domain.submit(10'000'000, [&] { compute_done = engine.now(); });
  tr.post_recv(1, 0, 0, 10'000'000, 0);
  tr.post_send(0, 1, 0, 10'000'000, 0);
  engine.run();
  // Copy 1 and the compute job share: both 10 MB at 5 GB/s -> done at 2 ms.
  EXPECT_EQ(compute_done, SimTime::zero() + milliseconds(2.0));
  // Copy 2 then runs alone: 1 ms more.
  EXPECT_EQ(recv_done, SimTime::zero() + milliseconds(3.0));
}

// The transport's structural audit (a no-op in plain Release) must hold at
// every phase boundary the rendezvous slab and queue pools pass through:
// warm steady state, a mid-run stop with a record in flight, the
// reconfigure() recycle, and the drained end state. The pool-accounting
// reconciliation (pool_stats().rdv_in_flight == live shadow slots) is part
// of audit() itself, so this doubles as the pool-balance regression test.
TEST(Transport, AuditHoldsAcrossProtocolPhasesAndReconfigure) {
  TransportFixture f(4, {}, fabric_with_eager_limit(4096));
  f.transport_.audit();  // pristine

  for (int r = 0; r < 8; ++r) {
    f.transport_.post_recv(1, 0, 0, 1000, r * 8 + 0);
    f.post_send(0, 1, 0, 1000, r * 8 + 1);
    f.post_send(2, 3, 0, 1000, r * 8 + 2);  // unexpected eager
    f.post_send(1, 0, 0, 100'000, r * 8 + 3);  // rendezvous, recv later
    f.engine_.run_until(f.engine_.now() + microseconds(0.5));
    f.transport_.audit();  // mid-handshake: in-flight records stay balanced
    f.transport_.post_recv(3, 2, 0, 1000, r * 8 + 4);
    f.transport_.post_recv(0, 1, 0, 100'000, r * 8 + 5);
    f.engine_.run();
    f.transport_.audit();  // drained: rdv_in_flight reconciles to zero
    EXPECT_EQ(f.transport_.pool_stats().rdv_in_flight, 0u);
  }

  // Stop with a rendezvous handshake genuinely outstanding, then recycle
  // the transport for a new sweep point: reconfigure() audits on entry and
  // must reclaim the in-flight record (post-condition rdv_in_flight == 0).
  f.transport_.post_recv(1, 0, 0, 100'000, 900);
  f.post_send(0, 1, 0, 100'000, 901);
  f.engine_.run_until(f.engine_.now() + microseconds(0.5));
  EXPECT_EQ(f.transport_.pool_stats().rdv_in_flight, 1u);
  f.engine_.reset();
  f.transport_.reconfigure(f.fabric_, TransportConfig{});
  f.transport_.audit();
  EXPECT_EQ(f.transport_.pool_stats().rdv_in_flight, 0u);

  // The recycled transport is fully serviceable (reconfigure() drops the
  // completion wiring by design — each sweep point re-wires it).
  f.transport_.set_completion_handler([&f](int rank, RequestId req) {
    f.completions_[{rank, req}] = f.engine_.now();
  });
  f.transport_.post_recv(1, 0, 0, 100'000, 902);
  f.post_send(0, 1, 0, 100'000, 903);
  f.engine_.run();
  f.transport_.audit();
  EXPECT_TRUE(f.completed(1, 902));
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
  EXPECT_THROW(TransportFixture f(2, bad), std::invalid_argument);
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
  net::FabricProfile fabric = net::FabricProfile::ideal(microseconds(1.0), 1e9);
  for (auto& p : fabric.link) p.gap = microseconds(5.0);
  TransportFixture f(3, TransportConfig::finite_nic(1), fabric);
  f.transport_.post_recv(1, 0, 0, 0, 0);
  f.transport_.post_recv(2, 0, 0, 0, 0);
  f.transport_.post_recv(1, 0, 0, 0, 1);
  f.transport_.post_recv(2, 0, 0, 0, 1);

  // Depth-1 NIC: the first post injects, the rest queue on the backlog.
  f.post_send(0, 1, 0, 0, 10);
  f.post_send(0, 2, 0, 0, 11);
  f.post_send(0, 1, 0, 0, 12);
  f.post_send(0, 2, 0, 0, 13);
  EXPECT_EQ(f.transport_.stats().nic_backlogged, 3u);
  EXPECT_EQ(f.transport_.pool_stats().nic_backlog_depth, 3u);

  // Interleave: while drains are still re-posting the backlog, a new send
  // arrives. FIFO means it goes strictly behind the queued ones, even
  // though the budget briefly frees right before it is posted.
  f.engine_.run_until(SimTime{7000});
  f.transport_.post_recv(1, 0, 0, 0, 2);
  f.post_send(0, 1, 0, 0, 14);
  f.engine_.run();

  // gap 5 us + latency 1 us each, serialized: arrivals at 6, 11, 16, 21,
  // 26 us in exact posting order across both destinations.
  EXPECT_EQ(f.completion_time(1, 0), SimTime{6000});
  EXPECT_EQ(f.completion_time(2, 0), SimTime{11000});
  EXPECT_EQ(f.completion_time(1, 1), SimTime{16000});
  EXPECT_EQ(f.completion_time(2, 1), SimTime{21000});
  EXPECT_EQ(f.completion_time(1, 2), SimTime{26000});
  EXPECT_EQ(f.transport_.pool_stats().nic_backlog_depth, 0u);
  EXPECT_EQ(f.transport_.pool_stats().nic_inflight, 0u);
}

TEST(Transport, NicBacklogDefersEagerLocalCompletion) {
  net::FabricProfile fabric = net::FabricProfile::ideal(microseconds(1.0), 1e9);
  for (auto& p : fabric.link) p.gap = microseconds(5.0);
  TransportFixture f(2, TransportConfig::finite_nic(1), fabric);
  f.transport_.post_recv(1, 0, 0, 0, 0);
  f.transport_.post_recv(1, 0, 0, 0, 1);

  // The first eager send completes locally at post time (the ideal-NIC
  // behaviour); the second is backlogged and must complete only when it
  // reaches the NIC at t = 5 us — the sender is coupled to NIC drain.
  f.post_send(0, 1, 0, 0, 10);
  f.post_send(0, 1, 0, 0, 11);
  f.engine_.run();
  EXPECT_EQ(f.completion_time(0, 10), SimTime::zero());
  EXPECT_EQ(f.completion_time(0, 11), SimTime{5000});
}

TEST(Transport, NicBudgetAppliesToRtsButProtocolStillProgresses) {
  TransportConfig opt = TransportConfig::finite_nic(1);
  net::FabricProfile fabric = net::FabricProfile::ideal(microseconds(1.0), 1e9);
  fabric.eager_limit_bytes = 0;  // every send is rendezvous
  for (auto& p : fabric.link) p.gap = microseconds(5.0);
  TransportFixture f(3, opt, fabric);
  f.transport_.post_recv(1, 0, 0, 1000, 0);
  f.transport_.post_recv(2, 0, 0, 1000, 0);
  f.post_send(0, 1, 0, 1000, 0);
  f.post_send(0, 2, 0, 1000, 1);  // RTS backlogged behind the first
  EXPECT_EQ(f.transport_.stats().nic_backlogged, 1u);
  f.engine_.run();
  // CTS and pushes are budget-exempt responses, so both handshakes finish.
  EXPECT_TRUE(f.completed(1, 0));
  EXPECT_TRUE(f.completed(2, 0));
  EXPECT_TRUE(f.completed(0, 0));
  EXPECT_TRUE(f.completed(0, 1));
  EXPECT_EQ(f.transport_.pool_stats().rdv_in_flight, 0u);
}

// ---- Credit-based eager flow control --------------------------------------

TEST(Transport, CreditExhaustionMidBurstLosesNoMessages) {
  TransportFixture f(2, TransportConfig::credit_limited(2));
  // Burst of four eager-sized sends with no receiver: the first two take
  // the window's credits, the rest demote to rendezvous — nothing is
  // dropped, the demoted sends just wait for the receiver like any
  // rendezvous message.
  for (int i = 0; i < 4; ++i) f.post_send(0, 1, 0, 1000, 10 + i);
  f.engine_.run();
  EXPECT_EQ(f.transport_.stats().eager_sends, 2u);
  EXPECT_EQ(f.transport_.stats().credit_stalls, 2u);
  EXPECT_EQ(f.transport_.stats().rendezvous_sends, 2u);
  EXPECT_EQ(f.transport_.protocol_for(0, 1, 1000), WireProtocol::rendezvous);
  EXPECT_TRUE(f.completed(0, 10));   // eager: completed locally
  EXPECT_FALSE(f.completed(0, 12));  // demoted: waiting for the receiver

  // Receiver drains the burst: every message arrives exactly once and the
  // returned credits restore the eager protocol.
  for (int i = 0; i < 4; ++i) f.transport_.post_recv(1, 0, 0, 1000, 20 + i);
  f.engine_.run();
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(f.completed(1, 20 + i)) << "receive " << i << " lost";
    EXPECT_TRUE(f.completed(0, 10 + i)) << "send " << i << " lost";
  }
  EXPECT_EQ(f.transport_.protocol_for(0, 1, 1000), WireProtocol::eager);
}

TEST(Transport, CreditsReturnOnReceiverDrainNotArrival) {
  TransportFixture f(2, TransportConfig::credit_limited(1));
  f.post_send(0, 1, 0, 1000, 0);
  f.engine_.run();  // payload has ARRIVED (unexpected) but is not drained
  EXPECT_EQ(f.transport_.protocol_for(0, 1, 1000), WireProtocol::rendezvous);
  f.transport_.post_recv(1, 0, 0, 1000, 0);
  f.engine_.run();
  EXPECT_EQ(f.transport_.protocol_for(0, 1, 1000), WireProtocol::eager);
}

TEST(Transport, CreditWindowsArePerEndpointPair) {
  TransportFixture f(3, TransportConfig::credit_limited(1));
  f.post_send(0, 1, 0, 1000, 0);
  EXPECT_EQ(f.transport_.protocol_for(0, 1, 1000), WireProtocol::rendezvous);
  // An unrelated pair keeps its own window.
  EXPECT_EQ(f.transport_.protocol_for(0, 2, 1000), WireProtocol::eager);
  EXPECT_EQ(f.transport_.protocol_for(2, 1, 1000), WireProtocol::eager);
}

// ---- RDMA put/get rendezvous flavors --------------------------------------

TEST(Transport, RdmaPutFinCompletesReceiverAfterPayload) {
  TransportConfig opt;
  opt.rendezvous.flavor = RendezvousFlavor::rdma_put;
  net::FabricProfile fabric = net::FabricProfile::ideal(microseconds(1.0), 1e9);
  fabric.eager_limit_bytes = 0;
  for (auto& p : fabric.link) p.gap = microseconds(2.0);
  TransportFixture f(2, opt, fabric);
  f.transport_.post_recv(1, 0, 0, 1000, 0);
  f.post_send(0, 1, 0, 1000, 0);
  f.engine_.run();
  // RTS (gap 2 + lat 1 = 3) -> RTR (3 more) -> put injection (gap 2 +
  // 1000 B = 3): the sender is done at hand-off, t = 9 us. The receiver
  // completes at the FIN's arrival (2 + 1 more), t = 12 us — strictly
  // after the payload landed at t = 10. A WaitAll that saw the payload
  // arrive must still block until the FIN races in.
  EXPECT_EQ(f.completion_time(0, 0), SimTime{9000});
  EXPECT_EQ(f.completion_time(1, 0), SimTime{12000});
  EXPECT_EQ(f.transport_.rendezvous_transfer_time(0, 1, 1000),
            Duration{12000});
  EXPECT_EQ(f.transport_.stats().rdma_puts, 1u);
}

TEST(Transport, RdmaGetReceiverCompletesAtArrival) {
  TransportConfig opt;
  opt.rendezvous.flavor = RendezvousFlavor::rdma_get;
  TransportFixture f(2, opt, fabric_with_eager_limit(0));
  f.transport_.post_recv(1, 0, 0, 1000, 0);
  f.post_send(0, 1, 0, 1000, 0);
  f.engine_.run();
  // RTS 1 us + GET request 1 us + payload (1 us latency + 1 us transfer):
  // the receiver completes at arrival, t = 4 us, with no CPU overhead; the
  // trailing FIN retires the sender at t = 5 us, off the critical path.
  EXPECT_EQ(f.completion_time(1, 0), SimTime{4000});
  EXPECT_EQ(f.completion_time(0, 0), SimTime{5000});
  EXPECT_EQ(f.transport_.rendezvous_transfer_time(0, 1, 1000),
            Duration{4000});
  EXPECT_EQ(f.transport_.stats().rdma_gets, 1u);
}

TEST(Transport, OneSidedFlavorsIgnoreDeferredPush) {
  // Under two_sided/deferred_push a second outstanding handshake holds the
  // first push (DeferredPushHoldsDataWhileHandshakeOutstanding). One-sided
  // puts are executed by the NIC and must NOT be held.
  TransportConfig opt;
  opt.rendezvous.flavor = RendezvousFlavor::rdma_put;
  TransportFixture f(3, opt, fabric_with_eager_limit(0));
  f.transport_.post_recv(1, 0, 0, 1000, 0);
  f.post_send(0, 1, 0, 1000, 0);
  f.post_send(0, 2, 0, 1000, 1);  // stuck handshake, no receiver
  f.engine_.run();
  EXPECT_TRUE(f.completed(1, 0));
  EXPECT_TRUE(f.completed(0, 0));
  EXPECT_EQ(f.transport_.stats().deferred_pushes, 0u);
}

TEST(Transport, RdmaPutUnexpectedRtsMatchesOnLateRecv) {
  TransportConfig opt;
  opt.rendezvous.flavor = RendezvousFlavor::rdma_put;
  TransportFixture f(2, opt, fabric_with_eager_limit(0));
  f.post_send(0, 1, 0, 1000, 0);
  f.engine_.run();
  EXPECT_EQ(f.transport_.stats().unexpected_rts, 1u);
  EXPECT_FALSE(f.completed(0, 0));
  f.transport_.post_recv(1, 0, 0, 1000, 0);
  f.engine_.run();
  EXPECT_TRUE(f.completed(0, 0));
  EXPECT_TRUE(f.completed(1, 0));
  EXPECT_EQ(f.transport_.pool_stats().rdv_in_flight, 0u);
}

// ---- Combined-feature steady state ----------------------------------------

TEST(Transport, SteadyStateWithFiniteNicAndCreditsAllocatesNothing) {
  TransportConfig opt;
  opt.nic.injection_depth = 2;
  opt.eager.credit_window = 2;
  TransportFixture f(4, opt, fabric_with_eager_limit(4096));

  const auto round = [&f](int reps) {
    for (int r = 0; r < reps; ++r) {
      // Burst deep enough to exercise the backlog AND the credit fallback.
      for (int i = 0; i < 4; ++i) f.post_send(0, 1, 0, 1000, r * 32 + i);
      for (int i = 0; i < 4; ++i)
        f.transport_.post_recv(1, 0, 0, 1000, r * 32 + 8 + i);
      f.post_send(2, 3, 0, 100'000, r * 32 + 16);  // rendezvous
      f.transport_.post_recv(3, 2, 0, 100'000, r * 32 + 17);
      f.engine_.run();
      f.transport_.audit();
    }
  };

  round(16);  // warm every pool, including backlog and credit tables
  const Transport::PoolStats warm = f.transport_.pool_stats();
  round(64);
  const Transport::PoolStats after = f.transport_.pool_stats();
  EXPECT_EQ(after.allocations, warm.allocations);
  EXPECT_EQ(after.rdv_in_flight, 0u);
  EXPECT_EQ(after.nic_backlog_depth, 0u);
  EXPECT_EQ(after.nic_inflight, 0u);
  EXPECT_GT(f.transport_.stats().nic_backlogged, 0u);
  EXPECT_GT(f.transport_.stats().credit_stalls, 0u);

  // Recycling across a sweep point keeps the pools (audit on entry).
  f.engine_.reset();
  f.transport_.reconfigure(f.fabric_, opt);
  EXPECT_EQ(f.transport_.pool_stats().allocations, after.allocations);
}

}  // namespace
}  // namespace iw::mpi
