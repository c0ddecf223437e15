// Tests for the ring workload builder: neighbor sets, boundaries, programs.
#include <gtest/gtest.h>

#include "workload/ring.hpp"

namespace iw::workload {
namespace {

RingSpec base_spec() {
  RingSpec s;
  s.ranks = 10;
  s.steps = 3;
  s.msg_bytes = 4096;
  return s;
}

TEST(RingNeighbors, UnidirectionalOpenInterior) {
  RingSpec s = base_spec();
  EXPECT_EQ(send_peers(s, 4), (std::vector<int>{5}));
  EXPECT_EQ(recv_peers(s, 4), (std::vector<int>{3}));
}

TEST(RingNeighbors, UnidirectionalOpenEdges) {
  RingSpec s = base_spec();
  EXPECT_EQ(send_peers(s, 9), (std::vector<int>{}));  // no upper neighbor
  EXPECT_EQ(recv_peers(s, 0), (std::vector<int>{}));  // no lower neighbor
  EXPECT_EQ(send_peers(s, 0), (std::vector<int>{1}));
  EXPECT_EQ(recv_peers(s, 9), (std::vector<int>{8}));
}

TEST(RingNeighbors, UnidirectionalPeriodicWraps) {
  RingSpec s = base_spec();
  s.boundary = Boundary::periodic;
  EXPECT_EQ(send_peers(s, 9), (std::vector<int>{0}));
  EXPECT_EQ(recv_peers(s, 0), (std::vector<int>{9}));
}

TEST(RingNeighbors, BidirectionalBothSides) {
  RingSpec s = base_spec();
  s.direction = Direction::bidirectional;
  EXPECT_EQ(send_peers(s, 4), (std::vector<int>{5, 3}));
  EXPECT_EQ(recv_peers(s, 4), (std::vector<int>{3, 5}));
}

TEST(RingNeighbors, DistanceTwo) {
  RingSpec s = base_spec();
  s.distance = 2;
  EXPECT_EQ(send_peers(s, 4), (std::vector<int>{5, 6}));
  EXPECT_EQ(recv_peers(s, 4), (std::vector<int>{3, 2}));
  s.direction = Direction::bidirectional;
  EXPECT_EQ(send_peers(s, 4), (std::vector<int>{5, 3, 6, 2}));
}

TEST(RingNeighbors, DistanceTwoOpenEdgeClipping) {
  RingSpec s = base_spec();
  s.distance = 2;
  EXPECT_EQ(send_peers(s, 8), (std::vector<int>{9}));  // 10 clipped
  EXPECT_EQ(recv_peers(s, 1), (std::vector<int>{0}));  // -1 clipped
}

TEST(RingPrograms, OneProgramPerRankWithRightShape) {
  RingSpec s = base_spec();
  const auto programs = build_ring(s);
  ASSERT_EQ(programs.size(), 10u);
  // Interior rank: step body mark + compute + 1 send + 1 recv + waitall,
  // repeated once per step.
  EXPECT_EQ(programs[4].body().size(), 5u);
  EXPECT_EQ(programs[4].repeats(), 3);
  EXPECT_TRUE(std::holds_alternative<mpi::OpWaitAll>(programs[4].body()[4]));
  EXPECT_EQ(programs[4].step_marks(), 3u);
  // Edge rank 9 has no send.
  EXPECT_EQ(programs[9].body().size(), 4u);
}

TEST(RingPrograms, BodyPostsToThePeersWithStepZeroTags) {
  RingSpec s = base_spec();
  s.direction = Direction::bidirectional;
  const auto programs = build_ring(s);
  std::vector<int> sends, recvs;
  for (const auto& op : programs[4].body()) {
    if (const auto* send = std::get_if<mpi::OpIsend>(&op)) {
      sends.push_back(send->peer);
      EXPECT_EQ(send->tag, 0);  // iteration i adds i: tag == step
      EXPECT_EQ(send->bytes, s.msg_bytes);
    }
    if (const auto* recv = std::get_if<mpi::OpIrecv>(&op)) {
      recvs.push_back(recv->peer);
      EXPECT_EQ(recv->tag, 0);
    }
  }
  EXPECT_EQ(sends, send_peers(s, 4));
  EXPECT_EQ(recvs, recv_peers(s, 4));
}

TEST(RingPrograms, DelayInjectedAfterComputeOfThatStep) {
  RingSpec s = base_spec();
  const std::vector<DelaySpec> delays{{4, 1, milliseconds(10.0)}};
  const auto programs = build_ring(s, delays);
  EXPECT_TRUE(programs[3].injections().empty());
  // The injection point must sit between the compute and the sends, and
  // only step 1 uses it.
  const auto& body = programs[4].body();
  bool found = false;
  for (std::size_t i = 1; i + 1 < body.size(); ++i) {
    if (const auto* inject = std::get_if<mpi::OpInject>(&body[i])) {
      EXPECT_TRUE(inject->point);
      EXPECT_TRUE(std::holds_alternative<mpi::OpCompute>(body[i - 1]));
      EXPECT_TRUE(std::holds_alternative<mpi::OpIsend>(body[i + 1]));
      found = true;
    }
  }
  EXPECT_TRUE(found);
  ASSERT_EQ(programs[4].injections().size(), 1u);
  EXPECT_EQ(programs[4].injections()[0].iteration, 1);
  EXPECT_EQ(programs[4].injections()[0].duration, milliseconds(10.0));
  // An undelayed rank's body has no injection point at all.
  for (const auto& op : programs[3].body())
    EXPECT_FALSE(std::holds_alternative<mpi::OpInject>(op));
}

TEST(RingPrograms, MultipleDelaysOnSameRankStepAccumulate) {
  RingSpec s = base_spec();
  const std::vector<DelaySpec> delays{{4, 1, milliseconds(2.0)},
                                      {4, 1, milliseconds(3.0)}};
  const auto programs = build_ring(s, delays);
  ASSERT_EQ(programs[4].injections().size(), 1u);
  EXPECT_EQ(programs[4].injections()[0].duration, milliseconds(5.0));
  EXPECT_EQ(programs[4].segment_bound(), 3u * 2u + 1u);
}

TEST(RingPrograms, UnsortedDelaysLandInStepOrder) {
  RingSpec s = base_spec();
  const std::vector<DelaySpec> delays{{4, 2, milliseconds(2.0)},
                                      {6, 0, milliseconds(1.0)},
                                      {4, 0, milliseconds(3.0)}};
  const auto programs = build_ring(s, delays);
  const auto listed = programs[4].injections();
  ASSERT_EQ(listed.size(), 2u);
  EXPECT_EQ(listed[0].iteration, 0);
  EXPECT_EQ(listed[0].duration, milliseconds(3.0));
  EXPECT_EQ(listed[1].iteration, 2);
  EXPECT_EQ(programs[6].injections().size(), 1u);
  // The single-rank builder emits the same program.
  const auto rank4 = build_ring_rank(s, 4, delays);
  ASSERT_EQ(rank4.injections().size(), 2u);
  EXPECT_EQ(rank4.injections()[1].duration, milliseconds(2.0));
  EXPECT_EQ(rank4.body().size(), programs[4].body().size());
}

TEST(RingPrograms, ValidationRejectsBadSpecs) {
  RingSpec s = base_spec();
  s.ranks = 1;
  EXPECT_THROW(build_ring(s), std::invalid_argument);

  s = base_spec();
  s.distance = 10;
  EXPECT_THROW(build_ring(s), std::invalid_argument);

  s = base_spec();
  s.boundary = Boundary::periodic;
  s.distance = 5;  // 2*5 >= 10
  EXPECT_THROW(build_ring(s), std::invalid_argument);

  s = base_spec();
  const std::vector<DelaySpec> bad{{99, 0, milliseconds(1.0)}};
  EXPECT_THROW(build_ring(s, bad), std::invalid_argument);
  const std::vector<DelaySpec> late{{4, 3, milliseconds(1.0)}};
  EXPECT_THROW(build_ring(s, late), std::invalid_argument);
  EXPECT_THROW(build_ring_rank(s, 2, late), std::invalid_argument);
}

TEST(RingPrograms, NoisyFlagPropagates) {
  RingSpec s = base_spec();
  s.noisy = false;
  const auto programs = build_ring(s);
  for (const auto& op : programs[0].body()) {
    if (const auto* comp = std::get_if<mpi::OpCompute>(&op)) {
      EXPECT_FALSE(comp->noisy);
    }
  }
}

TEST(RingEnums, Names) {
  EXPECT_STREQ(to_string(Direction::unidirectional), "unidirectional");
  EXPECT_STREQ(to_string(Boundary::periodic), "periodic");
}

}  // namespace
}  // namespace iw::workload
