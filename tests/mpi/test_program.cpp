// Tests for the rank-program builder: the body, its repeat count, the
// injection list, and the counters the Cluster sizes the trace from.
#include <gtest/gtest.h>

#include <algorithm>

#include "mpi/program.hpp"

namespace iw::mpi {
namespace {

TEST(Program, BuilderAppendsInOrder) {
  Program p;
  p.mark().compute(milliseconds(3.0)).isend(1, 8192, 0).irecv(2, 8192, 0)
      .waitall();
  ASSERT_EQ(p.body().size(), 5u);
  EXPECT_TRUE(std::holds_alternative<OpMark>(p.body()[0]));
  EXPECT_TRUE(std::holds_alternative<OpCompute>(p.body()[1]));
  EXPECT_TRUE(std::holds_alternative<OpIsend>(p.body()[2]));
  EXPECT_TRUE(std::holds_alternative<OpIrecv>(p.body()[3]));
  EXPECT_TRUE(std::holds_alternative<OpWaitAll>(p.body()[4]));
  EXPECT_EQ(p.repeats(), 1);
}

TEST(Program, FixedInjectionsKeepTheirDurations) {
  Program p;
  p.inject(milliseconds(2.0)).compute(milliseconds(1.0))
      .inject(milliseconds(3.5));
  ASSERT_EQ(p.body().size(), 3u);
  const auto& first = std::get<OpInject>(p.body()[0]);
  const auto& second = std::get<OpInject>(p.body()[2]);
  EXPECT_EQ(first.duration, milliseconds(2.0));
  EXPECT_EQ(second.duration, milliseconds(3.5));
  EXPECT_FALSE(first.point || second.point);
  EXPECT_TRUE(p.injections().empty());
  EXPECT_EQ(p.segment_bound(), 3u);
}

TEST(Program, EveryWaitallCountsOneSegment) {
  Program p;
  for (int i = 0; i < 7; ++i)
    p.compute(milliseconds(1.0)).isend(0, 1, i).waitall();
  EXPECT_EQ(std::count_if(p.body().begin(), p.body().end(),
                          [](const Op& op) {
                            return std::holds_alternative<OpWaitAll>(op);
                          }),
            7);
  EXPECT_EQ(p.segment_bound(), 7u * 2u);  // compute + wait per round
}

TEST(Program, EmptyProgram) {
  const Program p;
  EXPECT_TRUE(p.body().empty());
  EXPECT_EQ(p.repeats(), 1);
  EXPECT_EQ(p.step_marks(), 0u);
  EXPECT_EQ(p.segment_bound(), 0u);
  EXPECT_TRUE(p.injections().empty());
}

TEST(Program, OpFieldsPreserved) {
  Program p;
  p.isend(3, 16384, 5);
  const auto& send = std::get<OpIsend>(p.body()[0]);
  EXPECT_EQ(send.peer, 3);
  EXPECT_EQ(send.bytes, 16384);
  EXPECT_EQ(send.tag, 5);
}

TEST(Program, MemWorkStoresBytes) {
  Program p;
  p.mem_work(1'000'000, false);
  const auto& work = std::get<OpMemWork>(p.body()[0]);
  EXPECT_EQ(work.bytes, 1'000'000);
  EXPECT_FALSE(work.noisy);
}

TEST(Program, RejectsInvalidArguments) {
  Program p;
  EXPECT_THROW(p.compute(Duration{-1}), std::invalid_argument);
  EXPECT_THROW(p.inject(Duration{-1}), std::invalid_argument);
  EXPECT_THROW(p.isend(-1, 10, 0), std::invalid_argument);
  EXPECT_THROW(p.irecv(0, -10, 0), std::invalid_argument);
  EXPECT_THROW(p.mem_work(-1), std::invalid_argument);
}

TEST(Program, RepeatedBodyCounters) {
  Program p;
  p.mark().compute(milliseconds(1.0)).inject_point()
      .isend(1, 64, 0).irecv(1, 64, 0).waitall()
      .inject(milliseconds(0.5))
      .repeat(4)
      .inject_at(0, milliseconds(2.0))
      .inject_at(3, milliseconds(3.0));
  EXPECT_EQ(p.repeats(), 4);
  EXPECT_EQ(p.step_marks(), 4u);
  // compute + fixed inject + wait per iteration, plus one per listed entry.
  EXPECT_EQ(p.segment_bound(), 3u * 4u + 2u);
  EXPECT_EQ(std::get<OpInject>(p.body()[6]).duration, milliseconds(0.5));
  ASSERT_EQ(p.injections().size(), 2u);
  EXPECT_EQ(p.injections()[0].iteration, 0);
  EXPECT_EQ(p.injections()[0].duration, milliseconds(2.0));
  EXPECT_EQ(p.injections()[1].iteration, 3);
  EXPECT_EQ(p.injections()[1].duration, milliseconds(3.0));
}

TEST(Program, RepeatedIterationAddsToItsEntry) {
  Program p;
  p.compute(milliseconds(1.0)).inject_point().repeat(3);
  p.inject_at(1, milliseconds(2.0)).inject_at(1, milliseconds(3.0));
  ASSERT_EQ(p.injections().size(), 1u);
  EXPECT_EQ(p.injections()[0].duration, milliseconds(5.0));
  EXPECT_EQ(p.segment_bound(), 4u);
}

TEST(Program, RepeatRejectsOpenPosts) {
  Program p;
  p.compute(milliseconds(1.0)).isend(1, 64, 0);
  EXPECT_THROW(p.repeat(2), std::invalid_argument);
}

TEST(Program, RepeatRejectsSecondCallAndBadCounts) {
  Program p;
  p.compute(milliseconds(1.0));
  EXPECT_THROW(p.repeat(0), std::invalid_argument);
  p.repeat(2);
  EXPECT_THROW(p.repeat(2), std::invalid_argument);
}

TEST(Program, RepeatSealsTheBody) {
  Program p;
  p.compute(milliseconds(1.0)).repeat(2);
  EXPECT_THROW(p.waitall(), std::invalid_argument);
  EXPECT_THROW(p.inject_point(), std::invalid_argument);
  EXPECT_EQ(p.body().size(), 1u);
  EXPECT_EQ(p.segment_bound(), 2u);  // the compute, run twice
}

TEST(Program, InjectAtRejectsNegativeDurations) {
  Program p;
  p.compute(milliseconds(1.0)).inject_point().repeat(3);
  EXPECT_THROW(p.inject_at(1, Duration{-1}), std::invalid_argument);
}

TEST(Program, InjectAtRejectsOutOfRangeIterations) {
  Program p;
  p.compute(milliseconds(1.0)).inject_point().repeat(3);
  EXPECT_THROW(p.inject_at(-1, milliseconds(1.0)), std::invalid_argument);
  EXPECT_THROW(p.inject_at(3, milliseconds(1.0)), std::invalid_argument);
  p.inject_at(2, milliseconds(1.0));
}

TEST(Program, InjectAtRejectsOutOfOrderIterations) {
  Program p;
  p.compute(milliseconds(1.0)).inject_point().repeat(3);
  p.inject_at(2, milliseconds(1.0));
  EXPECT_THROW(p.inject_at(1, milliseconds(1.0)), std::invalid_argument);
  EXPECT_EQ(p.injections().size(), 1u);
}

TEST(Program, InjectAtNeedsAnInjectionPoint) {
  Program p;
  p.compute(milliseconds(1.0)).repeat(3);
  EXPECT_THROW(p.inject_at(0, milliseconds(1.0)), std::invalid_argument);
}

TEST(Program, AtMostOneInjectionPoint) {
  Program p;
  p.inject_point().compute(milliseconds(1.0));
  EXPECT_THROW(p.inject_point(), std::invalid_argument);
}

}  // namespace
}  // namespace iw::mpi
