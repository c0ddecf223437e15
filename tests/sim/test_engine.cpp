// Tests for the discrete-event engine.
#include <gtest/gtest.h>

#include <vector>

#include "sim/engine.hpp"

namespace iw::sim {
namespace {

TEST(Engine, ClockAdvancesWithEvents) {
  Engine eng;
  std::vector<std::int64_t> times;
  eng.after(Duration{100}, [&] { times.push_back(eng.now().ns()); });
  eng.after(Duration{50}, [&] { times.push_back(eng.now().ns()); });
  eng.run();
  EXPECT_EQ(times, (std::vector<std::int64_t>{50, 100}));
  EXPECT_EQ(eng.now().ns(), 100);
  EXPECT_EQ(eng.events_processed(), 2u);
}

TEST(Engine, EventsCanScheduleEvents) {
  Engine eng;
  int fired = 0;
  eng.after(Duration{10}, [&] {
    ++fired;
    eng.after(Duration{10}, [&] {
      ++fired;
      eng.after(Duration{10}, [&] { ++fired; });
    });
  });
  eng.run();
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(eng.now().ns(), 30);
}

TEST(Engine, ZeroDelayEventFiresAtSameTime) {
  Engine eng;
  std::vector<int> order;
  eng.after(Duration{5}, [&] {
    order.push_back(1);
    eng.after(Duration::zero(), [&] { order.push_back(2); });
  });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(eng.now().ns(), 5);
}

TEST(Engine, RunUntilStopsAtDeadline) {
  Engine eng;
  int fired = 0;
  eng.after(Duration{10}, [&] { ++fired; });
  eng.after(Duration{20}, [&] { ++fired; });
  eng.after(Duration{30}, [&] { ++fired; });
  eng.run_until(SimTime{20});
  EXPECT_EQ(fired, 2);  // the t=20 event still fires
  EXPECT_EQ(eng.events_pending(), 1u);
  eng.run();
  EXPECT_EQ(fired, 3);
}

TEST(Engine, StopExitsLoop) {
  Engine eng;
  int fired = 0;
  eng.after(Duration{1}, [&] {
    ++fired;
    eng.stop();
  });
  eng.after(Duration{2}, [&] { ++fired; });
  eng.run();
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(eng.stopped());
  eng.run();  // resumes
  EXPECT_EQ(fired, 2);
}

TEST(Engine, PastSchedulingRejected) {
  Engine eng;
  eng.after(Duration{10}, [&] {
    EXPECT_THROW(eng.at(SimTime{5}, [] {}), std::invalid_argument);
  });
  eng.run();
  EXPECT_THROW(eng.after(Duration{-1}, [] {}), std::invalid_argument);
}

// Regression for the batch-drain fast path: stop() inside a same-timestamp
// batch must not drop the batch's remaining events — they stay pending and
// fire on resume, still in (time, seq) order.
TEST(Engine, StopMidBatchKeepsRemainingEvents) {
  Engine eng;
  std::vector<int> order;
  eng.at(SimTime{5}, [&] {
    order.push_back(0);
    eng.stop();
  });
  eng.at(SimTime{5}, [&] { order.push_back(1); });
  eng.at(SimTime{5}, [&] { order.push_back(2); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{0}));
  EXPECT_EQ(eng.events_pending(), 2u);
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(eng.now().ns(), 5);
}

TEST(Engine, PeakPendingTracksCalendarPopulation) {
  Engine eng;
  for (int i = 0; i < 7; ++i) eng.at(SimTime{10 + i}, [] {});
  for (int i = 0; i < 3; ++i) eng.at(SimTime{10}, [] {});  // same-time chain
  EXPECT_EQ(eng.peak_events_pending(), 10u);
  eng.run();
  EXPECT_EQ(eng.peak_events_pending(), 10u);
  EXPECT_EQ(eng.events_processed(), 10u);
}

// Regression for a calendar peek that moves its base: after run_until()
// stops short of the next pending event, scheduling anywhere in
// [now, next pending time) stays legal and fires in (time, seq) order.
TEST(Engine, ScheduleBelowPendingAfterRunUntil) {
  Engine eng;
  std::vector<std::int64_t> fired;
  auto record = [&] { fired.push_back(eng.now().ns()); };
  eng.at(SimTime{10}, record);
  eng.at(SimTime{1000}, record);
  eng.run_until(SimTime{20});
  EXPECT_EQ(eng.now(), SimTime{10});
  EXPECT_EQ(eng.events_pending(), 1u);
  eng.at(SimTime{500}, record);
  eng.at(SimTime{20}, record);
  EXPECT_EQ(eng.events_pending(), 3u);
  EXPECT_EQ(eng.peak_events_pending(), 3u);
  eng.run();
  EXPECT_EQ(fired, (std::vector<std::int64_t>{10, 20, 500, 1000}));
  EXPECT_EQ(eng.events_pending(), 0u);
  EXPECT_EQ(eng.peak_events_pending(), 3u);
  EXPECT_EQ(eng.batches(), 4u);
}

// batches() counts runs of one timestamp: a zero-delay child joins its
// parent's batch, and a call resumed after stop() opens a new one.
TEST(Engine, BatchesCountTimestampRunsPerCall) {
  Engine eng;
  eng.at(SimTime{5}, [&] { eng.stop(); });
  eng.at(SimTime{5}, [] {});
  eng.at(SimTime{7}, [&] { eng.after(Duration::zero(), [] {}); });
  eng.at(SimTime{9}, [] {});
  eng.run();
  EXPECT_EQ(eng.batches(), 1u);
  eng.run();
  EXPECT_EQ(eng.batches(), 4u);
  EXPECT_EQ(eng.events_processed(), 5u);
}

TEST(Engine, DeterministicTieOrder) {
  Engine eng;
  std::vector<int> order;
  for (int i = 0; i < 20; ++i)
    eng.at(SimTime{100}, [&order, i] { order.push_back(i); });
  eng.run();
  for (int i = 0; i < 20; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

}  // namespace
}  // namespace iw::sim
