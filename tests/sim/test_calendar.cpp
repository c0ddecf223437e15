// Tests for the deterministic event calendar.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <utility>
#include <vector>

#include "sim/calendar.hpp"

namespace iw::sim {
namespace {

TEST(Calendar, PopsInTimeOrder) {
  Calendar cal;
  std::vector<int> order;
  cal.schedule(SimTime{30}, [&] { order.push_back(3); });
  cal.schedule(SimTime{10}, [&] { order.push_back(1); });
  cal.schedule(SimTime{20}, [&] { order.push_back(2); });
  while (!cal.empty()) cal.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Calendar, TiesBreakByScheduleOrder) {
  Calendar cal;
  std::vector<int> order;
  for (int i = 0; i < 50; ++i)
    cal.schedule(SimTime{100}, [&order, i] { order.push_back(i); });
  while (!cal.empty()) cal.pop().fn();
  for (int i = 0; i < 50; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Calendar, MixedTiesAndTimes) {
  Calendar cal;
  std::vector<int> order;
  cal.schedule(SimTime{5}, [&] { order.push_back(10); });
  cal.schedule(SimTime{5}, [&] { order.push_back(11); });
  cal.schedule(SimTime{1}, [&] { order.push_back(0); });
  cal.schedule(SimTime{5}, [&] { order.push_back(12); });
  while (!cal.empty()) cal.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{0, 10, 11, 12}));
}

TEST(Calendar, PopUntilReportsEarliest) {
  Calendar cal;
  cal.schedule(SimTime{42}, [] {});
  cal.schedule(SimTime{7}, [] {});
  EventFn fn;
  SimTime when;
  EXPECT_FALSE(cal.pop_until(SimTime{6}, when, fn));
  EXPECT_EQ(cal.size(), 2u);
  EXPECT_TRUE(cal.pop_until(SimTime::max(), when, fn));
  EXPECT_EQ(when, SimTime{7});
  EXPECT_EQ(cal.size(), 1u);
}

TEST(Calendar, EmptyCalendarPopsNothing) {
  Calendar cal;
  EXPECT_TRUE(cal.empty());
  EventFn fn;
  SimTime when;
  EXPECT_FALSE(cal.pop_until(SimTime::max(), when, fn));
  EXPECT_THROW((void)cal.pop(), std::invalid_argument);
}

// The base is the last removed time: scheduling before it is a contract
// violation, while scheduling at it or anywhere up to the next pending
// time stays legal, and a failing pop_until does not move it.
TEST(Calendar, ScheduleBeforeLastPopThrows) {
  Calendar cal;
  cal.schedule(SimTime{10}, [] {});
  cal.schedule(SimTime{1000}, [] {});
  EXPECT_EQ(cal.pop().when, SimTime{10});
  EXPECT_THROW(cal.schedule(SimTime{9}, [] {}), std::invalid_argument);
  EventFn fn;
  SimTime when;
  EXPECT_FALSE(cal.pop_until(SimTime{999}, when, fn));
  EXPECT_NO_THROW(cal.schedule(SimTime{10}, [] {}));
  EXPECT_NO_THROW(cal.schedule(SimTime{500}, [] {}));
  EXPECT_EQ(cal.size(), 3u);
  EXPECT_EQ(cal.pop().when, SimTime{10});
  EXPECT_EQ(cal.pop().when, SimTime{500});
  EXPECT_THROW(cal.schedule(SimTime{499}, [] {}), std::invalid_argument);
  EXPECT_EQ(cal.pop().when, SimTime{1000});
  cal.reset();
  EXPECT_NO_THROW(cal.schedule(SimTime{0}, [] {}));
}

TEST(Calendar, SequenceNumbersIncrease) {
  Calendar cal;
  const auto s1 = cal.schedule(SimTime{1}, [] {});
  const auto s2 = cal.schedule(SimTime{1}, [] {});
  EXPECT_LT(s1, s2);
}

// Regression for the (time, seq) contract of the packed slab heap:
// same-time events scheduled NON-consecutively (other timestamps in
// between) must still interleave purely by (time, seq).
TEST(Calendar, TieBreakSurvivesInterleavedScheduling) {
  Calendar cal;
  std::vector<int> order;
  cal.schedule(SimTime{5}, [&] { order.push_back(0); });   // seq 0
  cal.schedule(SimTime{9}, [&] { order.push_back(10); });  // seq 1
  cal.schedule(SimTime{5}, [&] { order.push_back(1); });   // seq 2
  cal.schedule(SimTime{2}, [&] { order.push_back(-1); });  // seq 3
  cal.schedule(SimTime{5}, [&] { order.push_back(2); });   // seq 4
  cal.schedule(SimTime{9}, [&] { order.push_back(11); });  // seq 5
  while (!cal.empty()) cal.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{-1, 0, 1, 2, 10, 11}));
}

// Events scheduled at a timestamp while it is being drained must fire after
// the already-pending events of that timestamp (larger seq).
TEST(Calendar, SameTimeScheduleDuringDrain) {
  Calendar cal;
  std::vector<int> order;
  cal.schedule(SimTime{5}, [&] {
    order.push_back(0);
    cal.schedule(SimTime{5}, [&] { order.push_back(2); });
  });
  cal.schedule(SimTime{5}, [&] { order.push_back(1); });
  while (!cal.empty()) cal.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

// Regression for the seed's pop-by-copy bug: pop() must MOVE the closure
// out — captured state must never be copied between schedule and fire.
TEST(Calendar, PopMovesTheClosureWithoutCopying) {
  struct CopyCounter {
    int* copies;
    CopyCounter(int* c) : copies(c) {}
    CopyCounter(const CopyCounter& o) : copies(o.copies) { ++*copies; }
    CopyCounter(CopyCounter&& o) noexcept : copies(o.copies) {}
    void operator()() const {}
  };
  int copies = 0;
  Calendar cal;
  cal.schedule(SimTime{1}, CopyCounter{&copies});
  Event ev = cal.pop();
  ev.fn();
  EXPECT_EQ(copies, 0);
}

TEST(Calendar, AcceptsMoveOnlyClosures) {
  Calendar cal;
  auto payload = std::make_unique<int>(42);
  int observed = 0;
  cal.schedule(SimTime{1}, [p = std::move(payload), &observed] {
    observed = *p;
  });
  cal.pop().fn();
  EXPECT_EQ(observed, 42);
}

TEST(Calendar, PopUntilDrainsOnlyUpToTheDeadline) {
  Calendar cal;
  int fired = 0;
  cal.schedule(SimTime{5}, [&] { ++fired; });
  cal.schedule(SimTime{5}, [&] { ++fired; });
  cal.schedule(SimTime{8}, [&] { ++fired; });
  EventFn fn;
  SimTime when;
  while (cal.pop_until(SimTime{5}, when, fn)) {
    EXPECT_EQ(when, SimTime{5});
    fn();
  }
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(cal.size(), 1u);
  EXPECT_FALSE(cal.pop_until(SimTime{7}, when, fn));
  EXPECT_TRUE(cal.pop_until(SimTime{8}, when, fn));
  EXPECT_EQ(when, SimTime{8});
}

TEST(Calendar, PeakSizeCountsSameTimeEvents) {
  Calendar cal;
  for (int i = 0; i < 10; ++i) cal.schedule(SimTime{7}, [] {});
  for (int i = 0; i < 5; ++i) cal.schedule(SimTime{20 + i}, [] {});
  EXPECT_EQ(cal.size(), 15u);
  EXPECT_EQ(cal.peak_size(), 15u);
  while (!cal.empty()) cal.pop();
  EXPECT_EQ(cal.peak_size(), 15u);
  EXPECT_EQ(cal.size(), 0u);
}

// Stress the heap's tie-break deterministically: a pseudo-random mix of
// duplicate and unique timestamps must drain in exact (time, seq) order.
TEST(Calendar, RandomizedMixDrainsInTimeSeqOrder) {
  Calendar cal;
  std::uint64_t rng = 0xC0FFEE123456789ull;
  auto next = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  struct Fired {
    std::int64_t when;
    std::uint64_t seq;
  };
  std::vector<Fired> fired;
  std::vector<std::pair<std::int64_t, std::uint64_t>> scheduled;
  for (int i = 0; i < 2000; ++i) {
    const auto when = static_cast<std::int64_t>(next() % 64);  // many dups
    const auto seq = cal.schedule(SimTime{when}, [] {});
    scheduled.emplace_back(when, seq);
  }
  while (!cal.empty()) {
    Event ev = cal.pop();
    fired.push_back(Fired{ev.when.ns(), ev.seq});
  }
  std::sort(scheduled.begin(), scheduled.end());
  ASSERT_EQ(fired.size(), scheduled.size());
  for (std::size_t i = 0; i < fired.size(); ++i) {
    EXPECT_EQ(fired[i].when, scheduled[i].first) << "at index " << i;
    EXPECT_EQ(fired[i].seq, scheduled[i].second) << "at index " << i;
  }
}

// Drive the slab/bucket machinery through heavy churn with the structural
// audit engaged at every step. audit() is a no-op in plain Release, so this
// test is cheap there and exhaustive in Debug/IDLEWAVE_AUDIT/sanitizer
// builds: free-list integrity, bucket placement and seq order, the ready
// run, and the one-entry-per-live-slot reconciliation all hold at every
// intermediate state, including across reset() and slab reuse.
TEST(Calendar, AuditHoldsThroughChurnAndReset) {
  Calendar cal;
  std::uint64_t rng = 0x1D1EAF0000C0DEull;
  auto next = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  for (int round = 0; round < 3; ++round) {
    // Interleave schedules (with many duplicate timestamps, never before
    // the last popped time) and pops (so slots recycle LIFO while same-time
    // events are pending).
    std::int64_t last_popped = 0;
    for (int i = 0; i < 600; ++i) {
      cal.schedule(
          SimTime{last_popped + static_cast<std::int64_t>(next() % 32)},
          [] {});
      if (i % 3 == 2) {
        (void)cal.pop();
        last_popped = cal.pop().when.ns();
      }
      cal.audit();
    }
    while (!cal.empty()) {
      (void)cal.pop();
      cal.audit();
    }
    cal.reset();  // runs its own IW_AUDIT(audit()) and must leave pristine
    cal.audit();
    EXPECT_EQ(cal.size(), 0u);
    EXPECT_EQ(cal.peak_size(), 0u);
  }
}

// The calendar against a std::priority_queue over (when, seq) under churn:
// schedules interleave with pop() and pop_until() drains to a random
// deadline, drains reschedule at the current time with zero delay, a drain
// stops exactly at the first event past its deadline, and reset() starts
// every round from a pristine calendar (with events still pending in the
// even rounds). The far jumps run once up to 4096 ns and once up to
// 2^40 ns, so high buckets fill and get redistributed.
TEST(Calendar, MatchesReferenceHeapUnderRandomInterleaving) {
  using Key = std::pair<std::int64_t, std::uint64_t>;
  for (const std::uint64_t far :
       {std::uint64_t{4096}, std::uint64_t{1} << 40}) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      std::uint64_t rng = 0x9E3779B97F4A7C15ull * seed;
      auto next = [&rng] {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        return rng;
      };
      Calendar cal;
      for (int round = 0; round < 4; ++round) {
        std::priority_queue<Key, std::vector<Key>, std::greater<>> ref;
        std::vector<std::uint64_t> seq_of;  // closure id -> its seq
        std::size_t fired = 0;              // id of the last closure run
        std::int64_t now = 0;
        auto schedule = [&](std::int64_t when) {
          const std::size_t id = seq_of.size();
          seq_of.push_back(
              cal.schedule(SimTime{when}, [&fired, id] { fired = id; }));
          ref.emplace(when, seq_of.back());
        };
        auto expect_next = [&](std::int64_t when) {
          ASSERT_FALSE(ref.empty());
          EXPECT_EQ(Key(when, seq_of[fired]), ref.top())
              << "far " << far << " seed " << seed << " round " << round;
          ref.pop();
        };
        auto pop_one = [&] {
          Event ev = cal.pop();
          ev.fn();
          EXPECT_EQ(ev.seq, seq_of[fired]);
          expect_next(ev.when.ns());
          now = ev.when.ns();
        };

        for (int op = 0; op < 2500; ++op) {
          const std::uint64_t r = next() % 8;
          if (r < 5 || cal.empty()) {
            // Mostly near-future times (many ties, zero delays included),
            // sometimes far ones so the heap grows deep.
            const auto delta = static_cast<std::int64_t>(
                next() % 4 == 0 ? next() % far : next() % 16);
            schedule(now + delta);
          } else if (r < 6) {
            pop_one();
          } else {
            const auto deadline =
                now + static_cast<std::int64_t>(next() % 32);
            EventFn fn;
            SimTime when;
            while (cal.pop_until(SimTime{deadline}, when, fn)) {
              fn();
              expect_next(when.ns());
              now = when.ns();
              if (next() % 4 == 0) schedule(now);
            }
            EXPECT_TRUE(ref.empty() || ref.top().first > deadline);
          }
          ASSERT_EQ(cal.size(), ref.size());
          cal.audit();
        }
        if (round % 2 == 1) {
          while (!cal.empty()) pop_one();
          EXPECT_TRUE(ref.empty());
        }
        cal.reset();
      }
    }
  }
}

}  // namespace
}  // namespace iw::sim
