// Tests for trace recording and queries.
#include <gtest/gtest.h>

#include "mpi/trace.hpp"

namespace iw::mpi {
namespace {

Segment seg(SegKind kind, std::int64_t b, std::int64_t e, std::int32_t step = 0) {
  return Segment{kind, SimTime{b}, SimTime{e}, step, Duration::zero()};
}

TEST(Trace, RecordsSegmentsPerRank) {
  Trace t(3);
  t.add_segment(0, seg(SegKind::compute, 0, 10));
  t.add_segment(0, seg(SegKind::wait, 10, 15));
  t.add_segment(2, seg(SegKind::injected, 0, 100));
  EXPECT_EQ(t.segments(0).size(), 2u);
  EXPECT_EQ(t.segments(1).size(), 0u);
  EXPECT_EQ(t.segments(2).size(), 1u);
  EXPECT_EQ(t.ranks(), 3);
}

TEST(Trace, TotalsByKind) {
  Trace t(1);
  t.add_segment(0, seg(SegKind::compute, 0, 10));
  t.add_segment(0, seg(SegKind::wait, 10, 15));
  t.add_segment(0, seg(SegKind::compute, 15, 30));
  EXPECT_EQ(t.total(0, SegKind::compute), Duration{25});
  EXPECT_EQ(t.total(0, SegKind::wait), Duration{5});
  EXPECT_EQ(t.total(0, SegKind::injected), Duration::zero());
}

TEST(Trace, StepMarksMustBeConsecutive) {
  Trace t(1);
  t.mark_step(0, 0, SimTime{0});
  t.mark_step(0, 1, SimTime{10});
  EXPECT_EQ(t.step_begin(0).size(), 2u);
  EXPECT_EQ(t.step_begin(0)[1], SimTime{10});
  EXPECT_THROW(t.mark_step(0, 5, SimTime{20}), std::logic_error);
}

TEST(Trace, FinishAndMakespan) {
  Trace t(2);
  t.set_finish(0, SimTime{100});
  t.set_finish(1, SimTime{250});
  EXPECT_EQ(t.finish(0), SimTime{100});
  EXPECT_EQ(t.makespan(), SimTime{250});
}

TEST(Trace, SegmentDurationHelper) {
  const Segment s = seg(SegKind::wait, 5, 25);
  EXPECT_EQ(s.duration(), Duration{20});
}

TEST(Trace, RejectsBadInput) {
  EXPECT_THROW(Trace{0}, std::invalid_argument);
  Trace t(1);
  EXPECT_THROW(t.add_segment(1, seg(SegKind::compute, 0, 1)),
               std::invalid_argument);
  EXPECT_THROW(t.add_segment(0, seg(SegKind::compute, 10, 5)),
               std::logic_error);
  EXPECT_THROW((void)t.segments(-1), std::invalid_argument);
}

// ---- the row-index layer: a rank reads a physical row through a 4-byte
// index; aliases share rows, so descriptors and finish times exist once per
// timeline. ----

/// A one-rank trace holding a 3-segment, 2-step timeline finishing at 90.
Trace reference_timeline() {
  Trace ref(1);
  ref.add_segment(0, seg(SegKind::compute, 0, 30, 0));
  ref.add_segment(0, seg(SegKind::wait, 30, 40, 0));
  ref.add_segment(0, seg(SegKind::compute, 40, 90, 1));
  ref.mark_step(0, 0, SimTime{0});
  ref.mark_step(0, 1, SimTime{40});
  ref.set_finish(0, SimTime{90});
  return ref;
}

TEST(Trace, RanksStartOnTheSharedEmptyRow) {
  Trace t(4);
  EXPECT_EQ(t.rows(), 1u);  // the empty row only
  EXPECT_EQ(t.row_of(2), 0u);
  EXPECT_TRUE(t.segments(2).empty());
  EXPECT_TRUE(t.step_begin(2).empty());
  EXPECT_EQ(t.finish(2), SimTime::zero());
  // A recorder's row is created once and then stable.
  const Trace::RowId row = t.own_row(2);
  EXPECT_NE(row, 0u);
  EXPECT_EQ(t.own_row(2), row);
  EXPECT_EQ(t.row_of(2), row);
  EXPECT_NE(t.own_row(1), row);
  t.append_segment(row, seg(SegKind::compute, 0, 5));
  t.append_step(row, 0, SimTime{0});
  t.set_row_finish(row, SimTime{5});
  EXPECT_EQ(t.segments(2).size(), 1u);
  EXPECT_EQ(t.step_begin(2).size(), 1u);
  EXPECT_EQ(t.finish(2), SimTime{5});
  EXPECT_TRUE(t.segments(1).empty());
}

TEST(Trace, ReservedRowsRecordInPlace) {
  Trace t(3, 4, 2, 1);
  const Trace::RowId row = t.reserve_rank(1, 4, 2);
  const Segment* slab = t.segments(1).data();
  for (int i = 0; i < 4; ++i)
    t.append_segment(row, seg(SegKind::compute, 10 * i, 10 * i + 5));
  t.mark_step(1, 0, SimTime{0});
  t.mark_step(1, 1, SimTime{20});
  EXPECT_EQ(t.segments(1).data(), slab);  // exact reservation: no move
  ASSERT_EQ(t.segments(1).size(), 4u);
  EXPECT_EQ(t.segments(1)[3].begin, SimTime{30});
  EXPECT_EQ(t.step_begin(1)[1], SimTime{20});
}

TEST(Trace, AliasesShareAnImportedRow) {
  const Trace ref = reference_timeline();
  Trace t(6);
  t.import_rank(1, ref, 0);
  EXPECT_FALSE(t.has_aliases());
  for (const int r : {3, 4, 5}) t.alias_rank(r, 1);
  EXPECT_TRUE(t.has_aliases());
  EXPECT_EQ(t.rows(), 2u);  // the empty row and the imported one
  for (const int r : {1, 3, 4, 5}) {
    EXPECT_EQ(t.row_of(r), t.row_of(1)) << "rank " << r;
    EXPECT_EQ(t.segments(r).data(), t.segments(1).data()) << "rank " << r;
    ASSERT_EQ(t.segments(r).size(), 3u) << "rank " << r;
    EXPECT_EQ(t.segments(r)[1].kind, SegKind::wait) << "rank " << r;
    EXPECT_EQ(t.segments(r)[2].end, SimTime{90}) << "rank " << r;
    ASSERT_EQ(t.step_begin(r).size(), 2u) << "rank " << r;
    EXPECT_EQ(t.step_begin(r)[1], SimTime{40}) << "rank " << r;
    EXPECT_EQ(t.finish(r), SimTime{90}) << "rank " << r;
    EXPECT_EQ(t.total(r, SegKind::wait), Duration{10}) << "rank " << r;
  }
  // Ranks 0 and 2 were never written: still the empty row.
  EXPECT_EQ(t.row_of(0), 0u);
  EXPECT_TRUE(t.segments(2).empty());
  EXPECT_EQ(t.finish(2), SimTime::zero());
}

TEST(Trace, AliasRankRefusesARankThatHoldsData) {
  const Trace ref = reference_timeline();
  Trace t(5);
  t.import_rank(0, ref, 0);
  (void)t.reserve_rank(1, 2, 2);
  EXPECT_THROW(t.alias_rank(1, 0), std::invalid_argument);  // reserved
  t.add_segment(2, seg(SegKind::compute, 0, 1));
  EXPECT_THROW(t.alias_rank(2, 0), std::invalid_argument);  // recorded
  EXPECT_THROW(t.alias_rank(0, 0), std::invalid_argument);  // itself
  EXPECT_THROW(t.alias_rank(3, 5), std::invalid_argument);  // off the end
  t.alias_rank(3, 0);
  EXPECT_THROW(t.alias_rank(3, 0), std::invalid_argument);  // aliased once
  EXPECT_THROW((void)t.reserve_rank(3, 1, 1), std::invalid_argument);
  EXPECT_THROW(t.import_rank(3, ref, 0), std::invalid_argument);
  // The refused calls left the rows as they were.
  EXPECT_EQ(t.segments(1).size(), 0u);
  EXPECT_EQ(t.segments(2).size(), 1u);
  EXPECT_EQ(t.segments(3).size(), 3u);
}

TEST(Trace, MakespanFinishAndBytesOnAliasedTraces) {
  const Trace ref = reference_timeline();
  constexpr int kRanks = 1000;
  // Sized exactly: one imported 3-segment/2-step row plus one private
  // 1-segment/0-step row.
  Trace t(kRanks, 4, 2, 2);
  const std::size_t sized = t.bytes_used();
  t.import_rank(10, ref, 0);
  for (int r = 11; r < kRanks; ++r) t.alias_rank(r, 10);
  const Trace::RowId own = t.reserve_rank(0, 1, 0);
  t.append_segment(own, seg(SegKind::compute, 0, 70));
  t.set_row_finish(own, SimTime{70});
  // Aliases cost their row index and nothing else.
  EXPECT_EQ(t.bytes_used(), sized);
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_LE(t.bytes_used(), kRanks * sizeof(Trace::RowId) +
                                4 * sizeof(Segment) + 2 * sizeof(SimTime) +
                                3 * 32);
  EXPECT_EQ(t.finish(999), SimTime{90});
  EXPECT_EQ(t.finish(0), SimTime{70});
  EXPECT_EQ(t.finish(5), SimTime::zero());  // never written
  EXPECT_EQ(t.makespan(), SimTime{90});  // the aliased row is the latest
  t.set_finish(1, SimTime{120});         // a private row overtakes it
  EXPECT_EQ(t.makespan(), SimTime{120});
  EXPECT_EQ(Trace(3).makespan(), SimTime::zero());
}

TEST(Trace, SameTimelinesComparesContentNotLayout) {
  const Trace ref = reference_timeline();
  // One side aliases rank 2 onto rank 1's imported row, the other copies
  // both into rows of their own, in the other order.
  Trace aliased(3);
  aliased.import_rank(1, ref, 0);
  aliased.alias_rank(2, 1);
  Trace copied(3);
  copied.import_rank(2, ref, 0);
  copied.import_rank(1, ref, 0);
  EXPECT_TRUE(same_timelines(aliased, copied));
  EXPECT_FALSE(same_timelines(aliased, Trace(3)));
  EXPECT_FALSE(same_timelines(aliased, Trace(4)));

  // Each part of a timeline counts, the noise draw of a segment included.
  const auto timeline = [](Duration noise, std::int64_t mark,
                           std::int64_t finish) {
    Trace t(1);
    Segment s = seg(SegKind::compute, 0, 30);
    s.noise = noise;
    t.add_segment(0, s);
    t.mark_step(0, 0, SimTime{mark});
    t.set_finish(0, SimTime{finish});
    return t;
  };
  const Trace base = timeline(Duration{5}, 0, 30);
  EXPECT_TRUE(same_timelines(base, timeline(Duration{5}, 0, 30)));
  EXPECT_FALSE(same_timelines(base, timeline(Duration{6}, 0, 30)));
  EXPECT_FALSE(same_timelines(base, timeline(Duration{5}, 1, 30)));
  EXPECT_FALSE(same_timelines(base, timeline(Duration{5}, 0, 31)));
}

TEST(Trace, SegKindNames) {
  EXPECT_STREQ(to_string(SegKind::compute), "compute");
  EXPECT_STREQ(to_string(SegKind::injected), "injected");
  EXPECT_STREQ(to_string(SegKind::wait), "wait");
}

}  // namespace
}  // namespace iw::mpi
