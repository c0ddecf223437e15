#include "mpi/trace.hpp"

#include <algorithm>
#include <limits>

#include "support/error.hpp"

namespace iw::mpi {

namespace {
constexpr std::size_t kOffsetLimit = std::numeric_limits<std::uint32_t>::max();
}  // namespace

Trace::Trace(int ranks, std::size_t segments, std::size_t steps)
    : seg_rows_(static_cast<std::size_t>(ranks)),
      step_rows_(static_cast<std::size_t>(ranks)),
      finish_(static_cast<std::size_t>(ranks), SimTime::zero()) {
  IW_REQUIRE(ranks > 0, "trace needs at least one rank");
  seg_slab_.reserve(segments);
  step_slab_.reserve(steps);
}

void Trace::check_rank(int rank) const {
  IW_REQUIRE(rank >= 0 && rank < ranks(), "rank out of range");
}

template <typename T>
void Trace::grow_row(Row& row, std::vector<T>& slab) {
  const std::uint32_t new_cap = std::max<std::uint32_t>(4, row.capacity * 2);
  IW_CHECK(slab.size() + new_cap <= kOffsetLimit, "trace slab offset overflow");
  if (row.capacity != 0 &&
      static_cast<std::size_t>(row.offset) + row.capacity == slab.size()) {
    // The row already sits at the slab tail: extend in place.
    slab.resize(slab.size() + (new_cap - row.capacity));
  } else {
    // Relocate to the tail; the vacated region is abandoned (unreserved
    // rows only — the Cluster's exact reservations never take this path).
    const auto new_offset = static_cast<std::uint32_t>(slab.size());
    slab.resize(slab.size() + new_cap);
    std::copy_n(slab.begin() + row.offset, row.count,
                slab.begin() + new_offset);
    row.offset = new_offset;
  }
  row.capacity = new_cap;
}

void Trace::reserve_rank(int rank, std::size_t segments, std::size_t steps) {
  check_rank(rank);
  const auto r = static_cast<std::size_t>(rank);
  IW_REQUIRE(seg_rows_[r].count == 0 && seg_rows_[r].capacity == 0 &&
                 step_rows_[r].count == 0 && step_rows_[r].capacity == 0,
             "reserve_rank on a rank that already holds data");
  IW_CHECK(seg_slab_.size() + segments <= kOffsetLimit &&
               step_slab_.size() + steps <= kOffsetLimit,
           "trace slab offset overflow");
  seg_rows_[r].offset = static_cast<std::uint32_t>(seg_slab_.size());
  seg_rows_[r].capacity = static_cast<std::uint32_t>(segments);
  seg_slab_.resize(seg_slab_.size() + segments);
  step_rows_[r].offset = static_cast<std::uint32_t>(step_slab_.size());
  step_rows_[r].capacity = static_cast<std::uint32_t>(steps);
  step_slab_.resize(step_slab_.size() + steps);
}

void Trace::add_segment(int rank, Segment seg) {
  check_rank(rank);
  IW_CHECK(seg.end >= seg.begin, "segment must have non-negative duration");
  Row& row = seg_rows_[static_cast<std::size_t>(rank)];
  if (row.count == row.capacity) grow_row(row, seg_slab_);
  seg_slab_[row.offset + row.count++] = seg;
}

void Trace::mark_step(int rank, std::int32_t step, SimTime when) {
  check_rank(rank);
  Row& row = step_rows_[static_cast<std::size_t>(rank)];
  IW_CHECK(step == static_cast<std::int32_t>(row.count),
           "steps must be marked consecutively from zero");
  if (row.count == row.capacity) grow_row(row, step_slab_);
  step_slab_[row.offset + row.count++] = when;
}

void Trace::set_finish(int rank, SimTime when) {
  check_rank(rank);
  finish_[static_cast<std::size_t>(rank)] = when;
}

void Trace::alias_rank(int rank, int source) {
  check_rank(rank);
  check_rank(source);
  IW_REQUIRE(rank != source, "cannot alias a rank to itself");
  const auto r = static_cast<std::size_t>(rank);
  const auto s = static_cast<std::size_t>(source);
  IW_REQUIRE(seg_rows_[r].count == 0 && seg_rows_[r].capacity == 0 &&
                 step_rows_[r].count == 0 && step_rows_[r].capacity == 0,
             "alias_rank target already holds data");
  seg_rows_[r] = seg_rows_[s];
  step_rows_[r] = step_rows_[s];
  finish_[r] = finish_[s];
  has_aliases_ = true;
}

void Trace::import_rank(int rank, const Trace& source, int source_rank) {
  check_rank(rank);
  source.check_rank(source_rank);
  const auto segs = source.segments(source_rank);
  const auto steps = source.step_begin(source_rank);
  reserve_rank(rank, segs.size(), steps.size());
  const auto r = static_cast<std::size_t>(rank);
  std::copy(segs.begin(), segs.end(), seg_slab_.begin() + seg_rows_[r].offset);
  seg_rows_[r].count = static_cast<std::uint32_t>(segs.size());
  std::copy(steps.begin(), steps.end(),
            step_slab_.begin() + step_rows_[r].offset);
  step_rows_[r].count = static_cast<std::uint32_t>(steps.size());
  finish_[r] = source.finish(source_rank);
}

std::span<const Segment> Trace::segments(int rank) const {
  check_rank(rank);
  const Row& row = seg_rows_[static_cast<std::size_t>(rank)];
  return {seg_slab_.data() + row.offset, row.count};
}

std::span<const SimTime> Trace::step_begin(int rank) const {
  check_rank(rank);
  const Row& row = step_rows_[static_cast<std::size_t>(rank)];
  return {step_slab_.data() + row.offset, row.count};
}

SimTime Trace::finish(int rank) const {
  check_rank(rank);
  return finish_[static_cast<std::size_t>(rank)];
}

SimTime Trace::makespan() const {
  return *std::max_element(finish_.begin(), finish_.end());
}

Duration Trace::total(int rank, SegKind kind) const {
  Duration sum = Duration::zero();
  for (const auto& seg : segments(rank))
    if (seg.kind == kind) sum += seg.duration();
  return sum;
}

std::size_t Trace::bytes_used() const {
  return seg_slab_.capacity() * sizeof(Segment) +
         step_slab_.capacity() * sizeof(SimTime) +
         (seg_rows_.capacity() + step_rows_.capacity()) * sizeof(Row) +
         finish_.capacity() * sizeof(SimTime);
}

}  // namespace iw::mpi
