#include "mpi/trace.hpp"

#include <algorithm>
#include <cstring>
#include <limits>

namespace iw::mpi {

namespace {
constexpr std::size_t kOffsetLimit = std::numeric_limits<std::uint32_t>::max();
}  // namespace

template <typename T>
void Trace::Slab<T>::reserve(std::size_t n) {
  if (n <= capacity_) return;
  T* grown = std::allocator<T>().allocate(n);
  // Copies the carved extent bytewise, unwritten entries included: they
  // are never read, only carried along.
  if (size_ > 0)
    std::memcpy(static_cast<void*>(grown), data_, size_ * sizeof(T));
  std::allocator<T>().deallocate(data_, capacity_);
  data_ = grown;
  capacity_ = n;
}

template <typename T>
std::size_t Trace::Slab<T>::carve(std::size_t n) {
  IW_CHECK(size_ + n <= kOffsetLimit, "trace slab offset overflow");
  if (size_ + n > capacity_) reserve(std::max(size_ + n, capacity_ * 2));
  const std::size_t offset = size_;
  size_ += n;
  return offset;
}

template <typename T>
void Trace::Slab<T>::grow_row(std::uint32_t& offset, std::uint32_t count,
                              std::uint32_t& capacity) {
  const std::uint32_t new_cap = std::max<std::uint32_t>(4, capacity * 2);
  if (capacity != 0 && std::size_t{offset} + capacity == size_) {
    carve(new_cap - capacity);
  } else {
    const auto new_offset = static_cast<std::uint32_t>(carve(new_cap));
    std::copy_n(data_ + offset, count, data_ + new_offset);
    offset = new_offset;
  }
  capacity = new_cap;
}

template class Trace::Slab<Segment>;
template class Trace::Slab<SimTime>;

Trace::Trace(int ranks, std::size_t segments, std::size_t steps,
             std::optional<std::size_t> rows)
    : row_of_(static_cast<std::size_t>(std::max(ranks, 0)), RowId{0}) {
  IW_REQUIRE(ranks > 0, "trace needs at least one rank");
  seg_slab_.reserve(segments);
  step_slab_.reserve(steps);
  rows_.reserve(1 + rows.value_or(static_cast<std::size_t>(ranks)));
  rows_.emplace_back();  // the shared empty row
}

Trace::RowId Trace::new_row() {
  IW_CHECK(rows_.size() < kOffsetLimit, "trace row table overflow");
  rows_.emplace_back();
  return static_cast<RowId>(rows_.size() - 1);
}

Trace::RowId Trace::own_row(int rank) {
  check_rank(rank);
  RowId& row = row_of_[static_cast<std::size_t>(rank)];
  if (row == 0) row = new_row();
  return row;
}

Trace::RowId Trace::reserve_rank(int rank, std::size_t segments,
                                 std::size_t steps) {
  check_rank(rank);
  RowId& id = row_of_[static_cast<std::size_t>(rank)];
  IW_REQUIRE(id == 0, "reserve_rank on a rank that already holds data");
  id = new_row();
  Row& row = rows_[id];
  row.seg_offset = static_cast<std::uint32_t>(seg_slab_.carve(segments));
  row.seg_capacity = static_cast<std::uint32_t>(segments);
  row.step_offset = static_cast<std::uint32_t>(step_slab_.carve(steps));
  row.step_capacity = static_cast<std::uint32_t>(steps);
  return id;
}

void Trace::import_rank(int rank, const Trace& source, int source_rank) {
  const auto segs = source.segments(source_rank);
  const auto steps = source.step_begin(source_rank);
  Row& row = rows_[reserve_rank(rank, segs.size(), steps.size())];
  std::copy(segs.begin(), segs.end(), seg_slab_.data() + row.seg_offset);
  row.seg_count = static_cast<std::uint32_t>(segs.size());
  std::copy(steps.begin(), steps.end(), step_slab_.data() + row.step_offset);
  row.step_count = static_cast<std::uint32_t>(steps.size());
  row.finish = source.finish(source_rank);
}

SimTime Trace::makespan() const {
  SimTime latest = SimTime::zero();
  for (const Row& row : rows_) latest = std::max(latest, row.finish);
  return latest;
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
         row_of_.capacity() * sizeof(RowId) + rows_.capacity() * sizeof(Row);
}

bool same_timelines(const Trace& a, const Trace& b) {
  if (a.ranks() != b.ranks()) return false;
  for (int r = 0; r < a.ranks(); ++r) {
    if (a.finish(r) != b.finish(r) ||
        !std::ranges::equal(a.segments(r), b.segments(r)) ||
        !std::ranges::equal(a.step_begin(r), b.step_begin(r)))
      return false;
  }
  return true;
}

}  // namespace iw::mpi
