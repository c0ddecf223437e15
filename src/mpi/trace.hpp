// Execution traces: the raw material of every analysis in the paper.
//
// Each rank records a sequence of timed segments (compute, injected delay,
// waiting) plus per-timestep begin markers. The analysis layer extracts
// idle periods, wave fronts, decay rates and Fig. 2 style step positions
// from these traces.
//
// Storage is struct-of-arrays in two levels. A rank maps to a physical
// *row* through a 4-byte row index; a row holds one timeline: its slices of
// the shared Segment and SimTime slabs (offset/count/capacity) and its
// finish time. Ranks that have recorded nothing share row 0, the empty
// row. At machine scale (100k-1M ranks) this replaces two heap allocations
// per rank with two slab allocations per run, keeps recording cache-linear,
// and makes the whole trace cost measurable via bytes_used().
// The Cluster sizes both slabs and the row table once from its programs'
// counters and carves every bound rank's row exactly, so neither row
// assignment nor recording reallocates. Carving only moves the slab tail:
// entries past a row's count are never read, so they stay uninitialised
// and recording writes each one once. Rows written without a reservation
// (tests, tools) grow by relocating to the slab tail, which wastes the
// vacated region but keeps the common reserved path branch-free.
// alias_rank() is one row-index store: fast-forward synthesis points every
// silent rank of a residue class at one imported row, so row descriptors
// and finish times exist once per physical timeline, not once per rank.
// A recorder (Process) resolves its row once and writes through it.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "support/error.hpp"
#include "support/time.hpp"

namespace iw::mpi {

enum class SegKind : std::uint8_t {
  compute,   ///< regular execution phase (noise included in duration)
  injected,  ///< deliberately injected one-off delay
  wait,      ///< blocked in WaitAll — idleness and communication delay
};

[[nodiscard]] constexpr const char* to_string(SegKind k) {
  switch (k) {
    case SegKind::compute: return "compute";
    case SegKind::injected: return "injected";
    case SegKind::wait: return "wait";
  }
  return "?";
}

struct Segment {
  SegKind kind = SegKind::compute;
  SimTime begin;
  SimTime end;
  std::int32_t step = -1;   ///< application timestep the segment belongs to
  Duration noise;           ///< noise portion of a compute segment

  [[nodiscard]] Duration duration() const { return end - begin; }
  bool operator==(const Segment&) const = default;
};

/// Trace of one full simulation run.
class Trace {
 public:
  /// Index of a physical row; row 0 is the shared empty row.
  using RowId = std::uint32_t;

  /// `segments` and `steps` size both slabs in one allocation each, so
  /// reserve_rank() calls totalling at most that much never reallocate.
  /// `rows` sizes the row table: one row per rank unless given (a
  /// fast-forward run records only its active set).
  explicit Trace(int ranks, std::size_t segments = 0, std::size_t steps = 0,
                 std::optional<std::size_t> rows = std::nullopt);

  void add_segment(int rank, Segment seg) {
    check_rank(rank);
    append_segment(own_row(rank), seg);
  }
  void mark_step(int rank, std::int32_t step, SimTime when) {
    check_rank(rank);
    append_step(own_row(rank), step, when);
  }
  void set_finish(int rank, SimTime when) {
    check_rank(rank);
    set_row_finish(own_row(rank), when);
  }

  /// Pre-sizes one rank's segment and step storage so a run of known shape
  /// (the Cluster derives it from the rank's program) records without
  /// reallocating mid-simulation, and returns its row. Rows must be
  /// reserved before any write and at most once.
  RowId reserve_rank(int rank, std::size_t segments, std::size_t steps);

  /// The rank's own row, created empty (unreserved) if the rank has none:
  /// a recorder resolves it once and then writes through the row calls.
  RowId own_row(int rank);

  /// Row-level writes, the recording hot path: no rank lookup.
  void append_segment(RowId row, Segment seg) {
    IW_CHECK(seg.end >= seg.begin, "segment must have non-negative duration");
    Row& r = writable(row);
    if (r.seg_count == r.seg_capacity)
      seg_slab_.grow_row(r.seg_offset, r.seg_count, r.seg_capacity);
    std::construct_at(seg_slab_.data() + r.seg_offset + r.seg_count++, seg);
  }
  void append_step(RowId row, std::int32_t step, SimTime when) {
    Row& r = writable(row);
    IW_CHECK(step == static_cast<std::int32_t>(r.step_count),
             "steps must be marked consecutively from zero");
    if (r.step_count == r.step_capacity)
      step_slab_.grow_row(r.step_offset, r.step_count, r.step_capacity);
    std::construct_at(step_slab_.data() + r.step_offset + r.step_count++,
                      when);
  }
  void set_row_finish(RowId row, SimTime when) { writable(row).finish = when; }

  /// Makes `rank` share `source`'s physical row (segments, step marks and
  /// finish time): one row-index store. Used by the fast-forward path:
  /// every silent rank in a residue class has a byte-identical timeline,
  /// so one row serves them all. `rank` must not have recorded or reserved
  /// anything yet, and no further writes to either rank are allowed
  /// afterwards.
  void alias_rank(int rank, int source) {
    check_rank(rank);
    check_rank(source);
    IW_REQUIRE(rank != source, "cannot alias a rank to itself");
    RowId& id = row_of_[static_cast<std::size_t>(rank)];
    IW_REQUIRE(id == 0, "alias_rank target already holds data");
    id = row_of_[static_cast<std::size_t>(source)];
    has_aliases_ = true;
  }

  /// Copies `source_rank`'s timeline (segments, step marks, finish) from
  /// another trace into a new row of `rank` — the fast-forward path imports
  /// one canonical reference-ring timeline per residue class, then
  /// alias_rank()s the rest of the class onto it. `rank` must not have
  /// recorded or reserved anything yet.
  void import_rank(int rank, const Trace& source, int source_rank);

  /// True once alias_rank() has made two ranks share a physical row.
  [[nodiscard]] bool has_aliases() const { return has_aliases_; }

  [[nodiscard]] int ranks() const { return static_cast<int>(row_of_.size()); }
  /// Physical rows, the empty row included.
  [[nodiscard]] std::size_t rows() const { return rows_.size(); }
  /// The physical row `rank` reads; 0 when it recorded nothing.
  [[nodiscard]] RowId row_of(int rank) const {
    check_rank(rank);
    return row_of_[static_cast<std::size_t>(rank)];
  }
  [[nodiscard]] std::span<const Segment> segments(int rank) const {
    const Row& r = rows_[row_of(rank)];
    return {seg_slab_.data() + r.seg_offset, r.seg_count};
  }
  /// Wall-clock times at which `rank` began each timestep, indexed by step.
  [[nodiscard]] std::span<const SimTime> step_begin(int rank) const {
    const Row& r = rows_[row_of(rank)];
    return {step_slab_.data() + r.step_offset, r.step_count};
  }
  /// Time at which the rank finished its program.
  [[nodiscard]] SimTime finish(int rank) const {
    return rows_[row_of(rank)].finish;
  }
  /// Completion time of the whole run (max over rows).
  [[nodiscard]] SimTime makespan() const;

  /// Total time `rank` spent in segments of `kind`.
  [[nodiscard]] Duration total(int rank, SegKind kind) const;

  /// Heap bytes held by the trace (slabs + row tables), the dominant term
  /// of the per-rank memory budget at scale.
  [[nodiscard]] std::size_t bytes_used() const;

 private:
  /// Shared storage of one trace slab: entries are carved from uninitialised
  /// capacity and written once; only [offset, offset + count) of a row is
  /// ever read. Move-only.
  template <typename T>
  class Slab {
    static_assert(std::is_trivially_copyable_v<T> &&
                  std::is_trivially_destructible_v<T>);

   public:
    Slab() = default;
    Slab(Slab&& other) noexcept { *this = std::move(other); }
    Slab& operator=(Slab&& other) noexcept {
      std::swap(data_, other.data_);
      std::swap(size_, other.size_);
      std::swap(capacity_, other.capacity_);
      return *this;
    }
    ~Slab() { std::allocator<T>().deallocate(data_, capacity_); }

    /// Carves `n` entries off the tail and returns their offset; grows the
    /// storage (geometrically, relocating the carved extent) when it is full.
    std::size_t carve(std::size_t n);
    [[nodiscard]] T* data() const { return data_; }
    [[nodiscard]] std::size_t size() const { return size_; }
    [[nodiscard]] std::size_t capacity() const { return capacity_; }
    /// Exact allocation up front; carve() calls totalling at most `n` then
    /// never reallocate.
    void reserve(std::size_t n);
    /// Gives the full row [offset, offset + count) twice the room (at least
    /// 4) at the tail: in place when the row already ends there, else by
    /// relocating it and abandoning the vacated region (unreserved rows
    /// only — the Cluster's exact reservations never take this path).
    void grow_row(std::uint32_t& offset, std::uint32_t count,
                  std::uint32_t& capacity);

   private:
    T* data_ = nullptr;
    std::size_t size_ = 0;
    std::size_t capacity_ = 0;
  };

  /// One physical timeline: its slices of both slabs and its finish time.
  /// 32-bit offsets cap a slab at ~4.3G entries, loudly enforced — ample
  /// for 1M ranks at catalog step counts.
  struct Row {
    std::uint32_t seg_offset = 0;
    std::uint32_t seg_count = 0;
    std::uint32_t seg_capacity = 0;
    std::uint32_t step_offset = 0;
    std::uint32_t step_count = 0;
    std::uint32_t step_capacity = 0;
    SimTime finish = SimTime::zero();
  };

  void check_rank(int rank) const {
    IW_REQUIRE(rank >= 0 && rank < ranks(), "rank out of range");
  }
  Row& writable(RowId row) {
    IW_ASSERT(row != 0 && row < rows_.size(),
              "writes go to a rank's own row, never the empty row");
    return rows_[row];
  }
  /// A new row holding nothing, not yet assigned to any rank.
  RowId new_row();

  Slab<Segment> seg_slab_;
  Slab<SimTime> step_slab_;
  std::vector<RowId> row_of_;  ///< per rank
  std::vector<Row> rows_;      ///< per physical row; rows_[0] is empty
  bool has_aliases_ = false;
};

/// Content identity of two traces: every rank's segments (noise included),
/// step marks and finish time agree. Slab layout and row sharing are
/// ignored, so a fast-forward trace with aliased rows equals the full
/// simulation's.
[[nodiscard]] bool same_timelines(const Trace& a, const Trace& b);

}  // namespace iw::mpi
