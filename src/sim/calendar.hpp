// The event calendar: a deterministic monotone priority queue of future
// events.
//
// Layout: a monotone radix heap of 16-byte entries over a slab of EventFn
// closures. An entry packs (when, seq, slot) into two words: the timestamp,
// and seq<<24 | slot. Since sequence numbers are unique, comparing the
// packed word compares seq — the slot bits never decide. Closures stay put
// in their slab slot from schedule() to removal, where they are moved (never
// copied) out to the caller. Freed slots are recycled LIFO so a steady-state
// simulation (schedule/pop churn at a roughly constant horizon) touches a
// small, cache-resident working set.
//
// The heap exploits that the simulated clock never goes backwards. Its
// *base* is the time of the last removed event, and no event may be
// scheduled before it. An entry later than the base lives in bucket i,
// where i is the highest bit in which its time differs from the base; a
// 64-bit mask marks the non-empty buckets. Entries exactly at the base form
// the *ready run*, in ascending seq. When the ready run empties, removal
// takes the lowest non-empty bucket, moves the base to its earliest time,
// and redistributes it: the entries at the new base become the ready run,
// every other one drops to a strictly lower bucket. So an entry moves at
// most once per bit of its distance from the base, and a removal costs
// amortized O(log Δt) instead of a heap's O(log n) sift.
//
// Every bucket is in ascending seq: a schedule appends the largest seq
// yet, and a redistribution feeds only empty buckets (all lower than the
// one it drains), in order. So a refilled ready run is already sorted, and
// a same-time schedule appending to it keeps it sorted. Only removing an
// event moves the base: a failing pop_until() never does, so after
// run_until(deadline) the engine may still schedule anywhere in
// [now, next pending time).
//
// The order is exactly the deterministic (time, seq) contract. The paper's
// rings (an injected delay, rendezvous handshakes, fine-grained noise) make
// nearly every timestamp distinct, so ready runs are usually one entry long.
//
// Capacity: 24 slot bits allow 16.7M simultaneously pending events and 40
// seq bits allow ~1.1e12 events per run; both are enforced loudly.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "sim/event.hpp"
#include "support/check.hpp"

namespace iw::sim {

class Calendar {
 public:
  /// Enqueues `fn` to run at `when`, which must not precede the time of the
  /// last removed event (0 on a fresh calendar). Returns the event's
  /// sequence number (useful only for diagnostics; events cannot be
  /// cancelled — cancellation is expressed by the closure checking its own
  /// validity flag).
  std::uint64_t schedule(SimTime when, EventFn fn);

  /// Pre-sizes the slab and free list for `events` simultaneously pending
  /// events. The buckets grow on demand and keep their capacity across
  /// reset().
  void reserve(std::size_t events);

  /// Discards every pending event and restores the pristine state (base,
  /// seq counter and peak tracking included) while keeping all capacity —
  /// buckets, ready run, slab and free list stay allocated. A reset
  /// calendar behaves exactly like a freshly constructed one, which is what
  /// makes cluster reuse byte-deterministic.
  void reset() noexcept;

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Largest number of simultaneously pending events seen so far.
  [[nodiscard]] std::size_t peak_size() const noexcept { return peak_size_; }

  /// Removes and returns the earliest event. Requires !empty().
  Event pop();

  /// The run loop's one call per event: if the earliest pending event fires
  /// at or before `deadline`, stores its time in `when`, moves its closure
  /// into `out` and returns true; otherwise leaves both (and the base)
  /// untouched and returns false. Equal-time events come out in ascending
  /// seq order.
  bool pop_until(SimTime deadline, SimTime& when, EventFn& out);

  /// Full structural audit (audit builds only; a no-op otherwise). Checks
  /// that every bucket entry's highest bit differing from the base is its
  /// bucket index, that every bucket and the ready run are in ascending seq
  /// and the ready run sits at the base,
  /// that an occupancy bit is set iff its bucket is non-empty, that the
  /// pending count is the buckets plus the ready run, and the slab: no
  /// free-list duplicates, one entry per live slot, live + free == slab
  /// extent. O(n); called from Engine::reset and the audit-mode tests,
  /// never per event.
  void audit() const;

 private:
  static constexpr unsigned kBuckets = 64;
  static constexpr unsigned kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (1ull << kSlotBits) - 1;

  struct Entry {
    std::int64_t when_ns;
    std::uint64_t seq_slot;  ///< seq << kSlotBits | slab slot
  };

  /// Bucket of an entry later than the base: its highest differing bit.
  [[nodiscard]] unsigned bucket_of(std::int64_t when_ns) const noexcept;
  /// Earliest time in the lowest non-empty bucket. Requires one.
  [[nodiscard]] std::int64_t lowest_bucket_min() const noexcept;
  /// Ensures a non-empty ready run if the earliest pending event fires at
  /// or before `limit`, moving the base only then; returns whether it did.
  bool fill_ready(std::int64_t limit);
  /// Removes the head of the ready run, releases its slot and returns its
  /// packed seq/slot word.
  std::uint64_t take_ready();

  std::array<std::vector<Entry>, kBuckets> buckets_;
  std::uint64_t occupied_ = 0;  ///< bit i set iff buckets_[i] is non-empty
  std::vector<Entry> ready_;    ///< entries at base_, ascending seq
  std::size_t ready_head_ = 0;  ///< ready_[0, ready_head_) already removed
  std::int64_t base_ = 0;       ///< time of the last removed event
  std::size_t size_ = 0;
  std::vector<EventFn> slab_;  ///< closure storage, indexed by slot
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t next_seq_ = 0;
  std::size_t peak_size_ = 0;
};

}  // namespace iw::sim
