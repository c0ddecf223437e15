// The event calendar: a deterministic min-heap of future events.
//
// Layout: a 4-ary implicit heap of 16-byte entries over a slab of EventFn
// closures. An entry packs (when, seq, slot) into two words: the timestamp,
// and seq<<24 | slot. Since sequence numbers are unique, comparing the
// packed word compares seq — the slot bits never decide — so the heap order
// is exactly the deterministic (time, seq) contract. Sift operations move
// only these 16-byte entries; closures stay put in their slab slot from
// schedule() to pop(), where they are moved (never copied) out to the
// caller. The 4-ary shape halves the tree depth of a binary heap and keeps
// a node's children inside one or two cache lines. Freed slots are recycled
// LIFO so a steady-state simulation (schedule/pop churn at a roughly
// constant horizon) touches a small, cache-resident working set.
//
// Every pending event is its own heap entry, same-time events included:
// the paper's rings (an injected delay, rendezvous handshakes, fine-grained
// noise) make nearly every timestamp distinct, so there is no side index
// for equal timestamps.
//
// Capacity: 24 slot bits allow 16.7M simultaneously pending events and 40
// seq bits allow ~1.1e12 events per run; both are enforced loudly.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/event.hpp"
#include "support/check.hpp"

namespace iw::sim {

class Calendar {
 public:
  /// Enqueues `fn` to run at `when`. Returns the event's sequence number
  /// (useful only for diagnostics; events cannot be cancelled — cancellation
  /// is expressed by the closure checking its own validity flag).
  std::uint64_t schedule(SimTime when, EventFn fn);

  /// Pre-sizes the slab, heap, and free list for `events` simultaneously
  /// pending events, so a run of known shape never reallocates.
  void reserve(std::size_t events);

  /// Discards every pending event and restores the pristine state (seq
  /// counter and peak tracking included) while keeping all heap capacity —
  /// the heap, slab and free list stay allocated. A reset calendar behaves
  /// exactly like a freshly constructed one, which is what makes cluster
  /// reuse byte-deterministic.
  void reset() noexcept;

  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }

  /// Largest number of simultaneously pending events seen so far.
  [[nodiscard]] std::size_t peak_size() const noexcept { return peak_size_; }

  /// Time of the earliest pending event. Requires !empty().
  [[nodiscard]] SimTime next_time() const;

  /// Removes and returns the earliest event. Requires !empty().
  Event pop();

  /// Fast path for draining a same-timestamp batch: if the earliest pending
  /// event fires exactly at `when`, moves its closure into `out` and returns
  /// true; otherwise leaves `out` untouched and returns false. Equal-time
  /// events come out in ascending seq order, so a drain loop preserves the
  /// deterministic (time, seq) contract.
  bool pop_if_at(SimTime when, EventFn& out);

  /// Full structural audit (audit builds only; a no-op otherwise). Checks
  /// the heap order property, the slab free list (no duplicates, on the
  /// slab), and that every live slot is referenced by exactly one heap
  /// entry, so live + free == slab extent. O(n); called from Engine::reset
  /// and the audit-mode tests, never per event.
  void audit() const;

 private:
  static constexpr std::size_t kArity = 4;
  static constexpr unsigned kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (1ull << kSlotBits) - 1;

  struct Entry {
    std::int64_t when_ns;
    std::uint64_t seq_slot;  ///< seq << kSlotBits | slab slot
  };

  static bool earlier(const Entry& a, const Entry& b) noexcept {
    if (a.when_ns != b.when_ns) return a.when_ns < b.when_ns;
    return a.seq_slot < b.seq_slot;
  }

  /// Removes the root entry, releases its slot and returns it.
  Entry take_root();
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);

  std::vector<Entry> heap_;
  std::vector<EventFn> slab_;  ///< closure storage, indexed by slot
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t next_seq_ = 0;
  std::size_t peak_size_ = 0;
};

}  // namespace iw::sim
