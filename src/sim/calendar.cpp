#include "sim/calendar.hpp"

#include <algorithm>
#include <utility>

#include "support/error.hpp"

namespace iw::sim {

std::uint64_t Calendar::schedule(SimTime when, EventFn fn) {
  const std::uint64_t seq = next_seq_++;
  IW_CHECK(seq < (1ull << (64 - kSlotBits)), "calendar sequence exhausted");
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slab_[slot] = std::move(fn);
  } else {
    IW_CHECK(slab_.size() < kSlotMask,
             "calendar slab exhausted (>16M pending)");
    slot = static_cast<std::uint32_t>(slab_.size());
    slab_.push_back(std::move(fn));
  }
  heap_.push_back(Entry{when.ns(), (seq << kSlotBits) | slot});
  sift_up(heap_.size() - 1);
  peak_size_ = std::max(peak_size_, heap_.size());
  return seq;
}

void Calendar::reserve(std::size_t events) {
  heap_.reserve(events);
  slab_.reserve(events);
  free_slots_.reserve(events);
}

void Calendar::reset() noexcept {
  // Audit the structure the finished run left behind: corruption that never
  // surfaced as a wrong pop is still corruption, and the reuse path is
  // about to recycle this storage for the next sweep point. (noexcept: an
  // audit failure here terminates, which is the right call outside tests.)
  IW_AUDIT(audit());
  heap_.clear();
  slab_.clear();  // destroys any pending closures; capacity is retained
  free_slots_.clear();
  next_seq_ = 0;
  peak_size_ = 0;
}

SimTime Calendar::next_time() const {
  IW_REQUIRE(!heap_.empty(), "next_time on empty calendar");
  return SimTime{heap_.front().when_ns};
}

Event Calendar::pop() {
  IW_REQUIRE(!heap_.empty(), "pop on empty calendar");
  const Entry root = take_root();
  return Event{SimTime{root.when_ns}, root.seq_slot >> kSlotBits,
               std::move(slab_[root.seq_slot & kSlotMask])};
}

bool Calendar::pop_if_at(SimTime when, EventFn& out) {
  if (heap_.empty() || heap_.front().when_ns != when.ns()) return false;
  out = std::move(slab_[take_root().seq_slot & kSlotMask]);
  return true;
}

Calendar::Entry Calendar::take_root() {
  const Entry root = heap_.front();
  const auto slot = static_cast<std::uint32_t>(root.seq_slot & kSlotMask);
  IW_ASSERT(slot < slab_.size(), "heap root references a slot off the slab");
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (heap_.size() > 1) sift_down(0);
  free_slots_.push_back(slot);
  return root;
}

void Calendar::sift_up(std::size_t i) {
  const Entry e = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!earlier(e, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

void Calendar::sift_down(std::size_t i) {
  const std::size_t n = heap_.size();
  const Entry e = heap_[i];
  for (;;) {
    const std::size_t first = i * kArity + 1;
    if (first >= n) break;
    const std::size_t last = std::min(first + kArity, n);
    std::size_t best = first;
    for (std::size_t c = first + 1; c < last; ++c) {
      if (earlier(heap_[c], heap_[best])) best = c;
    }
    if (!earlier(heap_[best], e)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = e;
}

void Calendar::audit() const {
#if IW_AUDIT_ENABLED
  // Slab free-list integrity: every free slot is on the slab, and no slot
  // is freed twice.
  std::vector<std::uint8_t> used(slab_.size(), 0);
  for (const std::uint32_t slot : free_slots_) {
    IW_ASSERT(slot < slab_.size(), "free list references a slot off the slab");
    IW_ASSERT(!used[slot], "slot appears twice on the free list");
    used[slot] = 1;
  }

  // Heap order, and every live slot referenced by exactly one heap entry.
  for (std::size_t i = 0; i < heap_.size(); ++i) {
    if (i > 0) {
      IW_ASSERT(!earlier(heap_[i], heap_[(i - 1) / kArity]),
                "heap order property violated");
    }
    const auto slot = static_cast<std::uint32_t>(heap_[i].seq_slot & kSlotMask);
    IW_ASSERT(slot < slab_.size(), "heap entry references a slot off the slab");
    IW_ASSERT(!used[slot], "heap entry references a freed or shared slot");
    used[slot] = 1;
  }
  IW_ASSERT(free_slots_.size() + heap_.size() == slab_.size(),
            "slab accounting broken: live + free != slab extent");
#endif
}

}  // namespace iw::sim
