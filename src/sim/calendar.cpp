#include "sim/calendar.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <utility>

#include "support/error.hpp"

namespace iw::sim {

std::uint64_t Calendar::schedule(SimTime when, EventFn fn) {
  const std::int64_t t = when.ns();
  IW_REQUIRE(t >= base_, "cannot schedule before the last removed event");
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
  const Entry e{t, (seq << kSlotBits) | slot};
  if (t == base_) {
    ready_.push_back(e);  // the largest seq yet: the run stays sorted
  } else {
    const unsigned b = bucket_of(t);
    buckets_[b].push_back(e);
    occupied_ |= 1ull << b;
  }
  peak_size_ = std::max(peak_size_, ++size_);
  return seq;
}

void Calendar::reserve(std::size_t events) {
  slab_.reserve(events);
  free_slots_.reserve(events);
}

void Calendar::reset() noexcept {
  // Audit the structure the finished run left behind: corruption that never
  // surfaced as a wrong pop is still corruption, and the reuse path is
  // about to recycle this storage for the next sweep point. (noexcept: an
  // audit failure here terminates, which is the right call outside tests.)
  IW_AUDIT(audit());
  for (std::vector<Entry>& bucket : buckets_) bucket.clear();
  occupied_ = 0;
  ready_.clear();
  ready_head_ = 0;
  base_ = 0;
  size_ = 0;
  slab_.clear();  // destroys any pending closures; capacity is retained
  free_slots_.clear();
  next_seq_ = 0;
  peak_size_ = 0;
}

Event Calendar::pop() {
  IW_REQUIRE(!empty(), "pop on empty calendar");
  fill_ready(std::numeric_limits<std::int64_t>::max());
  const std::uint64_t seq_slot = take_ready();
  return Event{SimTime{base_}, seq_slot >> kSlotBits,
               std::move(slab_[seq_slot & kSlotMask])};
}

bool Calendar::pop_until(SimTime deadline, SimTime& when, EventFn& out) {
  if (!fill_ready(deadline.ns())) return false;
  when = SimTime{base_};
  out = std::move(slab_[take_ready() & kSlotMask]);
  return true;
}

unsigned Calendar::bucket_of(std::int64_t when_ns) const noexcept {
  // Both times are >= 0 and differ, so the xor is non-zero.
  return static_cast<unsigned>(
      std::bit_width(static_cast<std::uint64_t>(when_ns ^ base_)) - 1);
}

std::int64_t Calendar::lowest_bucket_min() const noexcept {
  const std::vector<Entry>& bucket = buckets_[std::countr_zero(occupied_)];
  std::int64_t m = bucket.front().when_ns;
  for (const Entry& e : bucket) m = std::min(m, e.when_ns);
  return m;
}

bool Calendar::fill_ready(std::int64_t limit) {
  if (ready_head_ < ready_.size()) return base_ <= limit;
  if (occupied_ == 0) return false;
  const std::int64_t t = lowest_bucket_min();
  if (t > limit) return false;
  // Re-base on the bucket's earliest time. Every entry of the lowest bucket
  // shares the bits above its index with both the old and the new base, so
  // the others now differ from the base in a lower bit; the higher buckets
  // keep their index. The buckets below are empty, so each one fed here
  // (and the ready run) receives a subsequence of this seq-sorted bucket.
  const unsigned from = static_cast<unsigned>(std::countr_zero(occupied_));
  occupied_ &= occupied_ - 1;
  base_ = t;
  for (const Entry& e : buckets_[from]) {
    if (e.when_ns == t) {
      ready_.push_back(e);
    } else {
      const unsigned b = bucket_of(e.when_ns);
      buckets_[b].push_back(e);
      occupied_ |= 1ull << b;
    }
  }
  buckets_[from].clear();
  return true;
}

std::uint64_t Calendar::take_ready() {
  const std::uint64_t seq_slot = ready_[ready_head_].seq_slot;
  if (++ready_head_ == ready_.size()) {
    ready_.clear();
    ready_head_ = 0;
  }
  --size_;
  const auto slot = static_cast<std::uint32_t>(seq_slot & kSlotMask);
  IW_ASSERT(slot < slab_.size(), "ready entry references a slot off the slab");
  free_slots_.push_back(slot);
  return seq_slot;
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
  auto claim = [&](const Entry& e) {
    const auto slot = static_cast<std::uint32_t>(e.seq_slot & kSlotMask);
    IW_ASSERT(slot < slab_.size(), "calendar entry references a slot off slab");
    IW_ASSERT(!used[slot], "calendar entry references a freed or shared slot");
    used[slot] = 1;
  };

  // Buckets: occupancy mirrors non-emptiness, every entry sits in the
  // bucket of its highest bit differing from the base, and each bucket is
  // in ascending seq (which is what keeps a refilled ready run sorted).
  std::size_t pending = 0;
  for (unsigned i = 0; i < kBuckets; ++i) {
    const std::vector<Entry>& bucket = buckets_[i];
    IW_ASSERT(((occupied_ >> i) & 1u) == (bucket.empty() ? 0u : 1u),
              "occupancy bit disagrees with its bucket");
    for (std::size_t k = 0; k < bucket.size(); ++k) {
      const Entry& e = bucket[k];
      IW_ASSERT(e.when_ns > base_, "bucket entry not after the base");
      IW_ASSERT(bucket_of(e.when_ns) == i, "bucket entry in the wrong bucket");
      if (k > 0) {
        IW_ASSERT(bucket[k - 1].seq_slot < e.seq_slot,
                  "bucket out of seq order");
      }
      claim(e);
    }
    pending += bucket.size();
  }

  // Ready run: at the base, ascending seq, and fully drained runs cleared.
  IW_ASSERT(ready_head_ < ready_.size() || (ready_head_ == 0 && ready_.empty()),
            "exhausted ready run not cleared");
  for (std::size_t i = ready_head_; i < ready_.size(); ++i) {
    IW_ASSERT(ready_[i].when_ns == base_, "ready entry not at the base");
    if (i > ready_head_) {
      IW_ASSERT(ready_[i - 1].seq_slot < ready_[i].seq_slot,
                "ready run out of seq order");
    }
    claim(ready_[i]);
  }
  pending += ready_.size() - ready_head_;

  IW_ASSERT(pending == size_, "pending count != buckets + ready run");
  IW_ASSERT(free_slots_.size() + size_ == slab_.size(),
            "slab accounting broken: live + free != slab extent");
#endif
}

}  // namespace iw::sim
