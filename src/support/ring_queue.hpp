// A pooled FIFO ring buffer with ordered middle erase.
//
// The transport's per-endpoint queues (posted receives, unexpected eager
// arrivals, unexpected RTS records) are tiny in steady state but churn on
// every message. std::deque pays for that churn with block allocations and
// poor locality; RingQueue keeps one contiguous power-of-two buffer that
// grows geometrically and is then reused for the rest of the simulation —
// and, via clear(), across simulation runs. Matching scans index the queue
// logically (operator[]), and erase(i) preserves FIFO order by shifting the
// shorter side, which is O(1) in the dominant match-at-the-front case.
//
// grows() counts buffer reallocations so callers can assert the
// steady-state zero-allocation property (see Transport::pool_stats()).
//
// Audit builds (support/check.hpp) add three defenses, all compiled out of
// Release:
//   * a member canary bracketing the bookkeeping fields — an overwrite
//     through a stale RingQueue* or a neighboring-object overflow trips the
//     next operation;
//   * structural checks (power-of-two capacity, head within the buffer,
//     size within capacity) via audit(), run on every mutation;
//   * poisoning: every vacated slot is overwritten with a
//     default-constructed T, so a read of logically-dead state (stale index
//     kept across a pop, reuse after clear()) yields loud zeros instead of
//     plausible stale records — and drops any resources the element held.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "support/check.hpp"
#include "support/error.hpp"

namespace iw {

template <typename T>
class RingQueue {
 public:
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t capacity() const noexcept { return buf_.size(); }

  /// Number of buffer growths since construction (heap-allocation events).
  [[nodiscard]] std::uint64_t grows() const noexcept { return grows_; }

  /// Element at logical position `i` (0 = oldest). Not noexcept: the
  /// audit-build range check throws (and must be catchable by tests).
  [[nodiscard]] T& operator[](std::size_t i) {
    IW_ASSERT(i < size_, "RingQueue index out of range");
    return buf_[slot(i)];
  }
  [[nodiscard]] const T& operator[](std::size_t i) const {
    IW_ASSERT(i < size_, "RingQueue index out of range");
    return buf_[slot(i)];
  }

  [[nodiscard]] T& front() {
    IW_ASSERT(size_ > 0, "front() on an empty RingQueue");
    return buf_[head_];
  }

  void push_back(T value) {
    IW_AUDIT(audit());
    if (size_ == buf_.size()) grow();
    buf_[slot(size_)] = std::move(value);
    ++size_;
  }

  void pop_front() {
    IW_AUDIT(audit());
    IW_ASSERT(size_ > 0, "pop_front() on an empty RingQueue");
    IW_AUDIT(buf_[head_] = T{});  // poison the vacated slot
    head_ = next(head_);
    --size_;
  }

  /// Removes the element at logical position `i`, preserving the relative
  /// order of everything else. Shifts whichever side is shorter.
  void erase(std::size_t i) {
    IW_AUDIT(audit());
    IW_ASSERT(i < size_, "erase() out of range");
    if (i < size_ - i - 1) {
      // Shift the front segment toward the erased hole, advance the head.
      for (std::size_t j = i; j > 0; --j) buf_[slot(j)] = std::move(buf_[slot(j - 1)]);
      IW_AUDIT(buf_[head_] = T{});  // poison the vacated slot
      head_ = next(head_);
    } else {
      for (std::size_t j = i; j + 1 < size_; ++j)
        buf_[slot(j)] = std::move(buf_[slot(j + 1)]);
      IW_AUDIT(buf_[slot(size_ - 1)] = T{});  // poison the vacated slot
    }
    --size_;
  }

  /// Empties the queue; the buffer (and its capacity) is retained.
  void clear() noexcept {
    IW_AUDIT(audit());
    IW_AUDIT(for (std::size_t i = 0; i < size_; ++i) buf_[slot(i)] = T{});
    head_ = 0;
    size_ = 0;
  }

  /// Structural self-check (audit builds only; a no-op otherwise). Every
  /// mutating operation runs it, and tests may call it directly.
  void audit() const {
#if IW_AUDIT_ENABLED
    IW_ASSERT(canary_ == kCanary,
              "RingQueue canary clobbered (overwrite through stale pointer?)");
    IW_ASSERT(buf_.empty() || (buf_.size() & (buf_.size() - 1)) == 0,
              "RingQueue capacity is not a power of two");
    IW_ASSERT(size_ <= buf_.size(), "RingQueue size exceeds capacity");
    IW_ASSERT(buf_.empty() ? head_ == 0 : head_ < buf_.size(),
              "RingQueue head outside the buffer");
#endif
  }

 private:
  [[nodiscard]] std::size_t slot(std::size_t i) const noexcept {
    return (head_ + i) & (buf_.size() - 1);
  }
  [[nodiscard]] std::uint32_t next(std::uint32_t i) const noexcept {
    return static_cast<std::uint32_t>((i + 1) & (buf_.size() - 1));
  }

  void grow() {
    const std::size_t new_cap = buf_.empty() ? 8 : buf_.size() * 2;
    IW_CHECK(new_cap <= std::numeric_limits<std::uint32_t>::max(),
             "RingQueue capacity exceeds its 32-bit indices");
    std::vector<T> bigger(new_cap);
    for (std::size_t i = 0; i < size_; ++i) bigger[i] = std::move(buf_[slot(i)]);
    buf_ = std::move(bigger);
    head_ = 0;
    ++grows_;
  }

#if IW_AUDIT_ENABLED
  static constexpr std::uint64_t kCanary = 0xA11D17C4'1B5EE7EDull;
  std::uint64_t canary_ = kCanary;
#endif
  // 32-bit bookkeeping keeps the transport's per-rank state small; grow()
  // refuses a capacity past 2^32 - 1.
  std::vector<T> buf_;  ///< power-of-two sized (or empty)
  std::uint32_t head_ = 0;
  std::uint32_t size_ = 0;
  std::uint32_t grows_ = 0;
};

}  // namespace iw
