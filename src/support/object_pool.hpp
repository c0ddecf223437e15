// A grow-only pool of non-movable objects with stable addresses.
//
// The Cluster wires Process and BandwidthDomain objects by raw pointer into
// the transport's rank tables, and the transport holds its claimed rank
// states by reference across claims, so their addresses must survive growth;
// and per-object unique_ptr storage is exactly the allocation-per-rank
// pattern the SoA refactor removes. The pool allocates fixed-size chunks
// (one allocation per 64 objects instead of one per object), constructs in
// place, and never moves or destroys an element until the pool itself dies
// — reuse across runs goes through the element's own reset() instead.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "support/error.hpp"

namespace iw::support {

template <typename T>
class ObjectPool {
 public:
  ObjectPool() = default;
  ObjectPool(const ObjectPool&) = delete;
  ObjectPool& operator=(const ObjectPool&) = delete;

  ~ObjectPool() {
    for (std::size_t i = size_; i > 0; --i) slot(i - 1)->~T();
  }

  /// Constructs a new element in place and returns it. Never invalidates
  /// existing references.
  template <typename... Args>
  T& emplace(Args&&... args) {
    if (size_ == chunks_.size() * kChunkSize)
      chunks_.push_back(std::make_unique<Chunk>());
    T* obj = new (slot(size_)) T(std::forward<Args>(args)...);
    ++size_;
    return *obj;
  }

  [[nodiscard]] T& operator[](std::size_t i) {
    IW_REQUIRE(i < size_, "object pool index out of range");
    return *slot(i);
  }
  [[nodiscard]] const T& operator[](std::size_t i) const {
    IW_REQUIRE(i < size_, "object pool index out of range");
    return *std::launder(reinterpret_cast<const T*>(
        chunks_[i / kChunkSize]->storage + (i % kChunkSize) * sizeof(T)));
  }

  [[nodiscard]] std::size_t size() const { return size_; }

  /// Heap bytes held (chunk storage + chunk table).
  [[nodiscard]] std::size_t bytes_used() const {
    return chunks_.size() * sizeof(Chunk) +
           chunks_.capacity() * sizeof(std::unique_ptr<Chunk>);
  }

 private:
  static constexpr std::size_t kChunkSize = 64;
  struct Chunk {
    alignas(T) std::byte storage[kChunkSize * sizeof(T)];
  };

  [[nodiscard]] T* slot(std::size_t i) {
    return std::launder(reinterpret_cast<T*>(
        chunks_[i / kChunkSize]->storage + (i % kChunkSize) * sizeof(T)));
  }

  std::vector<std::unique_ptr<Chunk>> chunks_;
  std::size_t size_ = 0;
};

}  // namespace iw::support
