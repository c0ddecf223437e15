// Streaming FNV-1a 64-bit hashing: short, stable fingerprints of byte
// streams (the benchmark's records fingerprint, the noise-profile tests).
// FNV-1a is not cryptographic — nothing here defends against adversarial
// collisions, only against accidental ones.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace iw {

class Fnv1a64 {
 public:
  static constexpr std::uint64_t kOffsetBasis = 0xcbf29ce484222325ull;
  static constexpr std::uint64_t kPrime = 0x100000001b3ull;

  Fnv1a64& update(const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      state_ ^= bytes[i];
      state_ *= kPrime;
    }
    return *this;
  }

  Fnv1a64& update(const std::string& s) { return update(s.data(), s.size()); }

  [[nodiscard]] std::uint64_t digest() const { return state_; }

 private:
  std::uint64_t state_ = kOffsetBasis;
};

/// One-shot convenience.
[[nodiscard]] inline std::uint64_t fnv1a64(const std::string& s) {
  return Fnv1a64{}.update(s).digest();
}

/// The 16-hex-digit form of a hash.
[[nodiscard]] inline std::string hash_hex(std::uint64_t h) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kDigits[h & 0xF];
    h >>= 4;
  }
  return out;
}

}  // namespace iw
