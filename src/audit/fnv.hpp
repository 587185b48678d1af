// FNV-1a 64-bit hashing for determinism audits.
//
// The event/decision stream of a simulation run is folded into a single
// 64-bit digest; two runs of the same seeded simulation must produce the
// same digest or the simulator has a nondeterminism bug. FNV-1a is chosen
// for its fully specified output (stable across platforms and standard
// libraries, unlike std::hash) and trivial incremental form.
#pragma once

#include <bit>
#include <cstdint>

namespace cosched::audit {

class Fnv64 {
 public:
  static constexpr std::uint64_t kOffsetBasis = 0xcbf29ce484222325ULL;
  static constexpr std::uint64_t kPrime = 0x100000001b3ULL;

  std::uint64_t digest() const { return hash_; }

  Fnv64& mix_byte(std::uint8_t b) {
    hash_ = (hash_ ^ b) * kPrime;
    return *this;
  }

  Fnv64& mix_u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      mix_byte(static_cast<std::uint8_t>(v >> (8 * i)));
    }
    return *this;
  }

  Fnv64& mix_i64(std::int64_t v) {
    return mix_u64(static_cast<std::uint64_t>(v));
  }

  /// Hashes the exact bit pattern; NaN payloads and signed zeros count as
  /// distinct, which is what a determinism check wants.
  Fnv64& mix_double(double v) { return mix_u64(std::bit_cast<std::uint64_t>(v)); }

 private:
  std::uint64_t hash_ = kOffsetBasis;
};

}  // namespace cosched::audit
