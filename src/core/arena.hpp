// Per-pass bump allocator for decision-path scratch.
//
// The scheduler hot paths need short-lived arrays whose size depends on
// the node or resident being examined (co-run stress vectors, candidate
// staging): a std::vector per call means one malloc/free pair per gate
// evaluation, and at 16k+ nodes the general-purpose allocator both costs
// CPU and leaves per-thread residue that never returns to the OS. A
// PassArena replaces those with pointer-bump allocation out of chunked
// storage that is carved once and recycled forever: a Frame (RAII mark /
// rewind) brackets each call site, so the same few kilobytes serve every
// gate of every pass, and reset() rewinds the whole arena at a pass
// boundary.
//
// Determinism: the arena hands out storage, never values — no scheduling
// decision can observe where scratch lives. Thread safety: none; each
// owner keeps its own arena (the co-allocation gate's lives in its
// CoAllocator, the execution model's on the controller thread), both
// confined to one simulation cell. bytes_high_water() feeds the
// `arena_bytes_wall` gauge — reporting only, excluded from byte-compared
// registry dumps by the `_wall` suffix convention.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "util/check.hpp"

namespace cosched::core {

class PassArena {
 public:
  PassArena() = default;
  PassArena(const PassArena&) = delete;
  PassArena& operator=(const PassArena&) = delete;

  /// RAII scope: allocations made through the frame (or directly on the
  /// arena while the frame is alive) are rewound when it is destroyed.
  /// Frames nest like stack frames; destroy in reverse creation order.
  class Frame {
   public:
    explicit Frame(PassArena& arena)
        : arena_(arena), chunk_(arena.chunk_), used_(arena.used_) {}
    ~Frame() {
      arena_.chunk_ = chunk_;
      arena_.used_ = used_;
    }
    Frame(const Frame&) = delete;
    Frame& operator=(const Frame&) = delete;

    template <typename T>
    std::span<T> alloc_span(std::size_t n) {
      return arena_.alloc_span<T>(n);
    }

   private:
    PassArena& arena_;
    std::size_t chunk_;
    std::size_t used_;
  };

  Frame frame() { return Frame(*this); }

  /// Uninitialized storage for `n` objects of T. T must be trivially
  /// destructible (nothing runs at rewind) and trivially copyable (the
  /// arena is raw bytes, not an object store).
  template <typename T>
  std::span<T> alloc_span(std::size_t n) {
    static_assert(std::is_trivially_destructible_v<T> &&
                      std::is_trivially_copyable_v<T>,
                  "PassArena hands out raw storage; nontrivial types would "
                  "leak their cleanup");
    static_assert(alignof(T) <= alignof(std::max_align_t));
    if (n == 0) return {};
    const std::size_t bytes = n * sizeof(T);
    void* p = alloc_bytes(bytes, alignof(T));
    return {static_cast<T*>(p), n};
  }

  /// Rewinds the whole arena to empty (pass boundary). Keeps every chunk:
  /// after the first pass warms the high-water mark, no allocator traffic
  /// remains.
  void reset() {
    chunk_ = 0;
    used_ = 0;
  }

  /// Bytes currently handed out (across live frames).
  std::size_t bytes_used() const {
    std::size_t n = used_;
    for (std::size_t i = 0; i < chunk_; ++i) n += chunks_[i].size;
    return n;
  }

  /// Largest bytes_used() ever observed — the arena's working-set size.
  /// Reporting only (`arena_bytes_wall`); never feeds a decision.
  std::size_t bytes_high_water() const { return high_water_; }

  /// Total chunk storage owned (>= high water; test/diagnostic hook).
  std::size_t bytes_reserved() const {
    std::size_t n = 0;
    for (const Chunk& c : chunks_) n += c.size;
    return n;
  }

 private:
  static constexpr std::size_t kMinChunk = 16 * 1024;

  struct Chunk {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
  };

  void* alloc_bytes(std::size_t bytes, std::size_t align) {
    for (;;) {
      if (chunk_ < chunks_.size()) {
        Chunk& c = chunks_[chunk_];
        const std::size_t aligned = (used_ + align - 1) & ~(align - 1);
        if (aligned + bytes <= c.size) {
          used_ = aligned + bytes;
          track_high_water();
          return c.data.get() + aligned;
        }
        // Chunk full: advance. The skipped tail is counted as used by
        // bytes_used(), which is what makes Frame rewind O(1).
        ++chunk_;
        used_ = 0;
        continue;
      }
      std::size_t want = chunks_.empty() ? kMinChunk : chunks_.back().size * 2;
      while (want < bytes + align) want *= 2;
      chunks_.push_back(
          Chunk{std::make_unique<std::byte[]>(want), want});
      // loop re-enters with chunk_ == chunks_.size() - 1
      COSCHED_CHECK(chunk_ == chunks_.size() - 1);
      used_ = 0;
    }
  }

  void track_high_water() {
    const std::size_t now = bytes_used();
    if (now > high_water_) high_water_ = now;
  }

  std::vector<Chunk> chunks_;
  std::size_t chunk_ = 0;  ///< index of the chunk being bumped
  std::size_t used_ = 0;   ///< bytes consumed in chunks_[chunk_]
  std::size_t high_water_ = 0;
};

}  // namespace cosched::core
