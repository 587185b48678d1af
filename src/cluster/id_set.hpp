// A fixed-capacity ordered set of node ids backed by a two-level bitmap.
//
// This is the storage behind the Machine's free-capacity index. The two
// operations that matter are both on simulator hot paths: membership
// updates happen on every allocate/release (one per touched node), and
// ordered iteration happens on every candidate scan the schedulers run.
// A bitmap gives O(1) insert/erase (vs O(log n) tree rebalancing) and
// cache-friendly ascending iteration — node ids are dense
// [0, node_count), so the bitmap is also the smallest representation.
//
// On wide machines (16k+ nodes) a flat bitmap walk is no longer free:
// a nearly-empty or nearly-full set still touches every word (256 words
// at 16384 nodes) per scan, and the schedulers scan many times per pass.
// A summary level fixes that: one bit per 64-word block (4096 ids) says
// "this block has at least one member", with a cached per-block popcount
// maintaining it under O(1) insert/erase. Scans consult the summary at
// block boundaries and jump straight to the next populated block, so a
// scan costs O(set bits + blocks touched) instead of O(capacity/64).
// check_summary() re-derives the summary level from the word array;
// tests/width_index_test.cpp fuzzes iteration against a std::set.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "util/check.hpp"
#include "util/types.hpp"

namespace cosched::cluster {

class NodeIdSet {
 public:
  /// Ids per word and words per summary block. A block covers
  /// kWordsPerBlock * 64 = 4096 ids.
  static constexpr std::size_t kWordsPerBlock = 64;

  NodeIdSet() = default;
  explicit NodeIdSet(int capacity) { reset(capacity); }

  /// Empties the set and fixes the id universe to [0, capacity).
  void reset(int capacity) {
    COSCHED_CHECK(capacity >= 0);
    const std::size_t nwords = (static_cast<std::size_t>(capacity) + 63) / 64;
    const std::size_t nblocks = (nwords + kWordsPerBlock - 1) / kWordsPerBlock;
    words_.assign(nwords, 0);
    summary_.assign((nblocks + 63) / 64, 0);
    block_pop_.assign(nblocks, 0);
    capacity_ = capacity;
    size_ = 0;
  }

  int size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Inserts `id`; returns true if it was newly added.
  bool insert(NodeId id) {
    COSCHED_CHECK(id >= 0 && id < capacity_);
    const std::size_t w = word_of(id);
    std::uint64_t& word = words_[w];
    const std::uint64_t mask = std::uint64_t{1} << bit_of(id);
    if (word & mask) return false;
    word |= mask;
    ++size_;
    const std::size_t blk = w / kWordsPerBlock;
    if (block_pop_[blk]++ == 0) {
      summary_[blk / 64] |= std::uint64_t{1} << (blk % 64);
    }
    return true;
  }

  /// Removes `id`; returns true if it was present.
  bool erase(NodeId id) {
    COSCHED_CHECK(id >= 0 && id < capacity_);
    const std::size_t w = word_of(id);
    std::uint64_t& word = words_[w];
    const std::uint64_t mask = std::uint64_t{1} << bit_of(id);
    if (!(word & mask)) return false;
    word &= ~mask;
    --size_;
    const std::size_t blk = w / kWordsPerBlock;
    if (--block_pop_[blk] == 0) {
      summary_[blk / 64] &= ~(std::uint64_t{1} << (blk % 64));
    }
    return true;
  }

  // --- Ordered iteration ---------------------------------------------------

  /// Forward iteration in ascending id order (the deterministic lowest-id
  /// placement order). The current word's bits are cached in the iterator,
  /// so advancing within a word touches no memory at all; crossing words
  /// goes through the set's block-skipping scan.
  class const_iterator {
   public:
    using value_type = NodeId;

    NodeId operator*() const {
      return static_cast<NodeId>(word_ * 64 +
                                 static_cast<std::size_t>(
                                     std::countr_zero(bits_)));
    }
    const_iterator& operator++() {
      bits_ &= bits_ - 1;  // clear lowest set bit; no memory access
      if (bits_ == 0) {
        word_ = set_->next_nonempty_word(word_ + 1, &bits_);
      }
      return *this;
    }
    bool operator==(const const_iterator& other) const {
      return word_ == other.word_ && bits_ == other.bits_;
    }

   private:
    friend class NodeIdSet;
    const_iterator(const NodeIdSet* set, std::size_t word) : set_(set) {
      word_ = set_->next_nonempty_word(word, &bits_);
    }

    const NodeIdSet* set_ = nullptr;
    std::size_t word_ = 0;
    std::uint64_t bits_ = 0;
  };

  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, words_.size()); }

  friend bool operator==(const NodeIdSet& a, const NodeIdSet& b) {
    return a.capacity_ == b.capacity_ && a.words_ == b.words_;
  }

  // --- Introspection ---------------------------------------------------------

  /// Empty blocks jumped over by iteration since the last take. Pure
  /// reporting (the `index_blocks_skipped_wall` counter); never feeds a
  /// decision. The counter is a plain mutable field, so every scan of a
  /// set must run on one thread — true for the Machine's sets, which only
  /// the controller thread iterates.
  std::uint64_t take_blocks_skipped() const {
    const std::uint64_t n = blocks_skipped_;
    blocks_skipped_ = 0;
    return n;
  }

  /// Re-derives the summary bitmap and per-block popcounts from the word
  /// array and aborts on any mismatch. Fuzz/test hook.
  void check_summary() const {
    for (std::size_t blk = 0; blk < block_pop_.size(); ++blk) {
      std::uint32_t pop = 0;
      const std::size_t lo = blk * kWordsPerBlock;
      const std::size_t hi = std::min(words_.size(), lo + kWordsPerBlock);
      for (std::size_t w = lo; w < hi; ++w) {
        pop += static_cast<std::uint32_t>(std::popcount(words_[w]));
      }
      COSCHED_CHECK_MSG(pop == block_pop_[blk],
                        "block popcount drifted: block "
                            << blk << " caches " << block_pop_[blk]
                            << ", rescan found " << pop);
      const bool bit =
          (summary_[blk / 64] >> (blk % 64)) & 1u;
      COSCHED_CHECK_MSG(bit == (pop > 0),
                        "summary bit drifted on block "
                            << blk << ": bit " << bit << ", popcount " << pop);
    }
    std::uint32_t total = 0;
    for (std::uint32_t pop : block_pop_) total += pop;
    COSCHED_CHECK_MSG(total == static_cast<std::uint32_t>(size_),
                      "size drifted: cached " << size_ << ", popcounts sum to "
                                              << total);
  }

 private:
  static std::size_t word_of(NodeId id) {
    return static_cast<std::size_t>(id) / 64;
  }
  static unsigned bit_of(NodeId id) {
    return static_cast<unsigned>(id) % 64;
  }

  /// First nonempty word at index >= `w`, skipping empty 64-word blocks
  /// through the summary. Loads the winning word's bits into `*bits`;
  /// returns words_.size() (with *bits == 0) when the set has no member
  /// at or beyond `w`.
  std::size_t next_nonempty_word(std::size_t w, std::uint64_t* bits) const {
    const std::size_t nwords = words_.size();
    while (w < nwords) {
      if ((w % kWordsPerBlock) == 0) {
        // Block boundary: consult the summary and jump straight to the
        // next populated block instead of walking empty words.
        const std::size_t blk = w / kWordsPerBlock;
        std::size_t sw = blk / 64;
        std::uint64_t sbits = summary_[sw] & (~std::uint64_t{0} << (blk % 64));
        while (sbits == 0) {
          if (++sw >= summary_.size()) {
            *bits = 0;
            return nwords;
          }
          sbits = summary_[sw];
        }
        const std::size_t next_blk =
            sw * 64 + static_cast<std::size_t>(std::countr_zero(sbits));
        blocks_skipped_ += next_blk - blk;
        w = next_blk * kWordsPerBlock;
      }
      const std::uint64_t word = words_[w];
      if (word != 0) {
        *bits = word;
        return w;
      }
      ++w;
    }
    *bits = 0;
    return nwords;
  }

  std::vector<std::uint64_t> words_;
  /// Summary level: bit `b` set iff block `b` (64 consecutive words) has
  /// at least one member; maintained by the cached per-block popcounts.
  std::vector<std::uint64_t> summary_;
  std::vector<std::uint32_t> block_pop_;
  int capacity_ = 0;
  int size_ = 0;
  /// Scan telemetry; see take_blocks_skipped().
  mutable std::uint64_t blocks_skipped_ = 0;
};

}  // namespace cosched::cluster
