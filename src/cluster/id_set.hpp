// A fixed-capacity ordered set of node ids backed by a flat bitmap.
//
// This is the storage behind the Machine's free-capacity index. The two
// operations that matter are both on simulator hot paths: membership
// updates happen on every allocate/release (one per touched node), and
// ordered iteration happens on every candidate scan the schedulers run.
// A bitmap gives O(1) insert/erase (vs O(log n) tree rebalancing) and
// cache-friendly ascending iteration — node ids are dense
// [0, node_count), so the bitmap is also the smallest representation.
// A scan walks the words and skips empty ones; at 16384 nodes that is
// 256 words, four cache lines per 1024 ids. tests/width_index_test.cpp
// fuzzes iteration against a std::set.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "util/check.hpp"
#include "util/types.hpp"

namespace cosched::cluster {

class NodeIdSet {
 public:
  NodeIdSet() = default;
  explicit NodeIdSet(int capacity) { reset(capacity); }

  /// Empties the set and fixes the id universe to [0, capacity).
  void reset(int capacity) {
    COSCHED_CHECK(capacity >= 0);
    words_.assign((static_cast<std::size_t>(capacity) + 63) / 64, 0);
    capacity_ = capacity;
    size_ = 0;
  }

  int size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Inserts `id`; returns true if it was newly added.
  bool insert(NodeId id) {
    COSCHED_CHECK(id >= 0 && id < capacity_);
    std::uint64_t& word = words_[word_of(id)];
    const std::uint64_t mask = std::uint64_t{1} << bit_of(id);
    if (word & mask) return false;
    word |= mask;
    ++size_;
    return true;
  }

  /// Removes `id`; returns true if it was present.
  bool erase(NodeId id) {
    COSCHED_CHECK(id >= 0 && id < capacity_);
    std::uint64_t& word = words_[word_of(id)];
    const std::uint64_t mask = std::uint64_t{1} << bit_of(id);
    if (!(word & mask)) return false;
    word &= ~mask;
    --size_;
    return true;
  }

  // --- Ordered iteration ---------------------------------------------------

  /// Forward iteration in ascending id order (the deterministic lowest-id
  /// placement order). The current word's bits are cached in the iterator,
  /// so advancing within a word touches no memory at all.
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

 private:
  static std::size_t word_of(NodeId id) {
    return static_cast<std::size_t>(id) / 64;
  }
  static unsigned bit_of(NodeId id) {
    return static_cast<unsigned>(id) % 64;
  }

  /// First nonempty word at index >= `w`. Loads its bits into `*bits`;
  /// returns words_.size() (with *bits == 0) when the set has no member
  /// at or beyond `w`.
  std::size_t next_nonempty_word(std::size_t w, std::uint64_t* bits) const {
    for (; w < words_.size(); ++w) {
      if (words_[w] != 0) {
        *bits = words_[w];
        return w;
      }
    }
    *bits = 0;
    return words_.size();
  }

  std::vector<std::uint64_t> words_;
  int capacity_ = 0;
  int size_ = 0;
};

}  // namespace cosched::cluster
