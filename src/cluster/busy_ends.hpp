// Order statistics over the busy nodes' cached walltime ends.
//
// The Machine mirrors every busy node's latest resident walltime end into
// a multiset ordered ascending; the backfill strategies read it as
// "k-th smallest free time" (kth), "how many nodes are free by t"
// (count_leq), and an ascending walk (for_each, feeding build_profile).
// Values are SimTime only — equal ends are interchangeable — so any
// structure that preserves the multiset preserves every scheduling
// decision bit-for-bit.
//
// BusyEnds keeps calendar-style time buckets (a power-of-two quantum,
// 2^20 us ~ 1 s by default) with a Fenwick tree over per-bucket counts.
// insert/erase update one small sorted bucket plus O(log buckets) Fenwick
// nodes; kth descends the tree in O(log buckets); count_leq is a prefix
// sum plus an in-bucket upper_bound. When a value lands outside the
// current window the structure deterministically rebuilds around the
// live span (growing the quantum if the span would exceed the bucket
// cap), so the layout is a pure function of the multiset contents and
// the incoming value — never of wall-clock state.
//
// Within a bucket, equal values form runs; insert lands at upper_bound
// (run end) and erase removes the element *before* upper_bound (run
// tail), so the all-equal worst case — every node busy with the same
// walltime end — costs O(1) per update instead of a sorted vector's
// O(busy). Ties need no further care: entries are values, not keys, so
// "which equal element" is unobservable. kTimeInfinity (the default for
// direct machine users in tests) is held in a plain counter — infinite
// ends never enter the bucket window, keeping the window tight around
// live finite ends. tests/width_index_test.cpp fuzzes it against a
// sorted-vector oracle after every operation.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "util/check.hpp"
#include "util/types.hpp"

namespace cosched::cluster {

/// Fenwick-indexed calendar-bucket multiset (see file comment).
class BusyEnds {
 public:
  int size() const { return finite_ + inf_; }

  void insert(SimTime end) {
    if (end == kTimeInfinity) {
      ++inf_;
      return;
    }
    COSCHED_CHECK_MSG(end >= 0, "busy end must be non-negative, got " << end);
    if (buckets_.empty() || end < base_ || bucket_of(end) >= buckets_.size()) {
      rebuild(end);
    }
    const std::size_t b = bucket_of(end);
    std::vector<SimTime>& v = buckets_[b];
    v.insert(std::upper_bound(v.begin(), v.end(), end), end);
    fenwick_add(b, +1);
    ++finite_;
  }

  void erase(SimTime end) {
    if (end == kTimeInfinity) {
      COSCHED_CHECK_MSG(inf_ > 0, "busy-ends multiset lost entry " << end);
      --inf_;
      return;
    }
    COSCHED_CHECK_MSG(!buckets_.empty() && end >= base_ &&
                          bucket_of(end) < buckets_.size(),
                      "busy-ends multiset lost entry " << end);
    const std::size_t b = bucket_of(end);
    std::vector<SimTime>& v = buckets_[b];
    const auto it = std::upper_bound(v.begin(), v.end(), end);
    COSCHED_CHECK_MSG(it != v.begin() && *(it - 1) == end,
                      "busy-ends multiset lost entry " << end);
    v.erase(it - 1);
    fenwick_add(b, -1);
    --finite_;
  }

  /// The k-th smallest end, 0-based. Fenwick descend: after the loop,
  /// `pos` is the largest 1-based prefix whose count is <= k, i.e. the
  /// 0-based index of the bucket holding rank k, and `rem` the rank
  /// within that bucket.
  SimTime kth(int k) const {
    COSCHED_CHECK(k >= 0 && k < size());
    if (k >= finite_) return kTimeInfinity;
    std::size_t pos = 0;
    int rem = k;
    for (std::size_t step = top_; step > 0; step >>= 1) {
      const std::size_t next = pos + step;
      if (next <= buckets_.size() && fenwick_[next] <= rem) {
        pos = next;
        rem -= fenwick_[next];
      }
    }
    return buckets_[pos][static_cast<std::size_t>(rem)];
  }

  /// Number of ends <= t.
  int count_leq(SimTime t) const {
    int n = (t == kTimeInfinity) ? inf_ : 0;
    if (finite_ == 0 || t < base_) return n;
    const std::size_t b = bucket_of(t);
    if (b >= buckets_.size()) return n + finite_;
    n += fenwick_prefix(b);
    const std::vector<SimTime>& v = buckets_[b];
    n += static_cast<int>(std::upper_bound(v.begin(), v.end(), t) - v.begin());
    return n;
  }

  /// Ascending walk over every end (buckets in window order, then the
  /// infinite run).
  template <typename F>
  void for_each(F&& f) const {
    for (const std::vector<SimTime>& v : buckets_) {
      for (SimTime end : v) f(end);
    }
    for (int i = 0; i < inf_; ++i) f(kTimeInfinity);
  }

  std::vector<SimTime> to_sorted_vector() const {
    std::vector<SimTime> out;
    out.reserve(static_cast<std::size_t>(size()));
    // This for_each is the sequential walk above, not the runner seam.
    for_each([&out](SimTime end) { out.push_back(end); });  // cosched-lint: cell-local(out)
    return out;
  }

  /// Test hooks: window geometry, for asserting rebuild determinism.
  SimTime window_base() const { return base_; }
  int window_shift() const { return shift_; }
  int bucket_count() const { return static_cast<int>(buckets_.size()); }

 private:
  static constexpr int kDefaultShift = 20;  // 2^20 us ~ 1.05 s buckets
  static constexpr std::size_t kMaxBuckets = std::size_t{1} << 16;

  std::size_t bucket_of(SimTime end) const {
    return static_cast<std::size_t>((end - base_) >> shift_);
  }

  void fenwick_add(std::size_t b, int delta) {
    for (std::size_t i = b + 1; i <= buckets_.size(); i += i & (~i + 1)) {
      fenwick_[i] += delta;
    }
  }

  /// Count in buckets [0, b) — the 1-based Fenwick prefix of index b.
  int fenwick_prefix(std::size_t b) const {
    int n = 0;
    for (std::size_t i = b; i > 0; i -= i & (~i + 1)) n += fenwick_[i];
    return n;
  }

  /// Re-bases the window so `incoming` fits: collects the live finite
  /// ends, aligns the base to the quantum below the smallest value, and
  /// sizes the bucket array to twice the live span (power of two, at
  /// least 64) so a sim advancing through time re-bases rarely. If the
  /// span would exceed the bucket cap, the quantum grows until it fits.
  /// Deterministic: a pure function of the multiset contents + incoming.
  void rebuild(SimTime incoming) {
    rebuild_scratch_.clear();
    rebuild_scratch_.reserve(static_cast<std::size_t>(finite_));
    for (const std::vector<SimTime>& v : buckets_) {
      rebuild_scratch_.insert(rebuild_scratch_.end(), v.begin(), v.end());
    }
    SimTime lo = incoming;
    SimTime hi = incoming;
    if (!rebuild_scratch_.empty()) {
      lo = std::min(lo, rebuild_scratch_.front());
      hi = std::max(hi, rebuild_scratch_.back());
    }
    shift_ = kDefaultShift;
    std::size_t needed;
    for (;;) {
      needed = static_cast<std::size_t>((hi - lo) >> shift_) + 1;
      if (needed <= kMaxBuckets) break;
      ++shift_;
    }
    std::size_t nalloc = std::bit_ceil(std::max<std::size_t>(needed * 2, 64));
    while (nalloc > kMaxBuckets && nalloc > needed) nalloc /= 2;
    base_ = (lo >> shift_) << shift_;
    buckets_.assign(nalloc, {});
    fenwick_.assign(nalloc + 1, 0);
    top_ = std::bit_floor(nalloc);
    for (SimTime end : rebuild_scratch_) {
      const std::size_t b = bucket_of(end);
      buckets_[b].push_back(end);  // scratch is ascending: stays sorted
      fenwick_add(b, +1);
    }
  }

  std::vector<std::vector<SimTime>> buckets_;
  std::vector<int> fenwick_;  ///< 1-indexed, over per-bucket counts
  std::vector<SimTime> rebuild_scratch_;
  std::size_t top_ = 0;       ///< largest power of two <= bucket count
  SimTime base_ = 0;          ///< window origin, quantum-aligned
  int shift_ = kDefaultShift;
  int finite_ = 0;
  int inf_ = 0;  ///< kTimeInfinity entries live outside the window
};

}  // namespace cosched::cluster
