// Differential fuzz of the node-width index layer (DESIGN.md "Node-width
// sublinear indexes"): NodeIdSet iteration against a std::set, and
// BusyEnds against a sorted-vector oracle. Each pair must agree on every
// query after every operation. All deterministic (seeded PCG), so
// failures reproduce.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "cluster/busy_ends.hpp"
#include "cluster/id_set.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace cosched::cluster {
namespace {

// --- NodeIdSet: bitmap iteration vs std::set ------------------------------

/// Node counts straddling the word (64) boundary, plus the 16k production
/// scale of the wide workloads.
class WidthIndexFuzz : public ::testing::TestWithParam<int> {};

std::vector<NodeId> walk(const NodeIdSet& set) {
  std::vector<NodeId> walked;
  for (NodeId n : set) walked.push_back(n);
  return walked;
}

TEST_P(WidthIndexFuzz, IterationReplaysTheSortedMemberList) {
  const int capacity = GetParam();
  Pcg32 rng(static_cast<std::uint64_t>(capacity), 0xa10);
  NodeIdSet set(capacity);
  std::set<NodeId> reference;

  const int ops = capacity >= 4096 ? 400 : 2000;
  for (int op = 0; op < ops; ++op) {
    const NodeId id =
        static_cast<NodeId>(rng.uniform_int(0, capacity - 1));
    if (rng.uniform_int(0, 2) != 0) {
      EXPECT_EQ(set.insert(id), reference.insert(id).second);
    } else {
      EXPECT_EQ(set.erase(id), reference.erase(id) > 0);
    }
    ASSERT_EQ(set.size(), static_cast<int>(reference.size()));
    const std::vector<NodeId> walked = walk(set);
    ASSERT_TRUE(std::equal(walked.begin(), walked.end(), reference.begin(),
                           reference.end()))
        << "capacity " << capacity << " after op " << op;
  }
}

TEST_P(WidthIndexFuzz, SparseAndDenseExtremes) {
  const int capacity = GetParam();
  NodeIdSet set(capacity);
  // Single member at every position that straddles a boundary.
  for (NodeId id : {NodeId{0}, NodeId{63}, NodeId{64},
                    static_cast<NodeId>(capacity / 2),
                    static_cast<NodeId>(capacity - 1)}) {
    if (id >= capacity) continue;
    set.insert(id);
    EXPECT_EQ(walk(set), std::vector<NodeId>{id});
    set.erase(id);
    EXPECT_TRUE(walk(set).empty());
  }
  // Full set: iteration visits every id in order.
  for (NodeId id = 0; id < capacity; ++id) set.insert(id);
  EXPECT_EQ(set.size(), capacity);
  std::vector<NodeId> all(static_cast<std::size_t>(capacity));
  for (NodeId id = 0; id < capacity; ++id) {
    all[static_cast<std::size_t>(id)] = id;
  }
  EXPECT_EQ(walk(set), all);
}

INSTANTIATE_TEST_SUITE_P(NodeCounts, WidthIndexFuzz,
                         ::testing::Values(63, 64, 65, 1021, 16384));

// --- BusyEnds: Fenwick buckets vs a sorted-vector oracle -------------------

/// The plain sorted multiset BusyEnds must be indistinguishable from.
class SortedEnds {
 public:
  int size() const { return static_cast<int>(ends_.size()); }
  void insert(SimTime end) {
    ends_.insert(std::upper_bound(ends_.begin(), ends_.end(), end), end);
  }
  void erase(SimTime end) {
    const auto it = std::lower_bound(ends_.begin(), ends_.end(), end);
    ASSERT_TRUE(it != ends_.end() && *it == end) << "oracle lost " << end;
    ends_.erase(it);
  }
  int count_leq(SimTime t) const {
    return static_cast<int>(
        std::upper_bound(ends_.begin(), ends_.end(), t) - ends_.begin());
  }
  const std::vector<SimTime>& sorted() const { return ends_; }

 private:
  std::vector<SimTime> ends_;
};

/// Compares every order-statistic query of `ends` with the oracle.
void check_busy_ends_agree(const SortedEnds& oracle, const BusyEnds& ends) {
  ASSERT_EQ(oracle.size(), ends.size());
  for (int k = 0; k < oracle.size(); ++k) {
    ASSERT_EQ(oracle.sorted()[static_cast<std::size_t>(k)], ends.kth(k))
        << "rank " << k;
  }
  ASSERT_EQ(oracle.sorted(), ends.to_sorted_vector());
  std::vector<SimTime> walked;
  ends.for_each([&walked](SimTime end) { walked.push_back(end); });
  ASSERT_EQ(oracle.sorted(), walked);
}

TEST(BusyEndsFuzz, FenwickMatchesFlatUnderRandomChurn) {
  Pcg32 rng(0xbead5, 0xa12);
  SortedEnds oracle;
  BusyEnds ends;
  std::vector<SimTime> live;

  for (int op = 0; op < 3000; ++op) {
    const int kind = static_cast<int>(rng.uniform_int(0, 9));
    if (live.empty() || kind < 6) {
      // Mix of clustered walltime ends (equal-value runs, the all-equal
      // worst case), far-future outliers (window rebuilds), and
      // kTimeInfinity entries (outside the bucket window).
      SimTime end;
      const int shape = static_cast<int>(rng.uniform_int(0, 9));
      if (shape < 6) {
        end = rng.uniform_int(0, 50) * kSecond;  // dense, heavy ties
      } else if (shape < 8) {
        end = rng.uniform_int(0, 2'000'000) * kSecond;  // rebuild pressure
      } else if (shape == 8) {
        end = rng.uniform_int(0, 1 << 20);  // sub-quantum jitter
      } else {
        end = kTimeInfinity;
      }
      oracle.insert(end);
      ends.insert(end);
      live.push_back(end);
    } else {
      const std::size_t victim = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      const SimTime end = live[victim];
      live[victim] = live.back();
      live.pop_back();
      oracle.erase(end);
      ends.erase(end);
    }
    check_busy_ends_agree(oracle, ends);
    // count_leq at member values, their neighbours, and random times.
    for (int probe = 0; probe < 4; ++probe) {
      SimTime t = rng.uniform_int(0, 60) * kSecond;
      if (!live.empty() && probe == 0) {
        t = live[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1))];
      }
      ASSERT_EQ(oracle.count_leq(t), ends.count_leq(t)) << "t=" << t;
      if (t > 0) {
        ASSERT_EQ(oracle.count_leq(t - 1), ends.count_leq(t - 1));
      }
    }
    ASSERT_EQ(oracle.count_leq(kTimeInfinity), ends.count_leq(kTimeInfinity));
  }
}

TEST(BusyEndsFuzz, ForEachWalksAscendingInBothImplementations) {
  Pcg32 rng(0xbead6, 0xa13);
  SortedEnds oracle;
  BusyEnds ends;
  for (int i = 0; i < 500; ++i) {
    const SimTime end = (i % 7 == 0) ? kTimeInfinity
                                     : rng.uniform_int(0, 100) * kSecond;
    oracle.insert(end);
    ends.insert(end);
  }
  std::vector<SimTime> walked;
  ends.for_each([&walked](SimTime end) { walked.push_back(end); });
  EXPECT_EQ(oracle.sorted(), walked);
  EXPECT_TRUE(std::is_sorted(walked.begin(), walked.end()));
}

TEST(BusyEndsFuzz, WindowRebuildIsDeterministic) {
  // Two instances fed the same stream must land on identical window
  // geometry — the rebuild is a pure function of contents + incoming.
  BusyEnds a;
  BusyEnds b;
  const SimTime stream[] = {5 * kSecond, 3'000'000 * kSecond, 12 * kSecond,
                            kTimeInfinity, 9'000'000 * kSecond};
  for (SimTime end : stream) {
    a.insert(end);
    b.insert(end);
    EXPECT_EQ(a.window_base(), b.window_base());
    EXPECT_EQ(a.window_shift(), b.window_shift());
    EXPECT_EQ(a.bucket_count(), b.bucket_count());
  }
  // The far-future span exceeded the default quantum's bucket cap, so the
  // quantum must have grown rather than the bucket array blowing up.
  EXPECT_GT(a.window_shift(), 20);
  EXPECT_LE(a.bucket_count(), 1 << 16);
}

}  // namespace
}  // namespace cosched::cluster
