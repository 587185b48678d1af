#include <gtest/gtest.h>

#include "cluster/machine.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace cosched::cluster {
namespace {

NodeConfig smt2() { return NodeConfig{.cores = 16, .smt_per_core = 2}; }

/// A free set's members in iteration order.
std::vector<NodeId> walk(const NodeIdSet& set) {
  std::vector<NodeId> walked;
  for (NodeId id : set) walked.push_back(id);
  return walked;
}

// --- Node -----------------------------------------------------------------------

TEST(Node, StartsIdle) {
  Node node(0, smt2());
  EXPECT_TRUE(node.is_idle());
  EXPECT_TRUE(node.primary_free());
  EXPECT_FALSE(node.secondary_free());  // no primary to join
  EXPECT_EQ(node.primary_job(), kInvalidJob);
  EXPECT_EQ(node.job_count(), 0);
}

TEST(Node, ConfigArithmetic) {
  const NodeConfig c{.cores = 16, .smt_per_core = 2, .memory_gb = 64};
  EXPECT_EQ(c.hardware_threads(), 32);
  EXPECT_EQ(c.slots(), 2);
}

TEST(Node, PrimaryAssignment) {
  Node node(0, smt2());
  node.assign_primary(7);
  EXPECT_EQ(node.primary_job(), 7);
  EXPECT_FALSE(node.primary_free());
  EXPECT_TRUE(node.secondary_free());
  EXPECT_EQ(node.state(), NodeState::kBusy);
}

TEST(Node, SecondaryRequiresPrimary) {
  Node node(0, smt2());
  EXPECT_FALSE(node.secondary_free());
  node.assign_primary(1);
  node.assign_secondary(2);
  EXPECT_FALSE(node.secondary_free());  // 2-way SMT: one secondary slot
  EXPECT_EQ(node.job_count(), 2);
  EXPECT_EQ(node.secondary_jobs(), (std::vector<JobId>{2}));
  EXPECT_EQ(node.jobs(), (std::vector<JobId>{1, 2}));
}

TEST(Node, SecondaryPromotionOnPrimaryExit) {
  Node node(0, smt2());
  node.assign_primary(1);
  node.assign_secondary(2);
  node.remove(1);
  EXPECT_EQ(node.primary_job(), 2);
  EXPECT_TRUE(node.secondary_jobs().empty());
  EXPECT_TRUE(node.secondary_free());  // promoted primary can host again
}

TEST(Node, RemoveSecondaryLeavesPrimary) {
  Node node(0, smt2());
  node.assign_primary(1);
  node.assign_secondary(2);
  node.remove(2);
  EXPECT_EQ(node.primary_job(), 1);
  EXPECT_TRUE(node.secondary_free());
}

TEST(Node, RemoveLastJobGoesIdle) {
  Node node(0, smt2());
  node.assign_primary(1);
  node.remove(1);
  EXPECT_TRUE(node.is_idle());
  EXPECT_TRUE(node.primary_free());
}

TEST(Node, SmtDegreeFourHostsThreeSecondaries) {
  Node node(0, NodeConfig{.cores = 8, .smt_per_core = 4});
  node.assign_primary(1);
  node.assign_secondary(2);
  node.assign_secondary(3);
  EXPECT_TRUE(node.secondary_free());
  node.assign_secondary(4);
  EXPECT_FALSE(node.secondary_free());
  EXPECT_EQ(node.job_count(), 4);
}

// A node keeps one slot per thread, and the corun model stages a node's
// jobs on the stack, so the SMT degree is bounded.
TEST(Node, SmtDegreeAtTheBoundHostsAJobPerThread) {
  Node node(0, NodeConfig{.cores = 8, .smt_per_core = kMaxThreadsPerCore});
  node.assign_primary(1);
  for (JobId j = 2; j <= kMaxThreadsPerCore; ++j) node.assign_secondary(j);
  EXPECT_FALSE(node.secondary_free());
  EXPECT_EQ(node.job_count(), kMaxThreadsPerCore);
}

TEST(Node, RefusesAnSmtDegreeBeyondTheBound) {
  const NodeConfig wide{.cores = 8, .smt_per_core = kMaxThreadsPerCore + 1};
  EXPECT_DEATH(Node(0, wide), "kMaxThreadsPerCore");
}

TEST(Node, NoSmtMeansNoSecondary) {
  Node node(0, NodeConfig{.cores = 16, .smt_per_core = 1});
  node.assign_primary(1);
  EXPECT_FALSE(node.secondary_free());
}

TEST(Node, DownNodeRejectsWork) {
  Node node(0, smt2());
  node.set_down(true);
  EXPECT_TRUE(node.is_down());
  EXPECT_FALSE(node.primary_free());
  EXPECT_FALSE(node.secondary_free());
  node.set_down(false);
  EXPECT_TRUE(node.primary_free());
}

// --- Machine --------------------------------------------------------------------

TEST(Machine, InitialState) {
  Machine m(4, smt2());
  EXPECT_EQ(m.node_count(), 4);
  EXPECT_EQ(m.free_node_count(), 4);
  EXPECT_TRUE(m.free_secondary_nodes().empty());
  m.check_invariants();
}

TEST(Machine, FindFreeNodesDeterministic) {
  Machine m(4, smt2());
  const auto nodes = m.find_free_nodes(2);
  ASSERT_TRUE(nodes.has_value());
  EXPECT_EQ(*nodes, (std::vector<NodeId>{0, 1}));
}

TEST(Machine, FindFreeNodesInsufficient) {
  Machine m(2, smt2());
  m.allocate_primary(1, {0});
  EXPECT_FALSE(m.find_free_nodes(2).has_value());
  EXPECT_TRUE(m.find_free_nodes(1).has_value());
}

TEST(Machine, AllocateReleaseCycle) {
  Machine m(4, smt2());
  m.allocate_primary(1, {0, 1});
  EXPECT_EQ(m.free_node_count(), 2);
  EXPECT_EQ(m.node(1).jobs(), (std::vector<JobId>{1}));
  EXPECT_TRUE(m.node(2).jobs().empty());
  const Allocation* alloc = m.allocation(1);
  ASSERT_NE(alloc, nullptr);
  EXPECT_EQ(alloc->kind, AllocationKind::kPrimary);
  m.check_invariants();

  const Allocation released = m.release(1);
  EXPECT_EQ(released.nodes, (std::vector<NodeId>{0, 1}));
  EXPECT_EQ(m.free_node_count(), 4);
  EXPECT_EQ(m.allocation(1), nullptr);
  m.check_invariants();
}

TEST(Machine, SecondaryAllocationDoesNotConsumePrimaries) {
  Machine m(4, smt2());
  m.allocate_primary(1, {0, 1});
  m.allocate_secondary(2, {0, 1});
  EXPECT_EQ(m.free_node_count(), 2);  // secondaries cost no primary slots
  EXPECT_EQ(m.node(0).jobs(), (std::vector<JobId>{1, 2}));
  EXPECT_EQ(m.node(1).jobs(), (std::vector<JobId>{1, 2}));
  EXPECT_TRUE(m.free_secondary_nodes().empty());
  m.check_invariants();
}

TEST(Machine, ReleasePrimaryPromotesSecondary) {
  Machine m(2, smt2());
  m.allocate_primary(1, {0});
  m.allocate_secondary(2, {0});
  m.release(1);
  // Node 0 now belongs to job 2 (promoted), so it is not free.
  EXPECT_EQ(m.free_node_count(), 1);
  EXPECT_EQ(m.node(0).primary_job(), 2);
  m.check_invariants();
  m.release(2);
  EXPECT_EQ(m.free_node_count(), 2);
}

TEST(Machine, PrimariesWithFreeSecondary) {
  Machine m(4, smt2());
  m.allocate_primary(1, {0, 1});
  m.allocate_primary(2, {2});
  m.allocate_secondary(3, {2});  // fills job 2's secondary slot
  // Only job 1's nodes still offer a secondary slot.
  EXPECT_EQ(walk(m.free_secondary_nodes()), (std::vector<NodeId>{0, 1}));
  for (NodeId n : m.free_secondary_nodes()) {
    EXPECT_EQ(m.node(n).primary_job(), 1);
  }
  m.check_invariants();
}

TEST(Machine, CoResidentsEmptyWhenExclusive) {
  Machine m(2, smt2());
  m.allocate_primary(1, {0, 1});
  EXPECT_EQ(m.node(0).jobs(), (std::vector<JobId>{1}));
  EXPECT_EQ(m.node(1).jobs(), (std::vector<JobId>{1}));
  EXPECT_TRUE(m.node(0).secondary_jobs().empty());
  EXPECT_TRUE(m.node(1).secondary_jobs().empty());
  EXPECT_EQ(m.allocation(99), nullptr);  // unknown job: no crash
}

TEST(Machine, DownNodeExcludedFromQueries) {
  Machine m(3, smt2());
  m.set_node_down(1, true);
  EXPECT_EQ(m.free_node_count(), 2);
  EXPECT_TRUE(m.node(1).is_down());
  const auto nodes = m.find_free_nodes(2);
  ASSERT_TRUE(nodes.has_value());
  EXPECT_EQ(*nodes, (std::vector<NodeId>{0, 2}));
  m.set_node_down(1, false);
  EXPECT_EQ(m.free_node_count(), 3);
}

TEST(Machine, PartialOverlapAllocations) {
  Machine m(4, smt2());
  m.allocate_primary(1, {0, 1, 2});
  m.allocate_secondary(2, {1, 2});  // shares a subset of job 1's nodes
  EXPECT_EQ(m.node(0).jobs(), (std::vector<JobId>{1}));
  EXPECT_EQ(m.node(1).jobs(), (std::vector<JobId>{1, 2}));
  EXPECT_EQ(m.node(2).jobs(), (std::vector<JobId>{1, 2}));
  EXPECT_EQ(walk(m.free_secondary_nodes()), (std::vector<NodeId>{0}));
  m.release(2);
  EXPECT_EQ(m.node(1).jobs(), (std::vector<JobId>{1}));
  EXPECT_EQ(walk(m.free_secondary_nodes()), (std::vector<NodeId>{0, 1, 2}));
  m.check_invariants();
}

TEST(Machine, SecondarySpanningTwoPrimaries) {
  Machine m(4, smt2());
  m.allocate_primary(1, {0});
  m.allocate_primary(2, {1});
  m.allocate_secondary(3, {0, 1});
  EXPECT_EQ(m.node(0).jobs(), (std::vector<JobId>{1, 3}));
  EXPECT_EQ(m.node(1).jobs(), (std::vector<JobId>{2, 3}));
  m.release(1);
  // Node 0 promotes job 3; node 1 still has primary 2 + secondary 3.
  EXPECT_EQ(m.node(0).primary_job(), 3);
  EXPECT_EQ(m.node(0).jobs(), (std::vector<JobId>{3}));
  EXPECT_EQ(m.node(1).jobs(), (std::vector<JobId>{2, 3}));
  EXPECT_EQ(walk(m.free_secondary_nodes()), (std::vector<NodeId>{0}));
  m.check_invariants();
}

// --- Free-capacity index --------------------------------------------------------

// The index must agree with a brute-force rescan of every node, node for
// node, after any mutation. check_invariants() performs exactly that
// comparison, so each step below both exercises an index update path and
// cross-checks it.

/// Brute-force reference for the query results served from the index.
struct Rescan {
  std::vector<NodeId> free_primary;
  std::vector<NodeId> free_secondary;

  explicit Rescan(const Machine& m) {
    for (NodeId id = 0; id < m.node_count(); ++id) {
      if (m.node(id).primary_free()) free_primary.push_back(id);
      if (m.node(id).secondary_free()) free_secondary.push_back(id);
    }
  }
};

TEST(MachineCapacityIndex, QueriesMatchRescanThroughLifecycle) {
  Machine m(8, smt2());
  m.allocate_primary(1, {0, 1, 2, 3});
  m.allocate_secondary(2, {1, 2});
  m.allocate_primary(3, {4});
  m.set_node_down(7, true);
  const Rescan ref(m);
  EXPECT_EQ(m.free_node_count(), static_cast<int>(ref.free_primary.size()));
  EXPECT_EQ(m.find_free_nodes(2),
            std::optional<std::vector<NodeId>>({ref.free_primary[0],
                                                ref.free_primary[1]}));
  // free secondary slots: nodes 0,3 (primary 1 alone) and 4 (primary 3).
  EXPECT_EQ(ref.free_secondary, (std::vector<NodeId>{0, 3, 4}));
  EXPECT_EQ(walk(m.free_secondary_nodes()), ref.free_secondary);
  m.check_invariants();
}

TEST(MachineCapacityIndex, ReleaseWithPromotionResyncsTouchedNodes) {
  Machine m(4, smt2());
  m.allocate_primary(1, {0, 1});
  m.allocate_secondary(2, {0, 1});
  EXPECT_EQ(m.free_node_count(), 2);
  EXPECT_TRUE(m.free_secondary_nodes().empty());
  m.release(1);  // job 2 promotes to primary on both nodes
  EXPECT_EQ(m.free_node_count(), 2);  // nodes 2,3 — 0,1 now run job 2
  EXPECT_EQ(walk(m.free_secondary_nodes()), (std::vector<NodeId>{0, 1}));
  m.check_invariants();
}

// Randomized alloc/release/down-node sequences; after every operation the
// incrementally maintained index must agree with the brute-force rescan
// (check_invariants aborts on drift) and the query results must match the
// reference.
TEST(MachineCapacityIndex, FuzzAgainstBruteForceRescan) {
  Pcg32 rng(0xf022);
  for (int round = 0; round < 20; ++round) {
    const int nodes = 2 + static_cast<int>(rng.next_below(14));
    Machine m(nodes, smt2());
    std::vector<JobId> live;
    JobId next_job = 1;
    for (int step = 0; step < 200; ++step) {
      const Rescan ref(m);
      const std::uint32_t op = rng.next_below(10);
      if (op < 4 && !ref.free_primary.empty()) {
        // Primary allocation of a random width from the free pool.
        const int width =
            1 + static_cast<int>(rng.next_below(
                    static_cast<std::uint32_t>(ref.free_primary.size())));
        const auto picked = m.find_free_nodes(width);
        ASSERT_TRUE(picked.has_value());
        ASSERT_EQ(picked->size(), static_cast<std::size_t>(width));
        m.allocate_primary(next_job, *picked);
        live.push_back(next_job++);
      } else if (op < 6 && !ref.free_secondary.empty()) {
        const int width =
            1 + static_cast<int>(rng.next_below(
                    static_cast<std::uint32_t>(ref.free_secondary.size())));
        const auto picked = testing::first_shareable(m, width);
        ASSERT_TRUE(picked.has_value());
        m.allocate_secondary(next_job, *picked);
        live.push_back(next_job++);
      } else if (op < 8 && !live.empty()) {
        const std::size_t pick = static_cast<std::size_t>(
            rng.next_below(static_cast<std::uint32_t>(live.size())));
        m.release(live[pick]);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      } else {
        // Toggle a node's service state; only empty nodes may go down.
        const NodeId id =
            static_cast<NodeId>(rng.next_below(
                static_cast<std::uint32_t>(nodes)));
        if (m.node(id).is_down()) {
          m.set_node_down(id, false);
        } else if (m.node(id).job_count() == 0) {
          m.set_node_down(id, true);
        }
      }
      m.check_invariants();
      // Queries must be served from the same state the rescan sees.
      const Rescan now(m);
      EXPECT_EQ(m.free_node_count(),
                static_cast<int>(now.free_primary.size()));
      if (!now.free_primary.empty()) {
        const auto head = m.find_free_nodes(1);
        ASSERT_TRUE(head.has_value());
        EXPECT_EQ(head->front(), now.free_primary.front());
      }
      EXPECT_EQ(walk(m.free_secondary_nodes()), now.free_secondary);
    }
  }
}

}  // namespace
}  // namespace cosched::cluster
