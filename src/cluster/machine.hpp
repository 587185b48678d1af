// The machine: a set of nodes plus the allocation bookkeeping that maps
// jobs to the nodes and slot kinds they occupy.
//
// Scheduler-facing queries are served from an incrementally maintained
// free-capacity index instead of O(nodes) rescans: two ordered id sets
// (flat bitmaps, see id_set.hpp) track the nodes with a free primary slot
// and the nodes with a free secondary slot. Nodes are homogeneous, so
// within each set every member offers the same free hardware-thread count
// and the sort key reduces to the node id — exactly the order the
// deterministic lowest-id placement needs. Every mutation path (allocate,
// release with promotion, node up/down) resyncs only the touched nodes,
// making updates O(k) for a k-node allocation while find_free_nodes and
// the co-allocation scans walk free nodes only. check_invariants()
// cross-checks the index against a brute-force rescan;
// tests/cluster_test.cpp fuzzes that agreement.
//
// A second incremental structure serves the backfill strategies: each
// node's free time (now for idle nodes, the max cached walltime end of its
// residents for busy nodes, infinity for down nodes) is maintained under
// the same resync discipline, with the busy nodes' ends mirrored into a
// sorted multiset. compute_shadow reads the k-th smallest free time and
// build_profile iterates the sorted ends directly, so per-pass cost tracks
// the number of *busy* nodes and their churn instead of machine size (see
// DESIGN.md "Incremental scheduler state"). Generation counters (global
// and per node) let the co-allocation table re-file only the nodes that
// changed since its last refresh.
#pragma once

#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "cluster/busy_ends.hpp"
#include "cluster/id_set.hpp"
#include "cluster/node.hpp"
#include "cluster/topology.hpp"
#include "obs/trace.hpp"
#include "util/types.hpp"

namespace cosched::cluster {

/// How a job occupies its nodes.
enum class AllocationKind : std::int8_t {
  kPrimary,    ///< exclusive-style: the node's first hardware threads
  kSecondary,  ///< co-allocated onto SMT threads of busy nodes
};

/// A job's placement.
struct Allocation {
  JobId job = kInvalidJob;
  AllocationKind kind = AllocationKind::kPrimary;
  std::vector<NodeId> nodes;
  /// Latest instant the job may still hold its slots (start time plus
  /// walltime limit). Feeds the free-time index; kTimeInfinity when the
  /// caller has no bound (direct machine users in tests).
  SimTime walltime_end = kTimeInfinity;
};

class Machine {
 public:
  /// Builds `node_count` homogeneous nodes. The default topology is flat
  /// (no locality effects) with topology-blind lowest-id placement.
  Machine(int node_count, const NodeConfig& config,
          TopologyParams topology = {},
          PlacementPolicy placement = PlacementPolicy::kLowestId);

  int node_count() const { return static_cast<int>(nodes_.size()); }
  const NodeConfig& node_config() const { return config_; }
  const Topology& topology() const { return topology_; }
  PlacementPolicy placement() const { return placement_; }
  const Node& node(NodeId id) const;

  // --- Queries --------------------------------------------------------------

  /// Nodes with a free primary slot (idle, up).
  int free_node_count() const {
    return static_cast<int>(free_primary_.size());
  }

  /// Returns `count` node ids with free primary slots chosen under the
  /// placement policy, or nullopt if fewer exist. kLowestId returns the
  /// lowest-numbered free nodes; kCompact returns a placement spanning as
  /// few leaf switches as a greedy pass can manage (best-fit when one
  /// switch suffices). Both are deterministic.
  std::optional<std::vector<NodeId>> find_free_nodes(int count) const;

  /// Ids of nodes with a free secondary slot, ascending — the maintained
  /// index co-allocation candidate scans iterate instead of rescanning
  /// every node.
  const NodeIdSet& free_secondary_nodes() const { return free_secondary_; }

  // --- Free-time index ------------------------------------------------------
  // All queries take `now` so cached walltime ends in the past clamp to the
  // present, exactly like the from-scratch node_free_times() recompute in
  // tests/shadow_reference.hpp.

  /// When node `id`'s primary slot is guaranteed free: `now` if idle,
  /// max(now, latest resident walltime end) if busy, kTimeInfinity if down.
  SimTime node_free_time(NodeId id, SimTime now) const;

  /// Busy nodes currently tracked in the sorted-ends view.
  int busy_tracked_count() const { return busy_ends_.size(); }

  /// The k-th smallest node free time (0-based) over the whole machine:
  /// free nodes contribute `now`, busy nodes their clamped walltime end,
  /// down nodes kTimeInfinity. O(log busy) via the maintained order
  /// statistics (see busy_ends.hpp).
  SimTime kth_free_time(int k, SimTime now) const;

  /// Number of nodes whose free time is <= `t` (free by `t`). O(log busy).
  int free_count_at(SimTime t, SimTime now) const;

  /// Ascending walk over the cached walltime ends of busy nodes.
  /// build_profile iterates this instead of walking every node.
  template <typename F>
  void for_each_busy_end(F&& f) const {
    busy_ends_.for_each(std::forward<F>(f));
  }

  /// Cached walltime ends of busy nodes, ascending, materialized. Test and
  /// diagnostic hook — allocates; hot paths use for_each_busy_end.
  std::vector<SimTime> sorted_busy_ends() const {
    return busy_ends_.to_sorted_vector();
  }

  /// Nodes resynced (slot contents or up/down state) since the last
  /// clear_dirty_nodes(), deduplicated, in first-touch order. The
  /// controller drains this into the execution model's incremental rate
  /// refresh: only a job resident on a dirty node can have a new co-run
  /// rate, so recomputing the residents of this list settles exactly what
  /// a full scan would (ExecutionFuzz.DirtyListRefreshMatchesFullScan). An
  /// over-full list is harmless (an unchanged rate compares equal and
  /// keeps its epoch); a missed node would be a bug, so every mutation
  /// path funnels through resync_node, which appends here.
  std::span<const NodeId> dirty_nodes() const { return dirty_nodes_; }
  void clear_dirty_nodes();

  /// Monotone counter bumped on every state mutation (allocate, release,
  /// node up/down). Equal values mean "nothing changed".
  std::uint64_t generation() const { return generation_; }

  /// Process-unique id of this Machine instance (assigned at construction,
  /// never reused). Caches keyed on generation counters combine it with
  /// the stamps so entries can never alias across machines whose mutation
  /// histories happen to coincide. Never feeds any scheduling decision.
  std::uint64_t instance_id() const { return instance_id_; }

  /// Generation stamp of the node's last mutation (slot contents or
  /// up/down state): the global generation() value at that resync. Stamps
  /// are globally unique and monotone, so the nodes stamped above a
  /// remembered generation() are exactly those changed since.
  std::uint64_t node_generation(NodeId id) const {
    return node_gens_[static_cast<std::size_t>(id)];
  }

  // --- Allocation -----------------------------------------------------------

  /// Places `job` exclusively on `nodes` (claims primary slots).
  /// `walltime_end` is the job's start + walltime limit, kept in the
  /// free-time index.
  void allocate_primary(JobId job, const std::vector<NodeId>& nodes,
                        SimTime walltime_end = kTimeInfinity);

  /// Co-allocates `job` onto the secondary slots of `nodes`.
  void allocate_secondary(JobId job, const std::vector<NodeId>& nodes,
                          SimTime walltime_end = kTimeInfinity);

  /// Releases all slots held by `job`. Returns its (removed) allocation.
  Allocation release(JobId job);

  /// The allocation of a running job; nullptr if not allocated.
  const Allocation* allocation(JobId job) const;

  /// Failure injection: take a node out of / back into service.
  /// The node must be empty to go down.
  void set_node_down(NodeId id, bool down);

  /// Consistency check used by tests and debug builds: every allocation's
  /// nodes actually reference the job and free counts match. Aborts on
  /// violation.
  void check_invariants() const;

  /// Mirrors allocations, releases, and node up/down transitions into the
  /// decision trace (machine_alloc / node_state records). nullptr (the
  /// default) disables emission; the tracer must outlive the machine.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

 private:
  std::optional<std::vector<NodeId>> find_free_nodes_compact(
      int count) const;

  /// Node mutations go through Machine so the capacity index stays
  /// coherent; external callers use the allocation/failure API above.
  Node& node_mutable(NodeId id);

  /// Re-derives node `id`'s membership in both free-capacity sets and the
  /// free-time index from its current slot state, and bumps the node's
  /// generation. Called after every mutation of that node. Requires the
  /// node's residents to be present in allocations_ (allocation records
  /// are inserted before slots are assigned).
  void resync_node(NodeId id);

  NodeConfig config_;
  Topology topology_;
  PlacementPolicy placement_;
  std::vector<Node> nodes_;
  std::unordered_map<JobId, Allocation> allocations_;
  /// Free-capacity index: ids of nodes with a free primary slot, and ids of
  /// nodes with a free secondary slot (see file comment).
  NodeIdSet free_primary_;
  NodeIdSet free_secondary_;
  /// Free-time index (see file comment) in structure-of-arrays form:
  /// per-node latest resident end + busy flag in parallel flat arrays,
  /// plus the busy nodes' walltime ends as a sorted multiset (order
  /// statistics).
  std::vector<SimTime> free_end_;     ///< valid iff node_busy_[id]
  std::vector<std::uint8_t> node_busy_;
  /// Order statistics over busy nodes' ends: Fenwick calendar buckets
  /// (see busy_ends.hpp).
  BusyEnds busy_ends_;
  std::vector<std::uint64_t> node_gens_;
  /// Resynced-node accumulator (see dirty_nodes): list + dedup flag.
  std::vector<NodeId> dirty_nodes_;
  std::vector<std::uint8_t> node_dirty_flag_;
  std::uint64_t generation_ = 0;
  std::uint64_t instance_id_ = 0;  // set in the constructor; see instance_id()
  obs::Tracer* tracer_ = nullptr;  // non-owning; see set_tracer()
};

}  // namespace cosched::cluster
