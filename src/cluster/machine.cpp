#include "cluster/machine.hpp"

#include <algorithm>
#include <atomic>

namespace cosched::cluster {

namespace {
/// Machine instance ids; atomic because the ParallelRunner constructs
/// machines from worker threads. See Machine::instance_id().
std::atomic<std::uint64_t> next_machine_id{1};
}  // namespace

Machine::Machine(int node_count, const NodeConfig& config,
                 TopologyParams topology, PlacementPolicy placement)
    : config_(config),
      topology_(topology, node_count),
      placement_(placement) {
  COSCHED_CHECK(node_count > 0);
  instance_id_ = next_machine_id.fetch_add(1, std::memory_order_relaxed);
  nodes_.reserve(static_cast<std::size_t>(node_count));
  free_primary_.reset(node_count);
  free_secondary_.reset(node_count);
  free_end_.assign(static_cast<std::size_t>(node_count), 0);
  node_busy_.assign(static_cast<std::size_t>(node_count), 0);
  node_gens_.assign(static_cast<std::size_t>(node_count), 0);
  node_dirty_flag_.assign(static_cast<std::size_t>(node_count), 0);
  for (int i = 0; i < node_count; ++i) {
    nodes_.emplace_back(static_cast<NodeId>(i), config);
    free_primary_.insert(static_cast<NodeId>(i));
  }
}

void Machine::clear_dirty_nodes() {
  for (NodeId id : dirty_nodes_) {
    node_dirty_flag_[static_cast<std::size_t>(id)] = 0;
  }
  dirty_nodes_.clear();
}

const Node& Machine::node(NodeId id) const {
  COSCHED_CHECK(id >= 0 && id < node_count());
  return nodes_[static_cast<std::size_t>(id)];
}

Node& Machine::node_mutable(NodeId id) {
  COSCHED_CHECK(id >= 0 && id < node_count());
  return nodes_[static_cast<std::size_t>(id)];
}

std::optional<std::vector<NodeId>> Machine::find_free_nodes(int count) const {
  COSCHED_CHECK(count > 0);
  if (count > free_node_count()) return std::nullopt;
  if (placement_ == PlacementPolicy::kCompact && !topology_.flat()) {
    return find_free_nodes_compact(count);
  }
  // Lowest-id placement: the index is already in id order, take its head.
  std::vector<NodeId> out;
  out.reserve(static_cast<std::size_t>(count));
  for (NodeId id : free_primary_) {
    out.push_back(id);
    if (static_cast<int>(out.size()) == count) break;
  }
  return out;
}

std::optional<std::vector<NodeId>> Machine::find_free_nodes_compact(
    int count) const {
  // Free nodes grouped by leaf switch (walks the index, not all nodes).
  std::vector<std::vector<NodeId>> per_switch(
      static_cast<std::size_t>(topology_.switch_count()));
  for (NodeId id : free_primary_) {
    per_switch[static_cast<std::size_t>(topology_.switch_of(id))]
        .push_back(id);
  }
  // Best fit when one switch suffices: the switch with the smallest free
  // count that still fits (preserve big holes for big jobs).
  int best_single = -1;
  for (std::size_t s = 0; s < per_switch.size(); ++s) {
    const int free = static_cast<int>(per_switch[s].size());
    if (free >= count &&
        (best_single < 0 ||
         free < static_cast<int>(
                    per_switch[static_cast<std::size_t>(best_single)]
                        .size()))) {
      best_single = static_cast<int>(s);
    }
  }
  std::vector<NodeId> out;
  out.reserve(static_cast<std::size_t>(count));
  if (best_single >= 0) {
    const auto& pool = per_switch[static_cast<std::size_t>(best_single)];
    out.assign(pool.begin(), pool.begin() + count);
    return out;
  }
  // Greedy fewest switches: take from the fullest switches first (ties by
  // switch id for determinism).
  std::vector<std::size_t> order(per_switch.size());
  for (std::size_t s = 0; s < order.size(); ++s) order[s] = s;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (per_switch[a].size() != per_switch[b].size()) {
      return per_switch[a].size() > per_switch[b].size();
    }
    return a < b;
  });
  for (std::size_t s : order) {
    for (NodeId n : per_switch[s]) {
      out.push_back(n);
      if (static_cast<int>(out.size()) == count) return out;
    }
  }
  return std::nullopt;
}

void Machine::allocate_primary(JobId job, const std::vector<NodeId>& nodes,
                               SimTime walltime_end) {
  COSCHED_CHECK_MSG(!allocations_.count(job),
                    "job " << job << " is already allocated");
  COSCHED_CHECK(!nodes.empty());
  // The allocation record goes in first: resync_node reads residents'
  // walltime ends out of allocations_.
  allocations_[job] = Allocation{job, AllocationKind::kPrimary, nodes,
                                 walltime_end};
  for (NodeId id : nodes) {
    node_mutable(id).assign_primary(job);
    resync_node(id);
  }
  if (tracer_ != nullptr) tracer_->machine_alloc("alloc_primary", job, nodes);
}

void Machine::allocate_secondary(JobId job, const std::vector<NodeId>& nodes,
                                 SimTime walltime_end) {
  COSCHED_CHECK_MSG(!allocations_.count(job),
                    "job " << job << " is already allocated");
  COSCHED_CHECK(!nodes.empty());
  allocations_[job] = Allocation{job, AllocationKind::kSecondary, nodes,
                                 walltime_end};
  for (NodeId id : nodes) {
    node_mutable(id).assign_secondary(job);
    resync_node(id);
  }
  if (tracer_ != nullptr) {
    tracer_->machine_alloc("alloc_secondary", job, nodes);
  }
}

Allocation Machine::release(JobId job) {
  auto it = allocations_.find(job);
  COSCHED_CHECK_MSG(it != allocations_.end(),
                    "release of unallocated job " << job);
  Allocation alloc = std::move(it->second);
  allocations_.erase(it);
  for (NodeId id : alloc.nodes) {
    // A departing primary may promote a secondary (the surviving job now
    // owns the core's first threads); Allocation.kind describes how a job
    // *started*, so the promoted job's record is untouched. resync derives
    // the node's free-capacity membership from the post-remove slot state
    // either way.
    node_mutable(id).remove(job);
    resync_node(id);
  }
  if (tracer_ != nullptr) tracer_->machine_alloc("release", job, alloc.nodes);
  return alloc;
}

const Allocation* Machine::allocation(JobId job) const {
  auto it = allocations_.find(job);
  return it == allocations_.end() ? nullptr : &it->second;
}

void Machine::set_node_down(NodeId id, bool down) {
  node_mutable(id).set_down(down);
  resync_node(id);
  if (tracer_ != nullptr) tracer_->node_state(id, down);
}

void Machine::resync_node(NodeId id) {
  const Node& n = nodes_[static_cast<std::size_t>(id)];
  if (n.primary_free()) {
    free_primary_.insert(id);
  } else {
    free_primary_.erase(id);
  }
  if (n.secondary_free()) {
    free_secondary_.insert(id);
  } else {
    free_secondary_.erase(id);
  }
  // Stamp the node with the post-increment *global* generation rather than
  // an independent per-node counter, so a stamp compares with generation():
  // the nodes stamped above a remembered generation are exactly those that
  // changed since (the co-allocation table's incremental refresh).
  node_gens_[static_cast<std::size_t>(id)] = ++generation_;
  // Accumulate for the incremental rate refresh (see dirty_nodes()).
  if (node_dirty_flag_[static_cast<std::size_t>(id)] == 0) {
    node_dirty_flag_[static_cast<std::size_t>(id)] = 1;
    dirty_nodes_.push_back(id);
  }
  // Free-time cache: a node is tracked in busy_ends_ iff it is up and holds
  // at least one job (slot 0 occupied — secondaries imply a primary). Its
  // cached end is the latest resident walltime end, unclamped; queries
  // clamp with max(now, end).
  const bool was_busy = node_busy_[static_cast<std::size_t>(id)] != 0;
  const SimTime old_end = free_end_[static_cast<std::size_t>(id)];
  const bool busy = !n.is_down() && !n.primary_free();
  SimTime end = 0;
  if (busy) {
    for (JobId resident : n.slot_jobs()) {
      if (resident == kInvalidJob) continue;
      const auto it = allocations_.find(resident);
      COSCHED_CHECK_MSG(it != allocations_.end(),
                        "resident job " << resident
                                        << " has no allocation record");
      end = std::max(end, it->second.walltime_end);
    }
  }
  if (busy == was_busy && (!busy || end == old_end)) return;
  if (was_busy) busy_ends_.erase(old_end);
  if (busy) busy_ends_.insert(end);
  node_busy_[static_cast<std::size_t>(id)] = busy ? 1 : 0;
  free_end_[static_cast<std::size_t>(id)] = end;
}

SimTime Machine::node_free_time(NodeId id, SimTime now) const {
  const Node& n = node(id);
  if (n.is_down()) return kTimeInfinity;
  if (node_busy_[static_cast<std::size_t>(id)] == 0) return now;
  return std::max(now, free_end_[static_cast<std::size_t>(id)]);
}

SimTime Machine::kth_free_time(int k, SimTime now) const {
  COSCHED_CHECK(k >= 0);
  const int free = free_node_count();
  if (k < free) return now;
  k -= free;
  if (k < busy_ends_.size()) return std::max(now, busy_ends_.kth(k));
  return kTimeInfinity;  // only down nodes remain
}

int Machine::free_count_at(SimTime t, SimTime now) const {
  if (t < now) return 0;
  // Clamped end max(now, e) <= t iff e <= t, given t >= now.
  return free_node_count() + busy_ends_.count_leq(t);
}

void Machine::check_invariants() const {
  // Brute-force recomputation of the free-capacity index: the maintained
  // sets must match a full rescan exactly, node for node.
  NodeIdSet expect_primary(node_count());
  NodeIdSet expect_secondary(node_count());
  for (const auto& node : nodes_) {
    if (node.primary_free()) expect_primary.insert(node.id());
    if (node.secondary_free()) expect_secondary.insert(node.id());
    // Secondary occupancy implies a primary.
    if (!node.secondary_jobs().empty()) {
      COSCHED_CHECK_MSG(node.primary_job() != kInvalidJob,
                        "node " << node.id()
                                << " has secondaries without a primary");
    }
  }
  COSCHED_CHECK_MSG(expect_primary == free_primary_,
                    "free-primary index drifted: holds "
                        << free_primary_.size() << " node(s), rescan found "
                        << expect_primary.size());
  COSCHED_CHECK_MSG(expect_secondary == free_secondary_,
                    "free-secondary index drifted: holds "
                        << free_secondary_.size() << " node(s), rescan found "
                        << expect_secondary.size());
  // Check order over the allocation table is hash-order, but every check
  // must pass and the stream sink only fires on the abort path, so no
  // ordering reaches replayed output.
  for (const auto& [job, alloc] : allocations_) {  // cosched-lint: allow(unordered-iteration-escape)
    COSCHED_CHECK(job == alloc.job);
    for (NodeId id : alloc.nodes) {
      const auto jobs = node(id).jobs();
      COSCHED_CHECK_MSG(
          std::find(jobs.begin(), jobs.end(), job) != jobs.end(),
          "allocation for job " << job << " references node " << id
                                << " which does not host it");
    }
  }
  // Free-time index: recompute every node's cached state and the busy-ends
  // multiset from scratch; all must match the maintained
  // structure-of-arrays state.
  std::vector<SimTime> expect_ends;
  for (const auto& node : nodes_) {
    const auto idx = static_cast<std::size_t>(node.id());
    const bool cached_busy = node_busy_[idx] != 0;
    const bool busy = !node.is_down() && !node.primary_free();
    COSCHED_CHECK_MSG(cached_busy == busy,
                      "free-time cache drifted on node "
                          << node.id() << ": busy flag " << cached_busy
                          << " vs rescan " << busy);
    if (!busy) continue;
    SimTime end = 0;
    for (JobId resident : node.slot_jobs()) {
      if (resident == kInvalidJob) continue;
      end = std::max(end, allocations_.at(resident).walltime_end);
    }
    COSCHED_CHECK_MSG(free_end_[idx] == end,
                      "free-time cache drifted on node "
                          << node.id() << ": cached end " << free_end_[idx]
                          << " vs rescan " << end);
    expect_ends.push_back(end);
  }
  std::sort(expect_ends.begin(), expect_ends.end());
  COSCHED_CHECK_MSG(expect_ends == busy_ends_.to_sorted_vector(),
                    "busy-ends multiset drifted: holds "
                        << busy_ends_.size() << " entries, rescan found "
                        << expect_ends.size());
}

}  // namespace cosched::cluster
