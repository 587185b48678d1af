// A compute node with SMT (hyper-threaded) cores.
//
// Allocation granularity follows the paper's capability-job model: a job
// requests whole nodes. On each node the *primary* slot is the set of first
// hardware threads of every core (what an exclusive allocation uses); the
// *secondary* slot is the remaining SMT threads, which node-sharing
// strategies may hand to a co-allocated job ("oversubscribing cores through
// hyper-threading"). With smt_per_core == 2 there is exactly one secondary
// slot; higher SMT degrees expose several (R-A3 ablation).
#pragma once

#include <string>
#include <vector>

#include "util/check.hpp"
#include "util/types.hpp"

namespace cosched::cluster {

/// Hardware shape of a node. Homogeneous across a partition in this model.
struct NodeConfig {
  int cores = 32;          ///< physical cores
  int smt_per_core = 2;    ///< 1 (no SMT) to kMaxThreadsPerCore threads/core
  int memory_gb = 128;     ///< for future memory-aware policies

  int hardware_threads() const { return cores * smt_per_core; }
  /// Number of job slots: 1 primary + (smt_per_core - 1) secondaries.
  int slots() const { return smt_per_core; }
};

enum class NodeState : std::int8_t {
  kIdle,     ///< no job
  kBusy,     ///< at least the primary slot is taken
  kDown,     ///< failed / drained; not allocatable (failure injection)
};

/// One node's allocation state. Slot 0 is the primary.
class Node {
 public:
  Node(NodeId id, const NodeConfig& config);

  NodeId id() const { return id_; }
  const NodeConfig& config() const { return config_; }
  NodeState state() const { return state_; }

  bool is_idle() const { return state_ == NodeState::kIdle; }
  bool is_down() const { return state_ == NodeState::kDown; }

  /// The job holding the primary slot, or kInvalidJob.
  JobId primary_job() const { return slots_.empty() ? kInvalidJob : slots_[0]; }

  /// Jobs in secondary slots (excludes kInvalidJob entries).
  std::vector<JobId> secondary_jobs() const;

  /// All distinct jobs on the node, primary first.
  std::vector<JobId> jobs() const;

  /// Raw slot contents (slot 0 = primary, kInvalidJob = free slot).
  /// Allocation-free alternative to jobs() for hot scheduler scans.
  const std::vector<JobId>& slot_jobs() const { return slots_; }

  /// Number of jobs currently on the node.
  int job_count() const;

  /// True if the primary slot is free (node idle and up).
  bool primary_free() const;

  /// True if a secondary slot is free AND a primary job is present.
  /// (Secondary slots are only usable under an existing primary: sharing
  /// means joining a running job, not claiming an idle node's SMT threads.)
  bool secondary_free() const;

  /// Claims the primary slot. Requires primary_free().
  void assign_primary(JobId job);

  /// Claims one secondary slot. Requires secondary_free().
  void assign_secondary(JobId job);

  /// Removes a job from whichever slot it holds. If the primary leaves
  /// while secondaries remain, the first secondary is promoted to primary
  /// (the surviving job now owns the core's first threads).
  void remove(JobId job);

  /// Failure injection: marks the node down. Requires the node be empty.
  void set_down(bool down);

 private:
  NodeId id_;
  NodeConfig config_;
  NodeState state_ = NodeState::kIdle;
  /// slots_[0] = primary; slots_[1..smt-1] = secondaries. kInvalidJob = free.
  std::vector<JobId> slots_;

  void refresh_state();
};

}  // namespace cosched::cluster
