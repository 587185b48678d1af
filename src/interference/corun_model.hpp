// SMT co-location interference model.
//
// The paper measures real co-located executions; this model substitutes a
// contention calculation over per-app stress vectors (DESIGN.md,
// "Substitutions"). For the jobs sharing a node's cores via SMT:
//
//   1. Shared-cache coupling inflates each job's effective memory-bandwidth
//      demand: m_j' = m_j * (1 + cache_coupling * sum of others' cache).
//   2. Each contended resource r in {issue, membw, network} has a capacity
//      C_r; instruction issue gains capacity with every extra active SMT
//      thread (1 + smt_issue_gain per co-runner), memory bandwidth and NIC
//      do not. Total demand D_r is the sum over co-located jobs.
//   3. A saturated resource (D_r > C_r) serves each job proportionally, so
//      phases bound by r dilate by D_r / C_r. A job's overall dilation takes
//      the worst resource, weighted by how much the job relies on it
//      (relevance = s_j[r] / max_r' s_j[r']), so jobs barely touching the
//      saturated resource are barely affected.
//   4. Pipeline sharing itself is never free: each co-runner multiplies in a
//      base penalty (1 + smt_base_penalty per extra job).
//
// The resulting pairwise combined throughput (1/sd_p + 1/sd_q) spans roughly
// 0.85x (two bandwidth-bound apps: sharing loses) to 1.6x (compute x
// bandwidth: sharing wins), matching the qualitative structure SMT
// co-scheduling studies report for HPC codes.
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "apps/app_model.hpp"

namespace cosched::interference {

struct CorunParams {
  /// Extra instruction-issue capacity contributed by each additional active
  /// hardware thread on a core (2-way SMT => 1.25x total issue capacity).
  double smt_issue_gain = 0.25;
  /// How strongly a co-runner's cache pressure inflates a job's effective
  /// memory-bandwidth demand.
  double cache_coupling = 0.25;
  /// Multiplicative dilation floor per co-runner (pipeline sharing cost).
  double smt_base_penalty = 0.08;
  /// Node DRAM bandwidth capacity in stress units.
  double membw_capacity = 1.0;
  /// NIC injection capacity in stress units.
  double network_capacity = 1.0;
};

class CorunModel {
 public:
  explicit CorunModel(CorunParams params = {});

  const CorunParams& params() const { return params_; }

  /// Dilation factor (>= 1) of each job when all of `jobs` share one node's
  /// cores via SMT, one process per hardware thread. jobs[0] is the primary;
  /// ordering does not change the math but callers keep the convention.
  /// A single job returns {1.0}: exclusive runs are the runtime baseline.
  std::vector<double> slowdowns(
      const std::vector<apps::StressVector>& jobs) const;

  /// Allocation-free core behind slowdowns(): writes job j's dilation to
  /// out[j], which must hold jobs.size() entries. At most
  /// kMaxThreadsPerCore jobs share a node (one per hardware thread), so
  /// the intermediate effective-bandwidth terms live on the stack. The
  /// vector overload runs exactly this math, so the two are bit-identical.
  void slowdowns_into(std::span<const apps::StressVector> jobs,
                      std::span<double> out) const;

  /// Convenience for the 2-way case: (primary dilation, secondary dilation).
  std::pair<double, double> pair_slowdowns(const apps::StressVector& p,
                                           const apps::StressVector& q) const;

  /// Sum of 1/dilation over the pair: node work rate relative to running
  /// the jobs one after the other exclusively. > 1 means sharing wins.
  double combined_throughput(const apps::StressVector& p,
                             const apps::StressVector& q) const;

 private:
  CorunParams params_;
};

}  // namespace cosched::interference
