// Reference EASY shadow: the from-scratch recompute compute_shadow ran
// before the machine grew its incremental free-time index, kept as a
// test oracle.
//
// node_free_times walks every node and asks the host for each resident's
// walltime end; compute_shadow_reference takes the k-th smallest of those
// times with nth_element. Nothing is read from the index, so it cannot
// share a bug with it. tests/incremental_test.cpp fuzzes
// core::compute_shadow against it over randomized machine histories.
#pragma once

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "core/scheduler.hpp"
#include "core/strategy_common.hpp"

namespace cosched::testing {

/// For every node: the time its primary slot is guaranteed free — now()
/// for free nodes, the max walltime end of its resident jobs otherwise,
/// and kTimeInfinity for down nodes. Indexed by NodeId.
inline std::vector<SimTime> node_free_times(core::SchedulerHost& host) {
  const cluster::Machine& machine = host.machine();
  std::vector<SimTime> out(static_cast<std::size_t>(machine.node_count()),
                           kTimeInfinity);
  // A k-node job is resident on k nodes; memoize its walltime end so each
  // running job costs one host lookup instead of one per node.
  std::unordered_map<JobId, SimTime> walltime_ends;
  for (NodeId n = 0; n < machine.node_count(); ++n) {
    const cluster::Node& node = machine.node(n);
    if (node.is_down()) continue;
    if (node.primary_free()) {
      out[static_cast<std::size_t>(n)] = host.now();
      continue;
    }
    SimTime latest = host.now();
    for (JobId resident : node.slot_jobs()) {
      if (resident == kInvalidJob) continue;
      auto [it, fresh] = walltime_ends.try_emplace(resident);
      if (fresh) it->second = host.walltime_end(resident);
      latest = std::max(latest, it->second);
    }
    out[static_cast<std::size_t>(n)] = latest;
  }
  return out;
}

/// From-scratch recompute of core::compute_shadow via node_free_times()
/// and nth_element; the production query must agree exactly.
inline core::ShadowInfo compute_shadow_reference(core::SchedulerHost& host,
                                                 int head_nodes) {
  std::vector<SimTime> free_times = node_free_times(host);
  core::ShadowInfo info;
  if (head_nodes > static_cast<int>(free_times.size())) {
    info.shadow_time = kTimeInfinity;
    info.extra_nodes = 0;
    return info;
  }
  // Only the k-th smallest free time matters, not the full order.
  const auto kth =
      free_times.begin() + static_cast<std::ptrdiff_t>(head_nodes - 1);
  std::nth_element(free_times.begin(), kth, free_times.end());
  if (*kth == kTimeInfinity) {
    // The head cannot run on the machine as it stands (e.g. nodes down):
    // every job may backfill until the machine changes.
    info.shadow_time = kTimeInfinity;
    info.extra_nodes = 0;
    return info;
  }
  info.shadow_time = *kth;
  int avail = 0;
  for (SimTime t : free_times) avail += (t <= info.shadow_time) ? 1 : 0;
  info.extra_nodes = avail - head_nodes;
  return info;
}

}  // namespace cosched::testing
