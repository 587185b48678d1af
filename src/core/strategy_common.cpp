#include "core/strategy_common.hpp"

#include "util/check.hpp"

namespace cosched::core {

bool try_start_primary(SchedulerHost& host, JobId id) {
  const workload::Job& job = host.job(id);
  COSCHED_CHECK(job.state == workload::JobState::kPending);
  auto nodes = host.machine().find_free_nodes(job.nodes);
  if (!nodes) return false;
  host.start_primary(id, *nodes);
  return true;
}

ShadowInfo compute_shadow(SchedulerHost& host, int head_nodes) {
  COSCHED_CHECK(head_nodes > 0);
  // Served from the machine's maintained order statistics: free nodes
  // contribute now(), busy nodes their clamped cached walltime end, down
  // nodes infinity — the same multiset a per-node walk rebuilds, without
  // touching every node. tests/incremental_test.cpp fuzzes the agreement
  // with the from-scratch oracle in tests/shadow_reference.hpp across
  // randomized machine histories.
  const cluster::Machine& machine = host.machine();
  const SimTime now = host.now();
  ShadowInfo info;
  const SimTime kth = machine.kth_free_time(head_nodes - 1, now);
  if (kth == kTimeInfinity) {
    // Unreachable head (more nodes than could ever be up): every job may
    // backfill until the machine changes.
    info.shadow_time = kTimeInfinity;
    info.extra_nodes = 0;
    return info;
  }
  info.shadow_time = kth;
  info.extra_nodes = machine.free_count_at(kth, now) - head_nodes;
  return info;
}

AvailabilityProfile build_profile(SchedulerHost& host) {
  AvailabilityProfile profile(0, 0);
  build_profile_into(host, profile);
  return profile;
}

void build_profile_into(SchedulerHost& host, AvailabilityProfile& profile) {
  const cluster::Machine& machine = host.machine();
  const SimTime now = host.now();
  profile.reset(machine.node_count(), now);
  // reserve() is commutative (step-function addition over the union of
  // split points), so iterating the sorted busy ends instead of node order
  // yields the identical profile the per-node rebuild produced.
  machine.for_each_busy_end([&profile, now](SimTime end) {
    if (end <= now) return;  // slot frees the instant the pass runs
    if (end == kTimeInfinity) {
      profile.reserve(now, kTimeInfinity / 2, 1);
    } else {
      profile.reserve(now, end, 1);
    }
  });
  // Down nodes: never available. Reserve the entire horizon by carving
  // from origin with no end breakpoint — approximate with a huge bound.
  const int down = machine.node_count() - machine.free_node_count() -
                   machine.busy_tracked_count();
  for (int i = 0; i < down; ++i) {
    profile.reserve(now, kTimeInfinity / 2, 1);
  }
}

}  // namespace cosched::core
