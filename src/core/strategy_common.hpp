// Helpers shared by the scheduling strategies: primary starts, the EASY
// shadow computation, and profile construction.
#pragma once

#include "core/profile.hpp"
#include "core/scheduler.hpp"

namespace cosched::core {

/// Starts `id` on free primary slots if enough exist. Returns true on start.
bool try_start_primary(SchedulerHost& host, JobId id);

/// EASY reservation for the queue-head job.
struct ShadowInfo {
  SimTime shadow_time = 0;  ///< earliest time `head_nodes` nodes are free
  int extra_nodes = 0;      ///< nodes free at shadow_time beyond the head's
};

/// Computes the head job's reservation from walltime bounds. Requires that
/// the head does not fit right now (otherwise callers just start it).
/// Served in O(log busy) from the machine's incremental free-time index;
/// requires machine allocations to carry the same walltime ends the host
/// reports (the controller and FakeHost both guarantee this).
ShadowInfo compute_shadow(SchedulerHost& host, int head_nodes);

/// Builds the availability step function implied by node free times, with
/// origin now(). Conservative backfill carves its reservations into it.
AvailabilityProfile build_profile(SchedulerHost& host);

/// In-place variant: resets `profile` and rebuilds it for the current
/// machine state, reusing its breakpoint storage. Schedulers call this
/// with a long-lived instance so per-pass profile construction stops
/// allocating once capacity has grown to the working-set size.
void build_profile_into(SchedulerHost& host, AvailabilityProfile& profile);

}  // namespace cosched::core
