// Post-event invariant auditing for the scheduler simulator.
//
// StateAuditor hangs off the sim engine's observer seam and, after every
// executed event, validates the scheduler-state invariants the headline
// numbers rely on: resource counts never go negative, allocations only
// reference up nodes, jobs are conserved across states, and simulated time
// never moves backwards. Violations abort through COSCHED_CHECK with a
// diagnostic — the auditor is a debugging net, not an error channel.
//
// The auditor sees the batch system through the narrow SystemView
// interface (implemented by slurmlite::Controller) so the audit layer
// stays below slurmlite in the dependency order.
#pragma once

#include <cstddef>
#include <vector>

#include "cluster/machine.hpp"
#include "sim/engine.hpp"
#include "util/types.hpp"
#include "workload/job.hpp"

namespace cosched::audit {

/// Job census by lifecycle state.
struct StateCounts {
  std::size_t pending = 0;
  std::size_t held = 0;
  std::size_t running = 0;
  std::size_t completed = 0;
  std::size_t timeout = 0;
  std::size_t cancelled = 0;

  std::size_t total() const {
    return pending + held + running + completed + timeout + cancelled;
  }
};

/// The read-only slice of batch-system state the auditor validates.
/// Method names carry an audit_ prefix so implementers (which already
/// expose SchedulerHost and public query surfaces) never collide.
class SystemView {
 public:
  virtual ~SystemView() = default;

  virtual const cluster::Machine& audit_machine() const = 0;
  virtual StateCounts audit_state_counts() const = 0;
  /// Jobs currently in JobState::kRunning.
  virtual std::vector<JobId> audit_running_jobs() const = 0;
  virtual const workload::Job& audit_job(JobId id) const = 0;
  /// Length of the eligible (pending) queue. May be smaller than the
  /// pending state count: jobs whose submit event has not fired yet are
  /// kPending but not queued.
  virtual std::size_t audit_queue_length() const = 0;
  /// Total jobs ever submitted (all states).
  virtual std::size_t audit_submitted() const = 0;
};

class StateAuditor final : public sim::EventObserver {
 public:
  explicit StateAuditor(const SystemView& view) : view_(view) {}

  /// Validates all invariants against the view at time `now`. Aborts with
  /// a diagnostic on violation.
  void validate(SimTime now) const;

  void on_event_executed(SimTime when, sim::EventPriority priority,
                         sim::EventId id, const char* label) override;

 private:
  const SystemView& view_;
  SimTime last_time_ = 0;
};

}  // namespace cosched::audit
