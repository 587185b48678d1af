// Time-series snapshots: gauges (utilization, queue depth, running
// count) sampled at a fixed sim-time cadence into the trace stream.
//
// The sampler rides the existing engine observer seam: after each
// executed event it checks whether the sim clock crossed the next sample
// tick and, if so, reads the controller's current state once and emits a
// single "snapshot" trace record. It never schedules engine events — an
// engine-side timer would consume EventIds and change digests — so idle
// stretches with no events produce no samples (the state is unchanged
// there anyway) and digest equality snapshots-on vs snapshots-off holds
// by construction (pinned by tests/obs_test.cpp).
#pragma once

#include "sim/engine.hpp"
#include "util/types.hpp"

namespace cosched::obs {

class Registry;
class Tracer;

/// What a snapshot reads. Implemented by the controller; the sampler
/// only ever calls this after an event executed, when controller state
/// is consistent.
class SnapshotSource {
 public:
  struct Sample {
    int total_nodes = 0;
    int busy_nodes = 0;       ///< nodes with at least one allocation
    std::int64_t pending = 0; ///< queue depth
    std::int64_t running = 0;
    /// Jobs in flight: records in the controller's live table. Every run
    /// retires a job at its final state, so this stays O(machine), not
    /// O(jobs ever submitted), whether or not retired records are kept.
    std::int64_t resident_jobs = 0;
  };

  virtual Sample snapshot_sample() const = 0;

 protected:
  ~SnapshotSource() = default;
};

/// Engine observer that samples a SnapshotSource every `period` of sim
/// time. Samples stamp the actual event time (keeping trace records in
/// sim-time order) plus the nominal tick they answer for; a gap longer
/// than one period emits one sample, not a backlog — gauges are
/// point-in-time reads, so catch-up samples would all repeat one value.
class SnapshotSampler final : public sim::EventObserver {
 public:
  SnapshotSampler(const SnapshotSource& source, SimDuration period,
                  Tracer* tracer, Registry* registry);

  void on_event_executed(SimTime when, sim::EventPriority priority,
                         sim::EventId id, const char* label) override;

 private:
  const SnapshotSource& source_;
  SimDuration period_;
  SimTime next_due_;
  Tracer* tracer_;      ///< may be null (registry-only sampling)
  Registry* registry_;  ///< may be null (trace-only sampling)
};

}  // namespace cosched::obs
