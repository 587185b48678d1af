// One-call experiment runner: build machine + controller, pull a workload
// (generated, listed or streamed) through one arrival path, run the event
// loop to completion, compute metrics. Every bench and example goes
// through this entry point.
#pragma once

#include <cstdint>

#include "apps/catalog.hpp"
#include "audit/determinism.hpp"
#include "metrics/metrics.hpp"
#include "slurmlite/controller.hpp"
#include "workload/generator.hpp"
#include "workload/source.hpp"

namespace cosched::slurmlite {

/// Whether the run installs the post-event invariant auditor
/// (audit::StateAuditor). kAuto enables it in debug builds (!NDEBUG) so
/// every debug-build test audits for free; release builds opt in with kOn.
enum class AuditMode : std::int8_t {
  kAuto,
  kOn,
  kOff,
};

struct SimulationSpec {
  ControllerConfig controller{};
  workload::GeneratorParams workload{};
  std::uint64_t seed = 1;
  AuditMode audit = AuditMode::kAuto;
  /// Compute SimulationResult::event_stream_hash (determinism checks).
  bool hash_events = false;
};

struct SimulationResult {
  /// Final lifecycle records in submission order, moved out of the
  /// controller after the drain; EMPTY when spec.controller.retire_finished
  /// was set (retired records are dropped). Nothing else in the result is
  /// computed from them.
  workload::JobList jobs;
  /// Folded as jobs retired (Controller::stream_metrics): busy and shared
  /// node-time count every attempt, so under requeues they exceed what
  /// metrics::compute(jobs) sees in the final records.
  metrics::ScheduleMetrics metrics;
  ControllerStats stats;
  std::size_t events_executed = 0;
  /// FNV-1a digest of the executed event stream folded with the final job
  /// records; 0 unless SimulationSpec::hash_events was set.
  std::uint64_t event_stream_hash = 0;
};

/// Runs the workload generated from spec.workload (seeded), pulled job
/// by job through run_stream from a GeneratorJobSource.
SimulationResult run_simulation(const SimulationSpec& spec,
                                const apps::Catalog& catalog);

/// Runs an explicit job list (e.g. an SWF replay) under spec.controller:
/// run_stream over a ListSource, so it equals run_stream over the same
/// jobs event for event and digest for digest.
SimulationResult run_jobs(const SimulationSpec& spec,
                          const apps::Catalog& catalog,
                          const workload::JobList& jobs);

/// Runs jobs pulled lazily from `source`, the one ingestion path every run
/// takes: each submit event pulls the next arrival, so pending state stays
/// O(running jobs) and a 100k-job trace never fully materializes. Throws
/// Error on an arrival that submits earlier than the one before it.
SimulationResult run_stream(const SimulationSpec& spec,
                            const apps::Catalog& catalog,
                            workload::JobSource& source);

/// One hashed run of the seeded simulation (forces hash_events).
audit::RunDigest run_digest(const SimulationSpec& spec,
                            const apps::Catalog& catalog);

/// Runs the same seeded simulation twice and compares the event-stream
/// digests; a divergence means the simulator is nondeterministic.
audit::DeterminismReport check_determinism(const SimulationSpec& spec,
                                           const apps::Catalog& catalog);

}  // namespace cosched::slurmlite
