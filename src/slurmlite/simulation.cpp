#include "slurmlite/simulation.hpp"

#include <optional>

#include "audit/auditor.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "sim/engine.hpp"
#include "util/check.hpp"

namespace cosched::slurmlite {

namespace {

bool audit_enabled(AuditMode mode) {
  switch (mode) {
    case AuditMode::kOn:
      return true;
    case AuditMode::kOff:
      return false;
    case AuditMode::kAuto:
#ifdef NDEBUG
      return false;
#else
      return true;
#endif
  }
  return false;
}

}  // namespace

SimulationResult run_stream(const SimulationSpec& spec,
                            const apps::Catalog& catalog,
                            workload::JobSource& source) {
  COSCHED_PROF_SCOPE("simulate");
  sim::Engine engine;
  Controller controller(engine, spec.controller, catalog);

  std::optional<audit::StateAuditor> auditor;
  if (audit_enabled(spec.audit)) {
    auditor.emplace(controller);
    engine.add_observer(&*auditor);
  }
  std::optional<audit::EventStreamHasher> hasher;
  if (spec.hash_events) {
    hasher.emplace();
    engine.add_observer(&*hasher);
  }
  // Mirror the labeled engine-event stream into the trace; observation
  // only, so digests stay identical with the tracer on or off.
  std::optional<obs::EventTracer> event_tracer;
  if (spec.controller.tracer != nullptr) {
    event_tracer.emplace(*spec.controller.tracer);
    engine.add_observer(&*event_tracer);
  }

  controller.submit_stream(source);
  engine.run();

  SimulationResult result;
  result.stats = controller.stats();
  result.events_executed = engine.executed();
  // Post-run invariants: machine drained, every job retired (a job still
  // resident never reached a final state).
  controller.machine_state().check_invariants();
  COSCHED_CHECK_MSG(controller.resident_jobs() == 0,
                    controller.resident_jobs()
                        << " of " << controller.submitted_total()
                        << " jobs never finished");
  // Metrics come from the stream accumulator and the occupancy meter, the
  // digest from the stored per-job subdigests.
  result.metrics = controller.stream_metrics();
  if (hasher) {
    controller.fold_retired_digests(hasher->hash());
    result.event_stream_hash = hasher->digest();
  }
  result.jobs = controller.take_job_records();
  return result;
}

SimulationResult run_jobs(const SimulationSpec& spec,
                          const apps::Catalog& catalog,
                          const workload::JobList& jobs) {
  workload::ListSource source(jobs);
  return run_stream(spec, catalog, source);
}

SimulationResult run_simulation(const SimulationSpec& spec,
                                const apps::Catalog& catalog) {
  const workload::Generator generator(spec.workload, catalog);
  workload::GeneratorJobSource source(generator,
                                      Pcg32(spec.seed, /*stream=*/0x5eed));
  return run_stream(spec, catalog, source);
}

audit::RunDigest run_digest(const SimulationSpec& spec,
                            const apps::Catalog& catalog) {
  SimulationSpec hashed = spec;
  hashed.hash_events = true;
  const SimulationResult result = run_simulation(hashed, catalog);
  return audit::RunDigest{result.event_stream_hash, result.events_executed};
}

audit::DeterminismReport check_determinism(const SimulationSpec& spec,
                                           const apps::Catalog& catalog) {
  return audit::check_determinism(
      [&] { return run_digest(spec, catalog); });
}

}  // namespace cosched::slurmlite
