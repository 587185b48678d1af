// Scheduler plugin interface.
//
// A Scheduler is a pure decision procedure: given the host's view of the
// system (queue, machine, clock, models) it starts zero or more pending
// jobs by calling the host's start actions. The host (slurmlite's
// Controller) invokes schedule() whenever state changes — the same seam a
// SLURM select/sched plugin pair occupies.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "apps/app_model.hpp"
#include "cluster/machine.hpp"
#include "interference/corun_model.hpp"
#include "interference/estimator.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "util/types.hpp"
#include "workload/job.hpp"

namespace cosched::core {

/// The system view and action surface a scheduler operates through.
class SchedulerHost {
 public:
  virtual ~SchedulerHost() = default;

  virtual SimTime now() const = 0;
  virtual const cluster::Machine& machine() const = 0;

  /// Pending jobs in priority (queue) order. Invalidated by start actions;
  /// schedulers iterate over a copy.
  virtual const std::vector<JobId>& pending() const = 0;

  virtual const workload::Job& job(JobId id) const = 0;
  virtual const apps::AppModel& app_of(JobId id) const = 0;
  virtual const interference::CorunModel& corun() const = 0;

  /// Guaranteed upper bound on when a running job's nodes free: its start
  /// time plus walltime limit (the controller kills at the limit, and
  /// co-allocation gates keep dilated runs under it).
  virtual SimTime walltime_end(JobId running) const = 0;

  /// Observed pair-interference history for the learned gate mode;
  /// nullptr when the host keeps none (the oracle gate never needs it).
  virtual const interference::PairEstimator* pair_estimator() const {
    return nullptr;
  }

  /// Predicted runtime of a pending job, for backfill candidate tests when
  /// SchedulerOptions.use_walltime_prediction is set. Defaults to the raw
  /// request (no prediction). Never used for reservations or kills.
  virtual SimDuration predicted_runtime(JobId pending) const {
    return job(pending).walltime_limit;
  }

  // --- Observability (optional; see src/obs/) --------------------------------

  /// Decision tracer, or nullptr when tracing is off. Schedulers emit
  /// co_decision / shadow / backfill_reject records through it; emission
  /// must never influence decisions.
  virtual obs::Tracer* tracer() const { return nullptr; }

  /// Metrics registry, or nullptr when metrics collection is off.
  virtual obs::Registry* registry() const { return nullptr; }

  // --- Actions ---------------------------------------------------------------
  // Starts happen only inside Scheduler::schedule: the host settles rates
  // and places completion events once, after schedule() returns.

  /// Starts a pending job on free nodes (primary/exclusive slots).
  virtual void start_primary(JobId id, const std::vector<NodeId>& nodes) = 0;

  /// Starts a pending job co-allocated onto SMT secondary slots.
  virtual void start_secondary(JobId id, const std::vector<NodeId>& nodes) = 0;
};

class Scheduler {
 public:
  virtual ~Scheduler() = default;
  virtual std::string name() const = 0;
  /// Attempts to start pending jobs. Must be idempotent at fixed state.
  virtual void schedule(SchedulerHost& host) = 0;
};

/// The strategies the evaluation compares. The paper derives CoFirstFit
/// and CoBackfill; kCoConservative is this repo's extension completing the
/// matrix (conservative backfill + the same co-allocation pass).
enum class StrategyKind : std::int8_t {
  kFcfs,
  kFirstFit,
  kEasyBackfill,
  kConservativeBackfill,
  kCoFirstFit,      ///< first fit + SMT co-allocation
  kCoBackfill,      ///< EASY backfill + SMT co-allocation
  kCoConservative,  ///< conservative backfill + SMT co-allocation (ours)
};

const char* to_string(StrategyKind kind);
/// Parses "fcfs", "firstfit", "easy", "conservative", "cofirstfit",
/// "cobackfill", "coconservative" (case-insensitive). Throws
/// cosched::Error on unknown names.
StrategyKind parse_strategy(const std::string& name);
std::vector<StrategyKind> all_strategies();
/// True for the node-sharing strategies.
bool is_co_strategy(StrategyKind kind);

/// What knowledge the co-allocation gate may use (see pairing.hpp).
enum class GateMode : std::int8_t {
  /// Offline-profiled stress vectors through the interference model
  /// (the simulator's ground truth: an oracle upper bound).
  kOracle,
  /// Application classes only: admit exactly the compute x non-compute
  /// pairings. Cheap, deployable day one, no dilation prediction.
  kClassRule,
  /// Runtime-observed pair history (PairEstimator); falls back to the
  /// class rule for pairs with too few observations.
  kLearned,
};

const char* to_string(GateMode mode);

/// Gating parameters for the node-sharing strategies (see pairing.hpp).
struct CoAllocationOptions {
  /// theta: a co-placement must promise combined throughput >= 1 + theta
  /// (per extra job on the node). 0 accepts any non-losing pair.
  double pairing_threshold = 0.10;
  /// Safety cap on either side's predicted dilation. Keeping it at or below
  /// the workload's minimum walltime over-estimation factor (1.5 by
  /// default) guarantees co-allocated jobs never hit their walltime limit
  /// ("no overhead").
  double max_dilation = 1.40;
  GateMode gate_mode = GateMode::kOracle;
  /// kLearned: directed observations required before an estimate is
  /// trusted over the class-rule fallback.
  int min_samples = 3;
};

struct SchedulerOptions {
  CoAllocationOptions co;
  /// Backfill candidate tests use the host's learned runtime prediction
  /// instead of the raw walltime request (more backfill, small fairness
  /// risk for the head job; ablated in bench R-A6).
  bool use_walltime_prediction = false;
  /// Maximum queued jobs the EASY-family backfill pass examines behind the
  /// head (SLURM's bf_max_job_test); 0 = unlimited. Bounds pass cost on
  /// very deep queues.
  int backfill_depth = 0;
};

std::unique_ptr<Scheduler> make_scheduler(StrategyKind kind,
                                          SchedulerOptions options = {});

}  // namespace cosched::core
