// The slurmlite controller: a SLURM-shaped, event-driven workload manager.
//
// It owns the machine, the pending queue, and the running-job lifecycle:
//   submit -> (scheduler pass) -> start -> completion or walltime kill.
// Scheduler passes run after every state change (submission, completion,
// timeout), coalesced so one simulated instant triggers one pass. The
// strategy is a core::Scheduler plugin reached through the SchedulerHost
// seam, mirroring SLURM's sched/select plugin split.
#pragma once

#include <chrono>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "apps/catalog.hpp"
#include "audit/auditor.hpp"
#include "audit/fnv.hpp"
#include "cluster/machine.hpp"
#include "metrics/stream_metrics.hpp"
#include "core/priority.hpp"
#include "obs/registry.hpp"
#include "obs/snapshot.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "core/scheduler.hpp"
#include "core/walltime_predictor.hpp"
#include "interference/corun_model.hpp"
#include "interference/estimator.hpp"
#include "sim/engine.hpp"
#include "slurmlite/execution.hpp"
#include "workload/job.hpp"
#include "workload/source.hpp"

namespace cosched::slurmlite {

/// How the pending queue is ordered before each scheduler pass.
enum class QueuePolicy : std::int8_t {
  kFifo,      ///< submit order
  kPriority,  ///< multifactor priority (age, size, fair share)
};

/// A scripted node outage for failure-injection experiments.
struct NodeFailure {
  NodeId node = kInvalidNode;
  SimTime at = 0;
  SimDuration duration = kHour;  ///< node returns to service afterwards
};

struct ControllerConfig {
  int nodes = 32;
  cluster::NodeConfig node_config{};
  /// Network topology (flat by default) and primary-placement policy.
  cluster::TopologyParams topology{};
  cluster::PlacementPolicy placement = cluster::PlacementPolicy::kLowestId;
  core::StrategyKind strategy = core::StrategyKind::kEasyBackfill;
  core::SchedulerOptions scheduler_options{};
  interference::CorunParams corun_params{};

  QueuePolicy queue_policy = QueuePolicy::kFifo;
  core::PriorityWeights priority_weights{};

  /// Scripted outages; jobs running on a failing node are requeued
  /// (requeue_on_failure) or killed.
  std::vector<NodeFailure> failures;
  bool requeue_on_failure = true;

  /// Checkpoint interval for failure recovery: a requeued job resumes from
  /// its last checkpoint instead of from scratch. 0 disables (full rerun).
  SimDuration checkpoint_interval = 0;

  /// Observability hooks (src/obs/), both optional and non-owning; they
  /// must outlive the controller. The tracer receives decision records
  /// (submit/start/pass/co_decision/...), the registry counters and
  /// histograms. Neither ever influences a decision.
  obs::Tracer* tracer = nullptr;
  obs::Registry* registry = nullptr;

  /// Job lifecycle span ledger (obs/span.hpp), optional and non-owning.
  /// Attaching one disables the pass early-exit (first_considered marking
  /// needs every pass to run), exactly like attaching a tracer — and like
  /// the tracer it never influences a decision.
  obs::SpanLedger* spans = nullptr;

  /// Sim-time cadence for utilization/queue-depth snapshot records; 0
  /// disables sampling. Needs a tracer or registry to write into.
  SimDuration snapshot_period = 0;

  /// Every run retires a job the moment it reaches a final state
  /// (completed/timeout/cancelled): its 8-byte digest
  /// (audit::job_subdigest), final-state byte and metrics row are stored by
  /// submit index, and the record leaves the live table, so the run's
  /// metrics (stream_metrics()) and digest (fold_retired_digests()) never
  /// read a record. This flag only picks what happens to the retired
  /// record: false keeps it, in submit order, for job_records() and
  /// SimulationResult::jobs; true drops it, so resident per-job state is
  /// O(in-flight), not O(jobs). Decisions, the event stream and the digest
  /// are the same either way. See DESIGN "Fleet scale".
  bool retire_finished = false;
};

struct ControllerStats {
  std::size_t scheduler_passes = 0;
  std::size_t primary_starts = 0;
  std::size_t secondary_starts = 0;
  std::size_t completions = 0;
  std::size_t timeouts = 0;
  std::size_t requeues = 0;
  std::size_t node_failures = 0;
  std::size_t dependency_cancellations = 0;
  /// Wall-clock (host) time spent inside scheduler passes — the
  /// decision-path overhead the paper's "no overhead" claim covers. Only
  /// sampled when a registry or the profiler is attached; untraced runs
  /// pay no clock reads and report 0 here.
  std::chrono::nanoseconds scheduler_cpu{0};
};

class Controller final : public core::SchedulerHost,
                         public audit::SystemView,
                         public obs::SnapshotSource {
 public:
  Controller(sim::Engine& engine, const ControllerConfig& config,
             const apps::Catalog& catalog);
  ~Controller() override;

  Controller(const Controller&) = delete;
  Controller& operator=(const Controller&) = delete;

  /// Registers one job; its submit event fires at job.submit_time. Jobs
  /// that request more nodes than the machine has are rejected
  /// (kCancelled). Whole workloads go through submit_stream.
  void submit(workload::Job job);

  /// Attaches the arrival source every whole workload goes through, pulled
  /// lazily: only one arrival's submit event is pending at a time, and
  /// firing it pulls and schedules the next before the scheduler pass
  /// runs, so same-instant arrivals all enqueue ahead of the pass (kSubmit
  /// orders before kSchedule). An arrival that submits earlier than the
  /// one pulled before it throws Error naming the job. The source must
  /// outlive the drain (engine.run()).
  void submit_stream(workload::JobSource& source);
  /// submit_stream over a ListSource of `jobs`, which must outlive the
  /// drain (hence no overload for a temporary).
  void submit_all(const workload::JobList& jobs);
  void submit_all(workload::JobList&&) = delete;

  /// scancel: cancels a job in any live state. Pending/held jobs are
  /// removed from the queue; running jobs are killed and their resources
  /// released; dependents are cancelled in cascade. Returns false if the
  /// job is unknown or already finished. An arrival of an attached source
  /// is unknown until it is pulled (at the previous arrival's submit
  /// event): cancelling it earlier returns false, and it later runs.
  bool cancel(JobId id);

  /// All jobs in submission order: the kept records of retired jobs and
  /// the live records of the rest. Unavailable when retired records are
  /// dropped (ControllerConfig::retire_finished).
  workload::JobList job_records() const;
  /// Moves the kept records out, in submission order, without copying.
  /// Requires a drained run (every job retired); afterwards job_records()
  /// and job() no longer see them. Empty when retired records are dropped.
  workload::JobList take_job_records();

  /// True when retired records are dropped
  /// (ControllerConfig::retire_finished).
  bool retire_mode() const { return !keep_records_; }
  /// Jobs still in flight (records in the live table). Zero at the end of
  /// every drained run.
  std::size_t resident_jobs() const { return jobs_.size(); }
  /// Total jobs ever registered.
  std::size_t submitted_total() const { return submit_index_.size(); }
  /// Folds the per-job subdigests in submit order — byte-compatible with
  /// audit::mix_jobs over the records. Requires a drained run (every job
  /// retired).
  void fold_retired_digests(audit::Fnv64& hash) const;
  /// Schedule metrics folded as jobs retired, with busy and shared
  /// node-time from the occupancy meter, which counts every attempt (see
  /// metrics/stream_metrics.hpp).
  metrics::ScheduleMetrics stream_metrics(
      const metrics::EnergyParams& energy = {}) const;

  const ControllerStats& stats() const { return stats_; }
  const cluster::Machine& machine_state() const { return machine_; }

  /// Jobs currently pending / running (for squeue-style displays).
  std::vector<JobId> pending_ids() const { return pending_; }
  std::vector<JobId> running_ids() const;

  // --- core::SchedulerHost -----------------------------------------------------
  SimTime now() const override { return engine_.now(); }
  const cluster::Machine& machine() const override { return machine_; }
  const std::vector<JobId>& pending() const override { return pending_; }
  const workload::Job& job(JobId id) const override;
  const apps::AppModel& app_of(JobId id) const override;
  const interference::CorunModel& corun() const override { return corun_; }
  SimTime walltime_end(JobId running) const override;
  const interference::PairEstimator* pair_estimator() const override {
    return &estimator_;
  }
  SimDuration predicted_runtime(JobId pending) const override {
    const workload::Job& j = job(pending);
    return predictor_.predict(j.user, j.walltime_limit);
  }
  void start_primary(JobId id, const std::vector<NodeId>& nodes) override;
  void start_secondary(JobId id, const std::vector<NodeId>& nodes) override;
  obs::Tracer* tracer() const override { return tracer_; }
  obs::Registry* registry() const override { return registry_; }

  /// Decayed per-user usage for fair-share (read-only access for tools).
  const core::UsageTracker& usage() const { return usage_; }

  // --- audit::SystemView -------------------------------------------------------
  const cluster::Machine& audit_machine() const override { return machine_; }
  audit::StateCounts audit_state_counts() const override;
  std::vector<JobId> audit_running_jobs() const override {
    return running_ids();
  }
  const workload::Job& audit_job(JobId id) const override { return job(id); }
  std::size_t audit_queue_length() const override { return pending_.size(); }
  std::size_t audit_submitted() const override { return submitted_total(); }

  // --- obs::SnapshotSource -----------------------------------------------------
  obs::SnapshotSource::Sample snapshot_sample() const override;

 private:
  /// Partner value of a job whose running attempt shared no node.
  static constexpr AppId kNoPartner = -1;
  /// Everything the controller keeps about one in-flight job, from
  /// registration until retire_job moves the record out.
  struct Live {
    Live(workload::Job j, std::size_t idx)
        : job(std::move(j)), submit_idx(idx) {}

    workload::Job job;
    std::size_t submit_idx;
    /// The running attempt's walltime-kill and completion events,
    /// sim::kInvalidEvent while none is scheduled. resync_completions
    /// places the completion event once the start's rates are settled.
    sim::EventId kill_event = sim::kInvalidEvent;
    sim::EventId end_event = sim::kInvalidEvent;
    /// The running attempt's rate epoch (ExecutionModel::start); read only
    /// while the job runs.
    Epoch epoch;
    /// Checkpointed progress (exclusive-seconds) a requeued job resumes
    /// from.
    double resume_progress = 0;
    /// Jobs held (afterok) on this one, in the order they were held.
    std::vector<JobId> held;
    /// The running attempt's dominant co-location partner app, observed
    /// into the pair estimator when the attempt ends; kNoPartner if it
    /// shared no node.
    AppId partner = kNoPartner;
  };

  /// Validation + registration shared by submit/submit_stream. Returns the
  /// time the submit event should fire at, or nullopt when the job was
  /// rejected on entry (recorded as kCancelled, no event needed).
  std::optional<SimTime> register_job(workload::Job job);
  /// Pulls arrivals from stream_ until one registers, scheduling its
  /// submit event; detaches the stream when exhausted. Throws Error on an
  /// arrival earlier than the one pulled before it.
  void pump_stream();
  Live& entry(JobId id);
  /// job()'s miss path: a retired job, readable while its record is kept.
  const workload::Job& kept_job(JobId id) const;
  void on_submit(JobId id);
  void on_complete(JobId id);
  void on_timeout(JobId id);
  void on_node_fail(NodeId node, SimDuration duration);
  void request_schedule();
  void run_scheduler_pass();
  /// True when the pass can be skipped without altering any decision or
  /// observable byte (see run_scheduler_pass).
  bool pass_can_early_exit() const;
  void start_common(JobId id, const std::vector<NodeId>& nodes,
                    cluster::AllocationKind kind);
  /// Settles running rates against the machine at now() by draining its
  /// dirty-node list into ExecutionModel::refresh_rates, then cancels and
  /// places again the completion events of exactly the jobs whose predicted
  /// end moved, in submit-index order. Called at the instant of every
  /// topology change (once per pass for a pass's starts).
  void resync_completions();
  void remove_pending(JobId id);
  /// Puts the job on the eligible queue (dependency satisfied).
  void enqueue(JobId id);
  /// Releases or cancels the jobs held on `live` after it reached
  /// `success`.
  void settle_dependents(Live& live, bool success);
  void cancel_held(JobId id);
  /// Tears down a running job's events/allocation and requeues it.
  void requeue(JobId id);
  /// Ends the job's running attempt at now(), the one teardown every exit
  /// from kRunning shares: cancels its walltime-kill and completion
  /// events (cancelling the event whose handler is running is a no-op),
  /// vacates the occupancy meter, releases its nodes and charges the
  /// attempt's node-time to fair-share usage.
  /// Returns the attempt's partner app, if it shared a node, and clears
  /// it. Callers settle rates afterwards.
  std::optional<AppId> end_attempt(Live& live);
  /// Marks a running job killed at now() (walltime or node failure):
  /// state, end time and dilation, the `timeout` trace record, span and
  /// counters.
  void mark_timeout(Live& live);
  /// Re-ranks pending_ under the configured queue policy.
  void order_queue();
  /// Records the job's final state into the digest/state/metrics side
  /// tables and removes its entry: the record moves into kept_ when
  /// records are kept, otherwise it is freed. Must be the LAST action of a
  /// final-state transition — after spans, tracer, registry, and
  /// settle_dependents have all seen the record.
  void retire_job(Live& live);
  /// `id`'s lifecycle state, whether its record is live or retired.
  workload::JobState job_state(JobId id) const;

  sim::Engine& engine_;
  const apps::Catalog& catalog_;
  interference::CorunModel corun_;
  cluster::Machine machine_;
  ExecutionModel execution_;
  std::unique_ptr<core::Scheduler> scheduler_;
  /// The strategy may start jobs on secondary slots (a co strategy).
  const bool places_secondaries_;

  /// In-flight jobs; a job leaves at retirement.
  std::unordered_map<JobId, Live> jobs_;
  /// Jobs in kRunning (entries of jobs_ with a live epoch).
  std::size_t running_count_ = 0;
  /// !ControllerConfig::retire_finished.
  const bool keep_records_;
  /// Retired records by submit index, grown only when records are kept.
  /// A slot holds just the job id until retire_job moves the record in.
  workload::JobList kept_;
  // --- retirement side tables, one slot per submission --------------------
  /// Per-job audit::job_subdigest by submit index, written at retirement.
  std::vector<std::uint64_t> retired_digest_;
  /// retired_state_ value of a job not yet retired.
  static constexpr std::uint8_t kLive = 0xFF;
  /// Final JobState byte by submit index (kLive while the job is live);
  /// keeps depends_on queries answerable after the record is freed.
  std::vector<std::uint8_t> retired_state_;
  /// Final-state census of retired jobs, indexed by JobState value, so
  /// audit_state_counts stays exact after records are freed.
  std::size_t retired_counts_[6] = {0, 0, 0, 0, 0, 0};
  metrics::StreamAccumulator acc_;
  metrics::OccupancyMeter meter_;
  std::vector<JobId> pending_;
  interference::PairEstimator estimator_;
  core::WalltimePredictor predictor_;
  SimDuration checkpoint_interval_;
  QueuePolicy queue_policy_;
  core::PriorityCalculator priority_;
  core::UsageTracker usage_;
  bool requeue_on_failure_;
  bool pass_scheduled_ = false;
  /// Attached arrival stream (submit_stream), nullptr once exhausted.
  workload::JobSource* stream_ = nullptr;
  /// The source submit_all attaches.
  std::optional<workload::ListSource> list_;
  /// Submit time of the last arrival pulled from a stream.
  SimTime last_arrival_ = std::numeric_limits<SimTime>::min();
  /// resync_completions scratch: the entries of the jobs whose end moved,
  /// sorted by submit index so EventIds are handed out in submit order.
  std::vector<Live*> moved_;
  /// Deterministic cost counters, bound only when a registry is attached:
  /// epochs closed by a rate change, and completion events cancelled and
  /// placed again.
  obs::Counter* rate_changes_ = nullptr;
  obs::Counter* end_reschedules_ = nullptr;
  /// Submit index of every job ever registered, live or retired.
  std::unordered_map<JobId, std::size_t> submit_index_;
  ControllerStats stats_;
  obs::Tracer* tracer_;      // non-owning, may be nullptr (config.tracer)
  obs::Registry* registry_;  // non-owning, may be nullptr (config.registry)
  obs::SpanLedger* spans_;   // non-owning, may be nullptr (config.spans)
  /// Snapshot sampler riding the engine observer seam; owned here, added
  /// to the engine in the constructor and removed in the destructor (the
  /// engine outlives the controller in run_stream — engine is declared
  /// first).
  std::unique_ptr<obs::SnapshotSampler> sampler_;
};

}  // namespace cosched::slurmlite
