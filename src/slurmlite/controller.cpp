#include "slurmlite/controller.hpp"

#include <algorithm>
#include <utility>

#include "audit/determinism.hpp"
#include "obs/profiler.hpp"
#include "util/check.hpp"
#include "util/log.hpp"

namespace cosched::slurmlite {

Controller::Controller(sim::Engine& engine, const ControllerConfig& config,
                       const apps::Catalog& catalog)
    : engine_(engine),
      catalog_(catalog),
      corun_(config.corun_params),
      machine_(config.nodes, config.node_config, config.topology,
               config.placement),
      execution_(machine_, catalog_, corun_),
      scheduler_(core::make_scheduler(config.strategy,
                                      config.scheduler_options)),
      places_secondaries_(core::is_co_strategy(config.strategy)),
      keep_records_(!config.retire_finished),
      estimator_(catalog.size()),
      checkpoint_interval_(config.checkpoint_interval),
      queue_policy_(config.queue_policy),
      priority_(config.priority_weights, config.nodes),
      requeue_on_failure_(config.requeue_on_failure),
      tracer_(config.tracer),
      registry_(config.registry),
      spans_(config.spans) {
  if (tracer_ != nullptr) tracer_->bind(engine_);
  if (registry_ != nullptr) {
    rate_changes_ = &registry_->counter("rate_changes");
    end_reschedules_ = &registry_->counter("end_reschedules");
  }
  machine_.set_tracer(tracer_);
  meter_.reset(config.nodes);
  COSCHED_REQUIRE(config.snapshot_period >= 0,
                  "snapshot period must be non-negative");
  if (config.snapshot_period > 0 &&
      (tracer_ != nullptr || registry_ != nullptr)) {
    sampler_ = std::make_unique<obs::SnapshotSampler>(
        *this, config.snapshot_period, tracer_, registry_);
    engine_.add_observer(sampler_.get());
  }
  COSCHED_REQUIRE(config.checkpoint_interval >= 0,
                  "checkpoint interval must be non-negative");
  for (const NodeFailure& failure : config.failures) {
    COSCHED_REQUIRE(failure.node >= 0 && failure.node < config.nodes,
                    "failure references unknown node " << failure.node);
    COSCHED_REQUIRE(failure.at >= 0 && failure.duration > 0,
                    "failure timing must be non-negative");
    engine_.schedule_at(failure.at, sim::EventPriority::kTimer, "node_fail",
                        [this, node = failure.node,
                         duration = failure.duration] {
                          on_node_fail(node, duration);
                        });
  }
}

Controller::~Controller() {
  if (sampler_ != nullptr) engine_.remove_observer(sampler_.get());
}

std::optional<SimTime> Controller::register_job(workload::Job job) {
  COSCHED_REQUIRE(job.id != kInvalidJob, "job must have an id");
  // submit_index_ covers every job ever registered, live or retired.
  COSCHED_REQUIRE(!submit_index_.count(job.id),
                  "duplicate job id " << job.id);
  COSCHED_REQUIRE(job.nodes > 0,
                  "job " << job.id << " requests " << job.nodes << " nodes");
  COSCHED_REQUIRE(job.walltime_limit > 0,
                  "job " << job.id << " has no walltime limit");
  COSCHED_REQUIRE(job.base_runtime > 0,
                  "job " << job.id << " has no runtime");
  COSCHED_REQUIRE(job.app >= 0 && job.app < catalog_.size(),
                  "job " << job.id << " references unknown app " << job.app);
  COSCHED_REQUIRE(job.depends_on == kInvalidJob ||
                      submit_index_.count(job.depends_on),
                  "job " << job.id << " depends on unknown job "
                         << job.depends_on);
  const JobId id = job.id;
  const std::size_t idx = submit_index_.size();
  submit_index_.emplace(id, idx);
  // Side tables grow one sentinel slot per submission; retire_job fills
  // them when the job reaches a final state.
  retired_digest_.push_back(0);
  retired_state_.push_back(kLive);
  if (keep_records_) {
    kept_.emplace_back();
    kept_.back().id = id;
  }
  const SimTime when = std::max(job.submit_time, engine_.now());
  Live& live = jobs_.try_emplace(id, std::move(job), idx).first->second;
  if (live.job.nodes > machine_.node_count()) {
    live.job.state = workload::JobState::kCancelled;
    COSCHED_WARN("job " << id << " rejected: requests more nodes than exist");
    retire_job(live);
    return std::nullopt;
  }
  return when;
}

void Controller::submit(workload::Job job) {
  const JobId id = job.id;
  const std::optional<SimTime> when = register_job(std::move(job));
  if (!when) return;
  engine_.schedule_at(*when, sim::EventPriority::kSubmit, "submit",
                      [this, id] { on_submit(id); });
}

void Controller::submit_stream(workload::JobSource& source) {
  COSCHED_REQUIRE(stream_ == nullptr, "a job stream is already attached");
  stream_ = &source;
  pump_stream();
}

void Controller::submit_all(const workload::JobList& jobs) {
  COSCHED_REQUIRE(stream_ == nullptr, "a job stream is already attached");
  list_.emplace(jobs);
  submit_stream(*list_);
}

void Controller::pump_stream() {
  while (stream_ != nullptr) {
    std::optional<workload::Job> job = stream_->next();
    if (!job) {
      stream_ = nullptr;
      return;
    }
    // A lazy pull cannot reorder: arrival i+1 is scheduled from arrival
    // i's submit event, so it must not be due before it.
    COSCHED_REQUIRE(job->submit_time >= last_arrival_,
                    "job " << job->id << " submits at "
                           << to_seconds(job->submit_time)
                           << " s, before the arrival pulled ahead of it ("
                           << to_seconds(last_arrival_)
                           << " s); arrivals must be in submit order");
    last_arrival_ = job->submit_time;
    const JobId id = job->id;
    const std::optional<SimTime> when = register_job(std::move(*job));
    if (!when) continue;  // rejected on entry: keep pulling
    // The pull of arrival i+1 happens at the top of arrival i's submit
    // event, before on_submit can request a pass: the next submit event
    // exists (and, at the same instant, outranks kSchedule) before any
    // pass event, so the pass sees every same-time arrival.
    engine_.schedule_at(*when, sim::EventPriority::kSubmit, "submit",
                        [this, id] {
                          pump_stream();
                          on_submit(id);
                        });
    return;
  }
}

workload::JobList Controller::job_records() const {
  COSCHED_REQUIRE(keep_records_,
                  "job records were dropped as jobs finished "
                  "(ControllerConfig::retire_finished); use stream_metrics / "
                  "fold_retired_digests instead");
  workload::JobList out;
  out.reserve(kept_.size());
  for (std::size_t idx = 0; idx < kept_.size(); ++idx) {
    out.push_back(retired_state_[idx] == kLive ? jobs_.at(kept_[idx].id).job
                                              : kept_[idx]);
  }
  return out;
}

workload::JobList Controller::take_job_records() {
  COSCHED_CHECK_MSG(jobs_.empty(),
                    "records taken before every job retired: "
                        << submit_index_.size() - jobs_.size() << " of "
                        << submit_index_.size());
  return std::move(kept_);
}

void Controller::retire_job(Live& live) {
  const workload::Job& j = live.job;
  const JobId id = j.id;
  COSCHED_CHECK_MSG(j.state == workload::JobState::kCompleted ||
                        j.state == workload::JobState::kTimeout ||
                        j.state == workload::JobState::kCancelled,
                    "retiring job " << id << " in non-final state");
  const std::size_t idx = live.submit_idx;
  COSCHED_CHECK_MSG(retired_state_[idx] == kLive,
                    "job " << id << " retired twice");
  retired_digest_[idx] = audit::job_subdigest(j);
  retired_state_[idx] = static_cast<std::uint8_t>(j.state);
  ++retired_counts_[static_cast<std::size_t>(j.state)];
  acc_.record(idx, j);
  if (keep_records_) kept_[idx] = std::move(live.job);
  jobs_.erase(id);
}

workload::JobState Controller::job_state(JobId id) const {
  const auto it = jobs_.find(id);
  if (it != jobs_.end()) return it->second.job.state;
  const auto idx = submit_index_.find(id);
  COSCHED_CHECK_MSG(idx != submit_index_.end(), "unknown job " << id);
  const std::uint8_t state = retired_state_[idx->second];
  COSCHED_CHECK_MSG(state != kLive, "job " << id << " missing but not retired");
  return static_cast<workload::JobState>(state);
}

void Controller::fold_retired_digests(audit::Fnv64& hash) const {
  COSCHED_CHECK_MSG(jobs_.empty(),
                    "digest fold before every job retired: "
                        << submit_index_.size() - jobs_.size() << " of "
                        << submit_index_.size());
  // Same bytes as audit::mix_jobs over the records: job count, then each
  // subdigest in submit order.
  hash.mix_u64(submit_index_.size());
  for (std::uint64_t d : retired_digest_) hash.mix_u64(d);
}

metrics::ScheduleMetrics Controller::stream_metrics(
    const metrics::EnergyParams& energy) const {
  return acc_.finalize(machine_.node_count(), meter_, energy);
}

audit::StateCounts Controller::audit_state_counts() const {
  audit::StateCounts counts;
  // Counting is order-independent, so iterating the hash map is safe here.
  for (const auto& [id, live] : jobs_) {  // cosched-lint: allow(no-unordered-iteration)
    (void)id;
    switch (live.job.state) {
      case workload::JobState::kPending: ++counts.pending; break;
      case workload::JobState::kHeld: ++counts.held; break;
      case workload::JobState::kRunning: ++counts.running; break;
      case workload::JobState::kCompleted: ++counts.completed; break;
      case workload::JobState::kTimeout: ++counts.timeout; break;
      case workload::JobState::kCancelled: ++counts.cancelled; break;
    }
  }
  // Retired jobs left jobs_ but still count toward conservation.
  using S = workload::JobState;
  counts.completed += retired_counts_[static_cast<std::size_t>(S::kCompleted)];
  counts.timeout += retired_counts_[static_cast<std::size_t>(S::kTimeout)];
  counts.cancelled += retired_counts_[static_cast<std::size_t>(S::kCancelled)];
  return counts;
}

std::vector<JobId> Controller::running_ids() const {
  std::vector<std::pair<std::size_t, JobId>> running;
  running.reserve(running_count_);
  // Hash order is undone by the sort on submit index below.
  for (const auto& [id, live] : jobs_) {  // cosched-lint: allow(no-unordered-iteration)
    if (live.job.state == workload::JobState::kRunning) {
      running.emplace_back(live.submit_idx, id);
    }
  }
  std::sort(running.begin(), running.end());
  std::vector<JobId> out;
  out.reserve(running.size());
  for (const auto& [idx, id] : running) out.push_back(id);
  return out;
}

const workload::Job& Controller::job(JobId id) const {
  const auto it = jobs_.find(id);
  return it != jobs_.end() ? it->second.job : kept_job(id);
}

const workload::Job& Controller::kept_job(JobId id) const {
  const auto idx = submit_index_.find(id);
  COSCHED_CHECK_MSG(idx != submit_index_.end() && idx->second < kept_.size() &&
                        retired_state_[idx->second] != kLive,
                    "unknown job " << id);
  return kept_[idx->second];
}

Controller::Live& Controller::entry(JobId id) {
  const auto it = jobs_.find(id);
  COSCHED_CHECK_MSG(it != jobs_.end(), "unknown job " << id);
  return it->second;
}

const apps::AppModel& Controller::app_of(JobId id) const {
  return catalog_.get(job(id).app);
}

SimTime Controller::walltime_end(JobId running) const {
  const workload::Job& j = job(running);
  COSCHED_CHECK_MSG(j.state == workload::JobState::kRunning,
                    "walltime_end of non-running job " << running);
  return j.start_time + j.walltime_limit;
}

void Controller::on_submit(JobId id) {
  const auto it = jobs_.find(id);
  // scancel'd before the submit event fired: the cancel retired the record.
  if (it == jobs_.end()) return;
  workload::Job& j = it->second.job;
  COSCHED_CHECK(j.state == workload::JobState::kPending);
  COSCHED_DEBUG("t=" << format_duration(now()) << " submit job " << id
                     << " (" << j.nodes << " nodes)");
  if (tracer_ != nullptr) tracer_->submit(id, j.nodes);
  if (spans_ != nullptr) spans_->on_submit(id, now());
  if (registry_ != nullptr) registry_->counter("jobs_submitted").inc();
  if (j.depends_on != kInvalidJob) {
    // job_state (not job()): the dependency may already be retired.
    switch (job_state(j.depends_on)) {
      case workload::JobState::kCompleted:
        break;  // already satisfied: queue immediately
      case workload::JobState::kTimeout:
      case workload::JobState::kCancelled:
        cancel_held(id);
        return;
      default:
        j.state = workload::JobState::kHeld;
        entry(j.depends_on).held.push_back(id);
        return;
    }
  }
  enqueue(id);
}

void Controller::enqueue(JobId id) {
  entry(id).job.state = workload::JobState::kPending;
  pending_.push_back(id);
  request_schedule();
}

void Controller::settle_dependents(Live& live, bool success) {
  const std::vector<JobId> waiting = std::exchange(live.held, {});
  for (JobId w : waiting) {
    if (success) {
      enqueue(w);
    } else {
      cancel_held(w);
    }
  }
}

void Controller::cancel_held(JobId id) {
  Live& live = entry(id);
  workload::Job& j = live.job;
  j.state = workload::JobState::kCancelled;
  if (spans_ != nullptr) spans_->on_end(id, now(), obs::SpanEnd::kCancelled);
  ++stats_.dependency_cancellations;
  COSCHED_INFO("t=" << format_duration(now()) << " job " << id
                    << " cancelled: dependency " << j.depends_on
                    << " did not complete");
  settle_dependents(live, /*success=*/false);
  retire_job(live);
}

void Controller::request_schedule() {
  if (pass_scheduled_) return;
  pass_scheduled_ = true;
  engine_.schedule_at(engine_.now(), sim::EventPriority::kSchedule,
                      "schedule_pass", [this] {
                        pass_scheduled_ = false;
                        run_scheduler_pass();
                      });
}

void Controller::order_queue() {
  if (queue_policy_ != QueuePolicy::kPriority || pending_.size() < 2) return;
  std::vector<std::pair<double, JobId>> ranked;
  ranked.reserve(pending_.size());
  for (JobId id : pending_) {
    const workload::Job& j = job(id);
    ranked.emplace_back(
        -priority_.priority(j, now(), usage_.usage(j.user, now())), id);
  }
  // Ties (equal priority) break on job id: older submissions first.
  std::sort(ranked.begin(), ranked.end());
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    pending_[i] = ranked[i].second;
  }
}

bool Controller::pass_can_early_exit() const {
  // Early exit must be invisible: a skipped pass may not change a single
  // byte of any digest, golden metric, or trace. Strategies emit trace
  // records (shadow, backfill_reject, co_decision) and registry samples
  // from inside their bodies, so any attached observer disables skipping
  // outright. The span ledger likewise needs every pass: first_considered
  // marking happens at the top of a real pass.
  if (tracer_ != nullptr || registry_ != nullptr || spans_ != nullptr) {
    return false;
  }
  // Saturated machine: with no free primary slot, a primary-only strategy
  // can start nothing (every primary start goes through find_free_nodes);
  // a co strategy also needs no free secondary slot (its other start path
  // is the free-secondary scan). Sound under any queue policy:
  // order_queue sorts on a complete (priority, id) key, so skipping
  // intermediate re-sorts cannot change a later pass's order.
  return machine_.free_node_count() == 0 &&
         (!places_secondaries_ || machine_.free_secondary_nodes().empty());
}

void Controller::run_scheduler_pass() {
  if (pending_.empty()) return;
  COSCHED_PROF_SCOPE("schedule_pass");
  if (pass_can_early_exit()) {
    // The skipped pass still counts (stats parity with a full no-op pass).
    // It has nothing to settle: every topology change outside a pass
    // already settled rates and completion events at its own instant.
    ++stats_.scheduler_passes;
    return;
  }
  order_queue();
  if (spans_ != nullptr) {
    // Every job this pass will look at is "considered" now; the call is
    // idempotent, so re-marking survivors of earlier passes is free of
    // bookkeeping here.
    for (JobId id : pending_) spans_->on_first_considered(id, now());
  }
  ++stats_.scheduler_passes;
  const std::uint64_t pass = stats_.scheduler_passes;
  const std::size_t primary_before = stats_.primary_starts;
  const std::size_t secondary_before = stats_.secondary_starts;
  if (tracer_ != nullptr) {
    tracer_->pass_begin(pass, pending_.size(), running_count_,
                        machine_.free_node_count(),
                        static_cast<int>(machine_.free_secondary_nodes()
                                             .size()));
  }
  // Host clock measures real decision cost only; it never feeds back into
  // simulated state, so it cannot break determinism. Untraced runs skip
  // the clock reads entirely — two clock samples per pass are pure
  // overhead when nobody consumes them. The read routes through the
  // profiler's blessed wall-clock seam (obs::detail::prof_now_ns), the
  // one place outside src/obs allowed to see host time going away — the
  // no-wallclock lint rule scopes direct clock reads out of decision
  // paths like this one.
  const bool timed = registry_ != nullptr || obs::profiling_enabled();
  std::uint64_t t0_ns = 0;
  if (timed) t0_ns = obs::detail::prof_now_ns();
  {
    COSCHED_PROF_SCOPE("pass_strategy");
    scheduler_->schedule(*this);
  }
  std::uint64_t pass_wall_ns = 0;
  if (timed) {
    pass_wall_ns = obs::detail::prof_now_ns() - t0_ns;
    stats_.scheduler_cpu += std::chrono::nanoseconds(pass_wall_ns);
  }
  // Starts changed co-residency; settle rates and completion events once
  // per pass rather than per start.
  {
    COSCHED_PROF_SCOPE("pass_settle");
    resync_completions();
  }
  if (tracer_ != nullptr) {
    tracer_->pass_end(pass, stats_.primary_starts - primary_before,
                      stats_.secondary_starts - secondary_before);
  }
  if (registry_ != nullptr) {
    registry_->counter("scheduler_passes").inc();
    // Wall-clock quantity: named _wall_ by convention, excluded from any
    // byte-comparison of registry dumps (DESIGN.md "Observability").
    registry_
        ->histogram("pass_wall_us",
                    {10, 50, 100, 500, 1000, 5000, 10000, 100000})
        .observe(static_cast<double>(pass_wall_ns / 1000));
  }
}

void Controller::start_common(JobId id, const std::vector<NodeId>& nodes,
                              cluster::AllocationKind kind) {
  Live& live = entry(id);
  workload::Job& j = live.job;
  COSCHED_CHECK_MSG(j.state == workload::JobState::kPending,
                    "start of non-pending job " << id);
  COSCHED_CHECK_MSG(static_cast<int>(nodes.size()) == j.nodes,
                    "job " << id << " wants " << j.nodes << " nodes, got "
                           << nodes.size());
  // The machine caches the walltime end in its free-time index; it must
  // equal walltime_end(id) (the kill event below fires at that instant).
  const SimTime limit_end = now() + j.walltime_limit;
  if (kind == cluster::AllocationKind::kPrimary) {
    machine_.allocate_primary(id, nodes, limit_end);
    ++stats_.primary_starts;
  } else {
    machine_.allocate_secondary(id, nodes, limit_end);
    ++stats_.secondary_starts;
    // Attribute this co-location for the pair estimator: the candidate's
    // dominant partner is the first node's primary; each primary that was
    // not already paired records the candidate as its partner. The first
    // partner recorded for an attempt stays.
    const auto pair_with = [](Live& paired, AppId app) {
      if (paired.partner == kNoPartner) paired.partner = app;
    };
    pair_with(live, job(machine_.node(nodes.front()).primary_job()).app);
    for (NodeId n : nodes) {
      const JobId p = machine_.node(n).primary_job();
      if (p != id) pair_with(entry(p), j.app);
    }
  }
  remove_pending(id);
  j.state = workload::JobState::kRunning;
  j.start_time = now();
  j.alloc_kind = kind;
  j.alloc_nodes = nodes;
  meter_.occupy(nodes, now());
  const double wait_s = to_seconds(j.start_time - j.submit_time);
  if (spans_ != nullptr) {
    spans_->on_start(id, now(),
                     /*secondary=*/kind == cluster::AllocationKind::kSecondary);
  }
  if (tracer_ != nullptr) {
    tracer_->start(id,
                   kind == cluster::AllocationKind::kPrimary ? "primary"
                                                             : "secondary",
                   nodes, wait_s);
  }
  if (registry_ != nullptr) {
    registry_
        ->counter(kind == cluster::AllocationKind::kPrimary
                      ? "starts_primary"
                      : "starts_secondary")
        .inc();
    registry_
        ->histogram("queue_wait_s", {60, 300, 900, 3600, 7200, 14400, 28800,
                                     86400})
        .observe(wait_s);
  }
  // A requeued job restores its checkpoint credit.
  live.epoch = execution_.start(j, now(), live.resume_progress);
  ++running_count_;

  // Walltime enforcement.
  live.kill_event =
      engine_.schedule_at(now() + j.walltime_limit, sim::EventPriority::kTimer,
                          "timeout", [this, id] { on_timeout(id); });
  // The completion event is placed by the pass's resync_completions()
  // (rates are not final mid-pass).
  COSCHED_DEBUG("t=" << format_duration(now()) << " start job " << id
                     << (kind == cluster::AllocationKind::kSecondary
                             ? " (co-allocated)"
                             : ""));
}

void Controller::start_primary(JobId id, const std::vector<NodeId>& nodes) {
  start_common(id, nodes, cluster::AllocationKind::kPrimary);
}

void Controller::start_secondary(JobId id, const std::vector<NodeId>& nodes) {
  start_common(id, nodes, cluster::AllocationKind::kSecondary);
}

void Controller::resync_completions() {
  const std::uint64_t rate_changes_before = execution_.rate_changes();
  const std::span<const JobId> moved = execution_.refresh_rates(
      machine_.dirty_nodes(), now(),
      [this](JobId id) -> Epoch& { return entry(id).epoch; });
  machine_.clear_dirty_nodes();
  if (rate_changes_ != nullptr) {
    rate_changes_->inc(execution_.rate_changes() - rate_changes_before);
  }
  // Place events in submit-index order: EventIds are handed out in
  // placement order and feed the run digest, so they follow job identity
  // rather than the order in which the machine resynced nodes.
  moved_.clear();
  for (JobId id : moved) moved_.push_back(&entry(id));
  std::sort(moved_.begin(), moved_.end(), [](const Live* a, const Live* b) {
    return a->submit_idx < b->submit_idx;
  });
  for (Live* live : moved_) {
    if (live->end_event != sim::kInvalidEvent) {
      engine_.cancel(live->end_event);
      if (end_reschedules_ != nullptr) end_reschedules_->inc();
    }
    const JobId id = live->job.id;
    live->end_event = engine_.schedule_at(
        live->epoch.predicted_end(), sim::EventPriority::kJobEnd, "job_end",
        [this, id] { on_complete(id); });
  }
}

void Controller::on_complete(JobId id) {
  Live& live = entry(id);
  workload::Job& j = live.job;
  COSCHED_CHECK(j.state == workload::JobState::kRunning);
  // The completion event is only scheduled from settled rates, so the
  // remaining work must be (numerically) zero.
  const double left = live.epoch.remaining_work_s(now());
  COSCHED_CHECK_MSG(left < 1e-3, "completion fired with "
                                     << left << "s of work left on job "
                                     << id);
  j.observed_dilation = live.epoch.observed_dilation(now());
  j.state = workload::JobState::kCompleted;
  j.end_time = now();
  ++stats_.completions;
  if (tracer_ != nullptr) tracer_->finish("complete", id, j.observed_dilation);
  if (spans_ != nullptr) spans_->on_end(id, now(), obs::SpanEnd::kComplete);
  if (registry_ != nullptr) registry_->counter("completions").inc();

  const std::optional<AppId> partner = end_attempt(live);
  resync_completions();
  if (partner) estimator_.observe(j.app, *partner, j.observed_dilation);
  predictor_.observe(j.user, j.walltime_limit, j.end_time - j.start_time);
  settle_dependents(live, /*success=*/true);
  COSCHED_DEBUG("t=" << format_duration(now()) << " complete job " << id);
  request_schedule();
  retire_job(live);
}

void Controller::mark_timeout(Live& live) {
  workload::Job& j = live.job;
  const JobId id = j.id;
  COSCHED_CHECK(j.state == workload::JobState::kRunning);
  j.observed_dilation = live.epoch.observed_dilation(now());
  j.state = workload::JobState::kTimeout;
  j.end_time = now();
  ++stats_.timeouts;
  if (tracer_ != nullptr) tracer_->finish("timeout", id, j.observed_dilation);
  if (spans_ != nullptr) spans_->on_end(id, now(), obs::SpanEnd::kTimeout);
  if (registry_ != nullptr) registry_->counter("timeouts").inc();
}

void Controller::on_timeout(JobId id) {
  Live& live = entry(id);
  workload::Job& j = live.job;
  mark_timeout(live);
  COSCHED_WARN("t=" << format_duration(now()) << " job " << id
                    << " hit its walltime limit with "
                    << live.epoch.remaining_work_s(now())
                    << "s of work left");

  const std::optional<AppId> partner = end_attempt(live);
  resync_completions();
  // A walltime kill while shared is a strong (bad-pair) signal; the
  // dilation observed up to the kill is real.
  if (partner) estimator_.observe(j.app, *partner, j.observed_dilation);
  settle_dependents(live, /*success=*/false);
  request_schedule();
  retire_job(live);
}

std::optional<AppId> Controller::end_attempt(Live& live) {
  const workload::Job& j = live.job;
  engine_.cancel(live.kill_event);
  engine_.cancel(live.end_event);
  live.kill_event = live.end_event = sim::kInvalidEvent;
  --running_count_;
  meter_.vacate(j.alloc_nodes, now());
  machine_.release(j.id);
  usage_.charge(j.user,
                static_cast<double>(j.nodes) * to_seconds(now() - j.start_time),
                now());
  if (live.partner == kNoPartner) return std::nullopt;
  return std::exchange(live.partner, kNoPartner);
}

void Controller::requeue(JobId id) {
  Live& live = entry(id);
  workload::Job& j = live.job;
  COSCHED_CHECK(j.state == workload::JobState::kRunning);
  if (checkpoint_interval_ > 0) {
    // The job checkpointed every checkpoint_interval_ of wall time; it
    // resumes from the last one. Progress at that instant is estimated by
    // scaling this attempt's progress by the checkpointed fraction of the
    // elapsed time (exact under a constant rate; a documented
    // approximation when co-location changed the rate mid-run), on top of
    // the credit the attempt started from, which an earlier checkpoint
    // already secured.
    const SimDuration elapsed = now() - j.start_time;
    if (elapsed > 0) {
      const SimDuration checkpointed =
          (elapsed / checkpoint_interval_) * checkpoint_interval_;
      const double fraction = static_cast<double>(checkpointed) /
                              static_cast<double>(elapsed);
      double& resume = live.resume_progress;  // 0 unless restored before
      resume += (live.epoch.progress_s(now()) - resume) * fraction;
    }
  }
  // The aborted attempt's machine time is charged; it makes no pair
  // observation.
  end_attempt(live);
  // Progress is lost; the job starts over from the queue tail.
  j.state = workload::JobState::kPending;
  j.start_time = -1;
  j.end_time = -1;
  j.alloc_nodes.clear();
  j.observed_dilation = 1.0;
  if (spans_ != nullptr) spans_->on_requeue(id, now());
  ++j.requeues;
  ++stats_.requeues;
  pending_.push_back(id);
  COSCHED_INFO("t=" << format_duration(now()) << " job " << id
                    << " requeued after node failure (attempt "
                    << j.requeues + 1 << ")");
}

void Controller::on_node_fail(NodeId node, SimDuration duration) {
  if (machine_.node(node).is_down()) return;  // overlapping outage scripts
  ++stats_.node_failures;
  COSCHED_WARN("t=" << format_duration(now()) << " node " << node
                    << " failed for " << format_duration(duration));
  // Every job with a foot on this node loses its run.
  const auto victims = machine_.node(node).jobs();
  for (JobId id : victims) {
    if (requeue_on_failure_) {
      requeue(id);
    } else {
      // Killed like a walltime timeout, but a node failure says nothing
      // about the pair, so the estimator gets no observation.
      Live& live = entry(id);
      mark_timeout(live);
      end_attempt(live);
      settle_dependents(live, /*success=*/false);
      retire_job(live);
    }
  }
  machine_.set_node_down(node, true);
  resync_completions();
  engine_.schedule_at(now() + duration, sim::EventPriority::kTimer, "node_up",
                      [this, node] {
                        machine_.set_node_down(node, false);
                        COSCHED_INFO("t=" << format_duration(now())
                                          << " node " << node
                                          << " back in service");
                        request_schedule();
                      });
  request_schedule();
}

bool Controller::cancel(JobId id) {
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return false;
  Live& live = it->second;
  workload::Job& j = live.job;
  switch (j.state) {
    case workload::JobState::kPending: {
      // May be queued or waiting for its submit event; remove if queued.
      const auto q = std::find(pending_.begin(), pending_.end(), id);
      if (q != pending_.end()) pending_.erase(q);
      j.state = workload::JobState::kCancelled;
      if (spans_ != nullptr) {
        spans_->on_end(id, now(), obs::SpanEnd::kCancelled);
      }
      settle_dependents(live, /*success=*/false);
      retire_job(live);
      return true;
    }
    case workload::JobState::kHeld: {
      // Held jobs wait on a live dependency: it releases or cancels them
      // before it retires.
      std::erase(entry(j.depends_on).held, id);
      j.state = workload::JobState::kCancelled;
      if (spans_ != nullptr) {
        spans_->on_end(id, now(), obs::SpanEnd::kCancelled);
      }
      settle_dependents(live, /*success=*/false);
      retire_job(live);
      return true;
    }
    case workload::JobState::kRunning: {
      j.observed_dilation = live.epoch.observed_dilation(now());
      j.state = workload::JobState::kCancelled;
      j.end_time = now();
      if (spans_ != nullptr) {
        spans_->on_end(id, now(), obs::SpanEnd::kCancelled);
      }
      end_attempt(live);  // a cancel makes no pair observation
      resync_completions();
      settle_dependents(live, /*success=*/false);
      request_schedule();
      retire_job(live);
      return true;
    }
    default:
      return false;  // already in a final state
  }
}

obs::SnapshotSource::Sample Controller::snapshot_sample() const {
  obs::SnapshotSource::Sample s;
  s.total_nodes = machine_.node_count();
  s.busy_nodes = machine_.node_count() - machine_.free_node_count();
  s.pending = static_cast<std::int64_t>(pending_.size());
  s.running = static_cast<std::int64_t>(running_count_);
  s.resident_jobs = static_cast<std::int64_t>(jobs_.size());
  return s;
}

void Controller::remove_pending(JobId id) {
  const auto it = std::find(pending_.begin(), pending_.end(), id);
  COSCHED_CHECK_MSG(it != pending_.end(), "job " << id << " not pending");
  pending_.erase(it);
}

}  // namespace cosched::slurmlite
