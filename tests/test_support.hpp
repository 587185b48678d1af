// Shared helpers for the CoSched test suite: job builders and a fake
// SchedulerHost that lets strategy unit tests drive precise scenarios
// without a full controller.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "apps/catalog.hpp"
#include "core/scheduler.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "slurmlite/execution.hpp"
#include "workload/job.hpp"

namespace cosched::testing {

/// Builds a pending job with sensible defaults; tests override fields.
inline workload::Job make_job(JobId id, int nodes, SimDuration runtime,
                              SimDuration walltime, AppId app = 0) {
  workload::Job job;
  job.id = id;
  job.user = "test";
  job.app = app;
  job.nodes = nodes;
  job.submit_time = 0;
  job.base_runtime = runtime;
  job.walltime_limit = walltime;
  job.shareable = true;
  return job;
}

/// Execution-model tests keep each running job's epoch here, as the
/// controller keeps it in the job's Live entry.
using Epochs = std::map<JobId, slurmlite::Epoch>;

/// Rate refresh of the residents of `nodes` at `now`, reaching their
/// epochs in `epochs`. Returns the jobs whose predicted end moved.
inline std::vector<JobId> refresh(slurmlite::ExecutionModel& exec,
                                  Epochs& epochs,
                                  std::span<const NodeId> nodes,
                                  SimTime now) {
  const std::span<const JobId> moved = exec.refresh_rates(
      nodes, now,
      [&](JobId id) -> slurmlite::Epoch& { return epochs.at(id); });
  return {moved.begin(), moved.end()};
}

/// Full-scan rate refresh for execution-model tests: settles every running
/// job at `now` by naming every node dirty (the controller passes only the
/// machine's dirty list), then drains the machine's dirty list. Returns
/// the jobs whose predicted end moved.
inline std::vector<JobId> refresh_all(slurmlite::ExecutionModel& exec,
                                      cluster::Machine& machine,
                                      Epochs& epochs, SimTime now) {
  std::vector<NodeId> all(static_cast<std::size_t>(machine.node_count()));
  for (std::size_t n = 0; n < all.size(); ++n) {
    all[n] = static_cast<NodeId>(n);
  }
  std::vector<JobId> moved = refresh(exec, epochs, all, now);
  machine.clear_dirty_nodes();
  return moved;
}

/// The `count` lowest-id nodes with a free secondary slot, or nullopt if
/// fewer exist: the placement the fuzzers co-allocate onto.
inline std::optional<std::vector<NodeId>> first_shareable(
    const cluster::Machine& machine, int count) {
  std::vector<NodeId> out;
  for (NodeId id : machine.free_secondary_nodes()) {
    if (static_cast<int>(out.size()) == count) break;
    out.push_back(id);
  }
  if (static_cast<int>(out.size()) < count) return std::nullopt;
  return out;
}

/// A SchedulerHost over an in-memory machine and job table. Start actions
/// mutate the machine and the job records exactly like the controller
/// does, but without an event engine: tests inspect the resulting state.
class FakeHost : public core::SchedulerHost {
 public:
  FakeHost(int nodes, const apps::Catalog& catalog,
           cluster::NodeConfig node_config = {},
           interference::CorunParams corun_params = {})
      : catalog_(catalog),
        corun_(corun_params),
        machine_(nodes, node_config) {}

  /// Adds a pending job to the queue tail.
  void add_pending(workload::Job job) {
    const JobId id = job.id;
    jobs_.emplace(id, std::move(job));
    pending_.push_back(id);
  }

  /// Adds a job already running on the given nodes (primary slots).
  void add_running_primary(workload::Job job, const std::vector<NodeId>& nodes,
                           SimTime started_at = 0) {
    job.state = workload::JobState::kRunning;
    job.start_time = started_at;
    job.alloc_kind = cluster::AllocationKind::kPrimary;
    job.alloc_nodes = nodes;
    const JobId id = job.id;
    // The machine's free-time index must cache the same walltime end this
    // host reports (compute_shadow is served from the index).
    const SimTime end = job.start_time + job.walltime_limit;
    jobs_.emplace(id, std::move(job));
    machine_.allocate_primary(id, nodes, end);
  }

  /// Adds a job already co-allocated onto the given nodes' secondary
  /// slots.
  void add_running_secondary(workload::Job job,
                             const std::vector<NodeId>& nodes,
                             SimTime started_at = 0) {
    job.state = workload::JobState::kRunning;
    job.start_time = started_at;
    job.alloc_kind = cluster::AllocationKind::kSecondary;
    job.alloc_nodes = nodes;
    const JobId id = job.id;
    const SimTime end = job.start_time + job.walltime_limit;
    jobs_.emplace(id, std::move(job));
    machine_.allocate_secondary(id, nodes, end);
  }

  /// Ends a running job: its slots free up (a primary's first secondary
  /// is promoted, as on a real node).
  void release(JobId id) {
    machine_.release(id);
    jobs_.at(id).state = workload::JobState::kCompleted;
  }

  /// Takes an empty node out of service or puts it back.
  void set_node_down(NodeId id, bool down) {
    machine_.set_node_down(id, down);
  }

  void set_now(SimTime t) { now_ = t; }
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }
  void set_registry(obs::Registry* registry) { registry_ = registry; }

  /// Jobs started by the scheduler during the test, in order, with the
  /// allocation kind used.
  struct Start {
    JobId id;
    cluster::AllocationKind kind;
    std::vector<NodeId> nodes;
  };
  const std::vector<Start>& starts() const { return starts_; }
  bool started(JobId id) const {
    for (const auto& s : starts_) {
      if (s.id == id) return true;
    }
    return false;
  }

  // --- core::SchedulerHost -----------------------------------------------------
  SimTime now() const override { return now_; }
  const cluster::Machine& machine() const override { return machine_; }
  const std::vector<JobId>& pending() const override { return pending_; }
  const workload::Job& job(JobId id) const override { return jobs_.at(id); }
  const apps::AppModel& app_of(JobId id) const override {
    return catalog_.get(jobs_.at(id).app);
  }
  const interference::CorunModel& corun() const override { return corun_; }
  obs::Tracer* tracer() const override { return tracer_; }
  obs::Registry* registry() const override { return registry_; }
  SimTime walltime_end(JobId running) const override {
    const auto& j = jobs_.at(running);
    return j.start_time + j.walltime_limit;
  }
  void start_primary(JobId id, const std::vector<NodeId>& nodes) override {
    machine_.allocate_primary(id, nodes,
                              now_ + jobs_.at(id).walltime_limit);
    record_start(id, cluster::AllocationKind::kPrimary, nodes);
  }
  void start_secondary(JobId id, const std::vector<NodeId>& nodes) override {
    machine_.allocate_secondary(id, nodes,
                                now_ + jobs_.at(id).walltime_limit);
    record_start(id, cluster::AllocationKind::kSecondary, nodes);
  }

 private:
  void record_start(JobId id, cluster::AllocationKind kind,
                    const std::vector<NodeId>& nodes) {
    auto& j = jobs_.at(id);
    j.state = workload::JobState::kRunning;
    j.start_time = now_;
    j.alloc_kind = kind;
    j.alloc_nodes = nodes;
    pending_.erase(std::find(pending_.begin(), pending_.end(), id));
    starts_.push_back({id, kind, nodes});
  }

  const apps::Catalog& catalog_;
  interference::CorunModel corun_;
  cluster::Machine machine_;
  std::unordered_map<JobId, workload::Job> jobs_;
  std::vector<JobId> pending_;
  std::vector<Start> starts_;
  obs::Tracer* tracer_ = nullptr;
  obs::Registry* registry_ = nullptr;
  SimTime now_ = 0;
};

}  // namespace cosched::testing
