#include "slurmlite/execution.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace cosched::slurmlite {

ExecutionModel::ExecutionModel(const cluster::Machine& machine,
                               const apps::Catalog& catalog,
                               const interference::CorunModel& corun)
    : machine_(machine), catalog_(catalog), corun_(corun) {}

const ExecutionModel::Running* ExecutionModel::find(JobId id) const {
  const auto it = running_.find(id);
  return it == running_.end() ? nullptr : &it->second;
}

const ExecutionModel::Running& ExecutionModel::get(JobId id) const {
  const Running* r = find(id);
  COSCHED_CHECK_MSG(r != nullptr, "job " << id << " not tracked as running");
  return *r;
}

void ExecutionModel::start(const workload::Job& job, SimTime now,
                           double initial_progress_s) {
  COSCHED_CHECK(machine_.allocation(job.id) != nullptr);
  COSCHED_CHECK(initial_progress_s >= 0);
  const auto [it, inserted] = running_.try_emplace(job.id);
  COSCHED_CHECK_MSG(inserted, "job " << job.id << " started twice");
  Running& r = it->second;
  r.id = job.id;
  r.app = job.app;
  r.start = now;
  r.epoch_t = now;
  r.end = now;  // placeholder; the first refresh_rates() predicts it
  r.work_s = to_seconds(job.base_runtime);
  r.epoch_progress = std::min(initial_progress_s, r.work_s);
  r.initial_s = r.epoch_progress;
  r.alloc = machine_.allocation(job.id);
  // Placement locality is fixed for the allocation's lifetime.
  r.locality = machine_.topology().locality_dilation(
      r.alloc->nodes, catalog_.get(job.app).stress.network);
  r.rate = 1.0;  // placeholder; the first refresh_rates() sets it
}

void ExecutionModel::finish(JobId id) {
  COSCHED_CHECK_MSG(running_.erase(id) == 1,
                    "finish of untracked job " << id);
}

double ExecutionModel::compute_rate(const Running& job) const {
  double worst = 1.0;
  for (NodeId node_id : job.alloc->nodes) {
    const cluster::Node& node = machine_.node(node_id);
    if (node.job_count() == 1) continue;  // alone: dilation 1
    // Walk the raw slots instead of materializing node.jobs(): jobs() is
    // exactly slot_jobs() with free slots filtered out, in slot order, so
    // compacting here reproduces the same resident sequence (and thus the
    // same FP operation order in the corun model) without the vector.
    const std::vector<JobId>& slots = node.slot_jobs();
    stresses_.clear();
    std::size_t my_index = slots.size();
    for (JobId resident : slots) {
      if (resident == kInvalidJob) continue;
      const Running* co = find(resident);
      COSCHED_CHECK_MSG(co != nullptr,
                        "job " << resident
                               << " on machine but not tracked as running");
      if (resident == job.id) my_index = stresses_.size();
      stresses_.push_back(catalog_.get(co->app).stress);
    }
    const std::size_t k = stresses_.size();
    COSCHED_CHECK(my_index < k);
    // First half: the slowdowns; second half: slowdowns_into's scratch.
    slowdown_scratch_.resize(2 * k);
    const std::span<double> staging(slowdown_scratch_);
    const std::span<double> slowdowns = staging.first(k);
    corun_.slowdowns_into(stresses_, staging.subspan(k), slowdowns);
    worst = std::max(worst, slowdowns[my_index]);
  }
  return 1.0 / worst;
}

std::span<const JobId> ExecutionModel::refresh_rates(
    std::span<const NodeId> dirty, SimTime now) {
  moved_.clear();
  ++refresh_stamp_;
  for (NodeId node_id : dirty) {
    for (JobId resident : machine_.node(node_id).slot_jobs()) {
      if (resident == kInvalidJob) continue;
      Running* r = find(resident);
      COSCHED_CHECK_MSG(r != nullptr,
                        "job " << resident
                               << " on machine but not tracked as running");
      if (r->visit_stamp == refresh_stamp_) continue;  // already settled
      r->visit_stamp = refresh_stamp_;
      std::uint64_t gen = 0;
      for (NodeId node : r->alloc->nodes) {
        gen = std::max(gen, machine_.node_generation(node));
      }
      if (gen == r->rate_gen) continue;  // co-residency unchanged since
      const bool first = r->rate_gen == 0;
      r->rate_gen = gen;
      const double rate = compute_rate(*r) / r->locality;
      if (!first) {
        // An equal rate leaves progress and the predicted end exactly as
        // they were, so the epoch and its completion event both stand.
        if (rate == r->rate) continue;
        COSCHED_CHECK(now >= r->epoch_t);
        r->epoch_progress = progress_of(*r, now);
        r->epoch_t = now;
        ++rate_changes_;
      }
      r->rate = rate;
      const SimTime end = end_of(*r);
      if (!first && end == r->end) continue;
      r->end = end;
      moved_.push_back(r->id);
    }
  }
  return moved_;
}

double ExecutionModel::progress_of(const Running& r, SimTime now) {
  return r.epoch_progress + to_seconds(now - r.epoch_t) * r.rate;
}

SimTime ExecutionModel::end_of(const Running& r) {
  const double remaining = std::max(0.0, r.work_s - r.epoch_progress);
  // Ceil to a whole microsecond so the completion event never fires a tick
  // before the work is done.
  const double wall_s = remaining / r.rate;
  return r.epoch_t + static_cast<SimTime>(
                         std::ceil(wall_s * static_cast<double>(kSecond)));
}

SimTime ExecutionModel::predicted_end(JobId id) const {
  const Running& r = get(id);
  COSCHED_CHECK_MSG(r.rate_gen != 0, "job " << id << " has no rate yet");
  return r.end;
}

double ExecutionModel::dilation(JobId id) const { return 1.0 / get(id).rate; }

double ExecutionModel::remaining_work_s(JobId id, SimTime now) const {
  const Running& r = get(id);
  return std::max(0.0, r.work_s - progress_of(r, now));
}

double ExecutionModel::progress_s(JobId id, SimTime now) const {
  return progress_of(get(id), now);
}

double ExecutionModel::observed_dilation(JobId id, SimTime now) const {
  const Running& r = get(id);
  const double elapsed = to_seconds(now - r.start);
  const double progressed = progress_of(r, now) - r.initial_s;
  return progressed > 0 ? elapsed / progressed : 1.0;
}

}  // namespace cosched::slurmlite
