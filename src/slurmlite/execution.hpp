// Execution model: running jobs' progress under time-varying SMT
// co-location.
//
// A job's work is its exclusive runtime. While running it accrues progress
// at rate 1/dilation, where dilation is the worst per-node slowdown over
// its allocation (bulk-synchronous apps run at the pace of their slowest
// node). Each attempt runs in rate epochs: an epoch is (epoch start,
// progress at the epoch start, rate), so progress at any t is one
// closed-form multiply with no accumulator, and no query or refresh cadence
// can change it. The model keeps no per-job table: start() returns the
// attempt's Epoch, the caller keeps it (the controller in the job's Live
// entry) and refresh_rates() reaches it back through the caller's lookup.
// Whenever the co-residency topology changes — a job starts on or leaves a
// shared node — the controller hands the machine's dirty nodes to
// refresh_rates() at that instant; a resident whose recomputed rate differs
// closes its epoch there and has its completion predicted once for the new
// epoch. refresh_rates() returns exactly the jobs whose predicted end
// moved, so the controller reschedules no other completion event.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "apps/catalog.hpp"
#include "cluster/machine.hpp"
#include "interference/corun_model.hpp"
#include "util/check.hpp"
#include "util/types.hpp"
#include "workload/job.hpp"

namespace cosched::slurmlite {

/// One running attempt's current rate epoch, with what its closed form
/// needs. Opened by ExecutionModel::start, moved on by refresh_rates.
struct Epoch {
  /// Completed work in exclusive-seconds at `now`, checkpoint credit
  /// included.
  double progress_s(SimTime now) const {
    return epoch_progress + to_seconds(now - epoch_t) * rate;
  }
  /// Remaining work in exclusive-seconds at `now`.
  double remaining_work_s(SimTime now) const {
    return std::max(0.0, work_s - progress_s(now));
  }
  /// Cumulative dilation experienced so far: elapsed / progress.
  double observed_dilation(SimTime now) const;
  /// Current dilation (1/rate).
  double dilation() const { return 1.0 / rate; }
  /// Completion instant of the current epoch, ceiled to a whole
  /// microsecond so the completion event never fires before the work is
  /// done. Requires a refresh_rates() since start.
  SimTime predicted_end() const;

  AppId app = 0;
  SimTime start = 0;          ///< the attempt's start
  SimTime epoch_t = 0;        ///< start of the current rate epoch
  SimTime end = 0;            ///< predicted completion of the current epoch
  double work_s = 0;          ///< total exclusive-seconds of work
  double epoch_progress = 0;  ///< exclusive-seconds completed at epoch_t
  double initial_s = 0;       ///< progress credited at start (checkpoint)
  double locality = 1;        ///< placement locality dilation (per attempt)
  /// Progress per wall second (= 1/dilation); 0 until the first
  /// refresh_rates() settles it.
  double rate = 0;
  /// Last refresh_rates() call that visited this epoch (multi-node jobs
  /// appear under several dirty nodes; the stamp dedups the visits).
  std::uint64_t visit_stamp = 0;
  /// The job's machine allocation (a node-based container, so the pointer
  /// is stable from allocate to release). refresh_rates reaches an epoch
  /// only through a node its job occupies, so it never reads the pointer
  /// of a released attempt.
  const cluster::Allocation* alloc = nullptr;
};

class ExecutionModel {
 public:
  ExecutionModel(const cluster::Machine& machine,
                 const apps::Catalog& catalog,
                 const interference::CorunModel& corun);

  /// Opens the first epoch of a job that was just allocated on the
  /// machine. The caller keeps the epoch while the job holds its
  /// allocation and must call refresh_rates() afterwards (co-residents'
  /// rates change too), which gives it its first rate at `now`.
  /// `initial_progress_s` credits already-completed work (checkpoint
  /// restore after a failure requeue).
  Epoch start(const workload::Job& job, SimTime now,
              double initial_progress_s = 0) const;

  /// Settles the rates of the jobs resident on `dirty` (the machine's
  /// resynced-since-last-drain node list) at `now`, the instant of the
  /// topology change. `epoch_of(id)` returns the Epoch& of running job
  /// `id`. A job's co-run slowdown is a pure function of its nodes' slot
  /// contents, which change only on resynced nodes, where the job is by
  /// definition resident; so the corun model reruns only for the residents
  /// of `dirty`, at a cost of O(churned nodes), not O(running x nodes). A
  /// recomputed rate that differs closes the job's epoch at `now` and
  /// predicts its end once; one that compares equal keeps the epoch and
  /// its end.
  ///
  /// Returns the jobs whose predicted end moved — each job's first rate and
  /// every rate change that moved the end — in visit order (dirty-node
  /// order, then slot order). The span is valid until the next call.
  template <typename EpochOf>
  std::span<const JobId> refresh_rates(std::span<const NodeId> dirty,
                                       SimTime now, EpochOf&& epoch_of);

  /// Epochs closed so far because a recomputed rate differed from the
  /// current one. Deterministic; feeds the `rate_changes` counter.
  std::uint64_t rate_changes() const { return rate_changes_; }

 private:
  /// Gives `e` its recomputed `rate` at `now`. True when its predicted end
  /// moved (always on its first rate).
  bool settle(Epoch& e, double rate, SimTime now);

  const cluster::Machine& machine_;
  const apps::Catalog& catalog_;
  const interference::CorunModel& corun_;
  /// Jobs whose end moved in the last refresh_rates() (its return value).
  std::vector<JobId> moved_;
  /// Monotone id of the current refresh_rates() call (visit dedup).
  std::uint64_t refresh_stamp_ = 0;
  std::uint64_t rate_changes_ = 0;
};

template <typename EpochOf>
std::span<const JobId> ExecutionModel::refresh_rates(
    std::span<const NodeId> dirty, SimTime now, EpochOf&& epoch_of) {
  moved_.clear();
  ++refresh_stamp_;
  // One shared node's residents and their slowdowns, refilled per node: a
  // node has at most kMaxThreadsPerCore slots, so they fit on the stack.
  std::array<apps::StressVector, kMaxThreadsPerCore> stresses;
  std::array<double, kMaxThreadsPerCore> slowdowns{};
  for (NodeId node_id : dirty) {
    for (JobId resident : machine_.node(node_id).slot_jobs()) {
      if (resident == kInvalidJob) continue;
      Epoch& e = epoch_of(resident);
      if (e.visit_stamp == refresh_stamp_) continue;  // already settled
      e.visit_stamp = refresh_stamp_;
      double worst = 1.0;
      for (NodeId n : e.alloc->nodes) {
        const cluster::Node& node = machine_.node(n);
        if (node.job_count() == 1) continue;  // alone: dilation 1
        // Walk the raw slots instead of materializing node.jobs(): jobs()
        // is exactly slot_jobs() with free slots filtered out, in slot
        // order, so compacting here reproduces the same resident sequence
        // (and thus the same FP operation order in the corun model)
        // without the vector.
        std::size_t k = 0;
        std::size_t mine = stresses.size();
        for (JobId co : node.slot_jobs()) {
          if (co == kInvalidJob) continue;
          if (co == resident) mine = k;
          stresses[k++] = catalog_.get(epoch_of(co).app).stress;
        }
        COSCHED_CHECK(mine < k);
        corun_.slowdowns_into(std::span(stresses).first(k), slowdowns);
        worst = std::max(worst, slowdowns[mine]);
      }
      if (settle(e, 1.0 / worst / e.locality, now)) moved_.push_back(resident);
    }
  }
  return moved_;
}

}  // namespace cosched::slurmlite
