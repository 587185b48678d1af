// Execution model: tracks running jobs' progress under time-varying SMT
// co-location.
//
// A job's work is its exclusive runtime. While running it accrues progress
// at rate 1/dilation, where dilation is the worst per-node slowdown over
// its allocation (bulk-synchronous apps run at the pace of their slowest
// node). Each job runs in rate epochs: an epoch is (epoch start, progress
// at the epoch start, rate), so progress at any t is one closed-form
// multiply with no accumulator, and no query or refresh cadence can change
// it. Whenever the co-residency topology changes — a job starts on or
// leaves a shared node — the controller hands the machine's dirty nodes to
// refresh_rates() at that instant; a job whose recomputed rate differs
// closes its epoch there and has its completion predicted once for the new
// epoch. refresh_rates() returns exactly the jobs whose predicted end
// moved, so the controller reschedules no other completion event.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "apps/catalog.hpp"
#include "cluster/machine.hpp"
#include "interference/corun_model.hpp"
#include "util/types.hpp"
#include "workload/job.hpp"

namespace cosched::slurmlite {

class ExecutionModel {
 public:
  ExecutionModel(const cluster::Machine& machine,
                 const apps::Catalog& catalog,
                 const interference::CorunModel& corun);

  /// Registers a job that was just allocated on the machine. The caller
  /// must call refresh_rates() afterwards (co-residents' rates change too);
  /// the job's first rate opens its first epoch at `now`.
  /// `initial_progress_s` credits already-completed work (checkpoint
  /// restore after a failure requeue).
  void start(const workload::Job& job, SimTime now,
             double initial_progress_s = 0);

  /// Deregisters a finished/killed job. Must be called while the job's
  /// machine allocation is still live (the controller releases the
  /// allocation only after finish()), because tracked entries cache the
  /// allocation pointer.
  void finish(JobId id);

  /// Settles the rates of the jobs resident on `dirty` (the machine's
  /// resynced-since-last-drain node list) at `now`, the instant of the
  /// topology change. Rates are memoized under the machine's per-node
  /// generation counters: a job's co-run slowdown is a pure function of its
  /// nodes' slot contents, and a job's max node generation moves only if
  /// one of its nodes was resynced — where it is by definition resident —
  /// so the corun model reruns only for jobs whose nodes changed, at a cost
  /// of O(churned nodes), not O(running x nodes). A recomputed rate that
  /// differs closes the job's epoch at `now` and predicts its end once; one
  /// that compares equal keeps the epoch and its end.
  ///
  /// Returns the jobs whose predicted end moved — each job's first rate and
  /// every rate change that moved the end — in visit order (dirty-node
  /// order, then slot order). The span is valid until the next call.
  std::span<const JobId> refresh_rates(std::span<const NodeId> dirty,
                                       SimTime now);

  /// Completion instant of the job's current epoch, ceiled to a whole
  /// microsecond so the completion event never fires before the work is
  /// done. Requires a refresh_rates() since start.
  SimTime predicted_end(JobId id) const;

  /// Current dilation (1/rate).
  double dilation(JobId id) const;

  /// Remaining work in exclusive-seconds at `now`.
  double remaining_work_s(JobId id, SimTime now) const;

  /// Completed work in exclusive-seconds at `now`, checkpoint credit
  /// included.
  double progress_s(JobId id, SimTime now) const;

  /// Cumulative dilation experienced so far: elapsed / progress.
  double observed_dilation(JobId id, SimTime now) const;

  /// Epochs closed so far because a recomputed rate differed from the
  /// current one. Deterministic; feeds the `rate_changes` counter.
  std::uint64_t rate_changes() const { return rate_changes_; }

  std::size_t running_count() const { return running_.size(); }

 private:
  struct Running {
    JobId id;
    AppId app;
    SimTime start;
    SimTime epoch_t;        ///< start of the current rate epoch
    SimTime end;            ///< predicted completion of the current epoch
    double work_s;          ///< total exclusive-seconds of work
    double epoch_progress;  ///< exclusive-seconds completed at epoch_t
    double initial_s;       ///< progress credited at start (checkpoint restore)
    double locality;        ///< placement locality dilation (fixed per run)
    double rate;            ///< progress per wall second (= 1/dilation)
    /// Max node_generation() over the allocation when `rate` was computed;
    /// 0 means never computed (node generations start above 0 once
    /// allocated). See refresh_rates().
    std::uint64_t rate_gen = 0;
    /// Last refresh_rates() call that visited this entry (multi-node jobs
    /// appear under several dirty nodes; the stamp dedups the visits).
    std::uint64_t visit_stamp = 0;
    /// The job's machine allocation. Allocation records live in a
    /// node-based container, so the pointer is stable from allocate to
    /// release, and the controller always deregisters (finish) before
    /// releasing — valid for this entry's whole lifetime.
    const cluster::Allocation* alloc = nullptr;
  };

  const Running* find(JobId id) const;
  Running* find(JobId id) {
    return const_cast<Running*>(std::as_const(*this).find(id));
  }
  const Running& get(JobId id) const;

  double compute_rate(const Running& r) const;
  static double progress_of(const Running& r, SimTime now);
  static SimTime end_of(const Running& r);

  const cluster::Machine& machine_;
  const apps::Catalog& catalog_;
  const interference::CorunModel& corun_;
  /// Running entries by job id. Nothing iterates this map: refresh_rates
  /// walks the machine's dirty nodes and everything else looks jobs up by
  /// id, so its order cannot reach a decision.
  std::unordered_map<JobId, Running> running_;
  /// compute_rate's per-node staging: the residents' stress vectors and
  /// 2k doubles (slowdowns, then slowdowns_into scratch). Reused across
  /// calls, so after warm-up a rate computation allocates nothing.
  mutable std::vector<apps::StressVector> stresses_;
  mutable std::vector<double> slowdown_scratch_;
  /// Jobs whose end moved in the last refresh_rates() (its return value).
  std::vector<JobId> moved_;
  /// Monotone id of the current refresh_rates() call (visit dedup).
  std::uint64_t refresh_stamp_ = 0;
  std::uint64_t rate_changes_ = 0;
};

}  // namespace cosched::slurmlite
