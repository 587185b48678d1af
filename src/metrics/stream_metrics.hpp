// The one schedule-metric fold.
//
// A run folds its metrics as jobs reach their final state, so no record
// has to stay alive for them (the controller retires every job, see DESIGN
// "Fleet scale"). metrics::compute replays a record list through the same
// two pieces:
//
//   StreamAccumulator — one fixed-size row per job, indexed by submit
//     order. Jobs retire in completion order, but floating-point sums are
//     order-sensitive, so finalize() folds the rows in ascending submit
//     index: the same order whoever recorded them. The row is O(1) per job
//     (4 doubles + a state byte).
//
//   OccupancyMeter — per-node busy/shared node-time in integer SimTime
//     ticks, advanced at every allocation and release. Integer sums do not
//     depend on order, so a run's meter and a replay of its records agree
//     exactly whenever they see the same intervals. A run meters every
//     attempt of a requeued job; its final record keeps only the last one,
//     so under requeues the run's busy and shared time (and the
//     efficiency, utilization and energy fields derived from them) exceed
//     what compute() finds in the records. On every other run the two
//     agree bit for bit in every field.
#pragma once

#include <cstdint>
#include <vector>

#include "metrics/metrics.hpp"
#include "util/types.hpp"
#include "workload/job.hpp"

namespace cosched::metrics {

/// Exact integer node-occupancy meter. occupy()/vacate() must be called
/// with the simulation clock monotone (controller event handlers and
/// compute()'s time-ordered replay guarantee it).
class OccupancyMeter {
 public:
  void reset(int nodes);
  void occupy(const std::vector<NodeId>& nodes, SimTime now);
  void vacate(const std::vector<NodeId>& nodes, SimTime now);

  /// Total node-time with >= 1 job resident, in SimTime ticks.
  std::int64_t busy_ticks() const { return busy_ticks_; }
  /// Total node-time with >= 2 jobs resident (SMT sharing), in ticks.
  std::int64_t shared_ticks() const { return shared_ticks_; }

 private:
  void advance(NodeId node, SimTime now);

  struct NodeState {
    std::int32_t count = 0;
    SimTime last = 0;
  };
  std::vector<NodeState> nodes_;
  std::int64_t busy_ticks_ = 0;
  std::int64_t shared_ticks_ = 0;
};

/// Accumulates per-job final records as they retire, without keeping the
/// records alive.
class StreamAccumulator {
 public:
  /// Records job `job`'s final state. `submit_idx` is the job's position
  /// in submission order; rows may arrive in any order but each index must
  /// be recorded exactly once.
  void record(std::size_t submit_idx, const workload::Job& job);

  /// Folds the rows in submit order into the schedule metrics, with
  /// busy/shared node-time taken from `meter`.
  ScheduleMetrics finalize(int machine_nodes, const OccupancyMeter& meter,
                           const EnergyParams& energy = {}) const;

 private:
  // kind: 0 = index not yet recorded, 1 = completed, 2 = timeout,
  // 3 = recorded but never finished (cancelled; jobs_total only).
  struct Row {
    double wait_s = 0;
    double slowdown = 0;
    double dilation = 0;
    double work_node_s = 0;  // work if completed, lost work if timeout
    std::uint8_t kind = 0;
  };
  std::vector<Row> rows_;
  std::size_t recorded_ = 0;
  SimTime first_submit_ = kTimeInfinity;  // min over finished jobs (exact)
  SimTime last_end_ = 0;                  // max over finished jobs (exact)
};

}  // namespace cosched::metrics
