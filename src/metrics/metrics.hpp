// Schedule quality metrics.
//
// Definitions (matching the quantities the paper reports):
//
//   work(j)            = nodes_j * base_runtime_j   [node-seconds]: the
//                        exclusive cost of job j — what the machine must
//                        spend on it without sharing.
//   makespan           = max end - min submit over finished jobs.
//   scheduling efficiency = sum work / (makespan * machine_nodes):
//                        how densely the schedule packs useful work into
//                        the machine-time rectangle. Sharing raises it by
//                        overlapping jobs on SMT threads.
//   computational efficiency = sum work / busy node-seconds, where a
//                        node-second hosting any number of jobs counts
//                        once: useful work extracted per consumed machine
//                        node-second. Exactly 1.0 for exclusive schedules
//                        with perfect runtime knowledge; > 1 when SMT
//                        sharing extracts extra throughput; < 1 when
//                        interference outweighs overlap.
//   bounded slowdown   = max(1, turnaround / max(runtime, tau)), tau = 10 s.
#pragma once

#include <vector>

#include "util/types.hpp"
#include "workload/job.hpp"

namespace cosched::metrics {

/// Node power model for energy accounting. SMT sharing raises per-node
/// power (both thread sets active) but shortens the schedule; energy per
/// unit of useful work is the figure of merit.
struct EnergyParams {
  double idle_w = 100.0;    ///< node powered on, no job
  double primary_w = 220.0; ///< one job (primary hardware threads active)
  double shared_w = 280.0;  ///< co-located jobs (all SMT threads active)
};

struct ScheduleMetrics {
  int jobs_total = 0;
  int jobs_completed = 0;
  int jobs_timeout = 0;

  double makespan_s = 0;
  double total_work_node_s = 0;       ///< sum of work(j) over finished jobs
  double busy_node_s = 0;             ///< union of per-node busy intervals
  double lost_work_node_s = 0;        ///< node-time consumed by timed-out jobs

  double scheduling_efficiency = 0;   ///< work / (makespan * nodes)
  double computational_efficiency = 0;///< work / busy node-seconds
  double utilization = 0;             ///< busy node-seconds/(makespan*nodes)

  double mean_wait_s = 0;
  double p95_wait_s = 0;
  double max_wait_s = 0;
  double mean_bounded_slowdown = 0;
  double p95_bounded_slowdown = 0;
  double mean_dilation = 0;           ///< observed runtime / base runtime
  double shared_node_s = 0;           ///< node-seconds with >= 2 jobs resident
  double throughput_jobs_per_h = 0;

  /// Machine energy over the makespan under the EnergyParams power model.
  double energy_kwh = 0;
  /// Useful work delivered per energy: node-hours of work per kWh.
  double work_node_h_per_kwh = 0;
};

/// Computes metrics over finished jobs in `jobs` (pending/cancelled jobs are
/// counted in jobs_total only). `machine_nodes` is the machine size. A
/// replay of the records through the fold a run makes as its jobs retire
/// (metrics/stream_metrics.hpp), so on a run without requeues it equals
/// the run's own metrics bit for bit; a requeued job's record keeps only
/// its last attempt, which is all the replay can count.
ScheduleMetrics compute(const workload::JobList& jobs, int machine_nodes,
                        const EnergyParams& energy = {});

/// Per-job bounded slowdown with the standard 10 s bound.
double bounded_slowdown(const workload::Job& job, double tau_s = 10.0);

}  // namespace cosched::metrics
