#include "metrics/metrics.hpp"

#include <algorithm>
#include <tuple>
#include <vector>

#include "metrics/stream_metrics.hpp"
#include "util/check.hpp"

namespace cosched::metrics {

double bounded_slowdown(const workload::Job& job, double tau_s) {
  COSCHED_CHECK(job.finished());
  const double turnaround = to_seconds(job.turnaround());
  const double runtime = to_seconds(job.end_time - job.start_time);
  return std::max(1.0, turnaround / std::max(runtime, tau_s));
}

ScheduleMetrics compute(const workload::JobList& jobs, int machine_nodes,
                        const EnergyParams& energy) {
  COSCHED_CHECK(machine_nodes > 0);
  // The same fold a run makes as its jobs retire: one accumulator row per
  // record, in list order, and every run's start and end through the
  // occupancy meter, in time order.
  StreamAccumulator acc;
  // (time, vacate, index): starts sort first at equal times, so a
  // zero-length run never vacates a node before occupying it.
  std::vector<std::tuple<SimTime, bool, std::size_t>> edges;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const workload::Job& job = jobs[i];
    acc.record(i, job);
    if (job.start_time < 0 || job.end_time < 0) continue;  // never ran
    for (NodeId node : job.alloc_nodes) {
      COSCHED_CHECK_MSG(node >= 0 && node < machine_nodes,
                        "job " << job.id << " ran on node " << node << " of "
                               << machine_nodes);
    }
    edges.emplace_back(job.start_time, false, i);
    edges.emplace_back(job.end_time, true, i);
  }
  std::sort(edges.begin(), edges.end());
  OccupancyMeter meter;
  meter.reset(machine_nodes);
  for (const auto& [time, vacate, i] : edges) {
    if (vacate) {
      meter.vacate(jobs[i].alloc_nodes, time);
    } else {
      meter.occupy(jobs[i].alloc_nodes, time);
    }
  }
  return acc.finalize(machine_nodes, meter, energy);
}

}  // namespace cosched::metrics
