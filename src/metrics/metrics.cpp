#include "metrics/metrics.hpp"

#include <algorithm>
#include <numeric>

#include "util/check.hpp"
#include "util/stats.hpp"

namespace cosched::metrics {

double bounded_slowdown(const workload::Job& job, double tau_s) {
  COSCHED_CHECK(job.finished());
  const double turnaround = to_seconds(job.turnaround());
  const double runtime = to_seconds(job.end_time - job.start_time);
  return std::max(1.0, turnaround / std::max(runtime, tau_s));
}

namespace {

/// Sums busy and shared (>= 2 jobs) node-seconds by sweeping per-node
/// occupancy-change events.
struct NodeTimeTotals {
  double busy_s = 0;
  double shared_s = 0;
};

NodeTimeTotals node_time_totals(const workload::JobList& jobs) {
  // Events (+1 at start, -1 at end) in one flat array laid out node by
  // node: node n's segment is [begin[n], begin[n + 1]). Count, prefix-sum,
  // fill.
  const auto ran = [](const workload::Job& job) {
    return job.start_time >= 0 && job.end_time >= 0;
  };
  std::vector<std::size_t> begin;
  for (const auto& job : jobs) {
    if (!ran(job)) continue;
    for (NodeId node : job.alloc_nodes) {
      COSCHED_CHECK_MSG(node >= 0,
                        "job " << job.id << " ran on node " << node);
      const auto n = static_cast<std::size_t>(node);
      if (begin.size() < n + 2) begin.resize(n + 2, 0);
      begin[n + 1] += 2;
    }
  }
  std::partial_sum(begin.begin(), begin.end(), begin.begin());
  std::vector<std::pair<SimTime, int>> events(begin.empty() ? 0
                                                            : begin.back());
  std::vector<std::size_t> cursor(begin);
  for (const auto& job : jobs) {
    if (!ran(job)) continue;
    for (NodeId node : job.alloc_nodes) {
      std::size_t& at = cursor[static_cast<std::size_t>(node)];
      events[at++] = {job.start_time, +1};
      events[at++] = {job.end_time, -1};
    }
  }
  // Nodes in ascending order, each segment sorted, so the float sums depend
  // on the events alone and not on the order of the job list.
  NodeTimeTotals totals;
  for (std::size_t n = 0; n + 1 < begin.size(); ++n) {
    const auto first = events.begin() + static_cast<std::ptrdiff_t>(begin[n]);
    const auto last =
        events.begin() + static_cast<std::ptrdiff_t>(begin[n + 1]);
    std::sort(first, last);
    int depth = 0;
    SimTime prev = 0;
    for (auto it = first; it != last; ++it) {
      const auto [time, delta] = *it;
      if (depth >= 1) totals.busy_s += to_seconds(time - prev);
      if (depth >= 2) totals.shared_s += to_seconds(time - prev);
      depth += delta;
      prev = time;
    }
    COSCHED_CHECK_MSG(depth == 0, "unbalanced occupancy on node " << n);
  }
  return totals;
}

}  // namespace

ScheduleMetrics compute(const workload::JobList& jobs, int machine_nodes,
                        const EnergyParams& energy) {
  COSCHED_CHECK(machine_nodes > 0);
  ScheduleMetrics m;
  m.jobs_total = static_cast<int>(jobs.size());

  SimTime first_submit = kTimeInfinity;
  SimTime last_end = 0;
  std::vector<double> waits, slowdowns, dilations;
  for (const auto& job : jobs) {
    if (!job.finished()) continue;
    first_submit = std::min(first_submit, job.submit_time);
    last_end = std::max(last_end, job.end_time);
    if (job.state == workload::JobState::kCompleted) {
      ++m.jobs_completed;
      m.total_work_node_s += job.work_node_seconds();
    } else {
      ++m.jobs_timeout;
      m.lost_work_node_s += static_cast<double>(job.nodes) *
                            to_seconds(job.end_time - job.start_time);
    }
    waits.push_back(to_seconds(job.wait_time()));
    slowdowns.push_back(bounded_slowdown(job));
    dilations.push_back(job.observed_dilation);
  }
  if (m.jobs_completed + m.jobs_timeout == 0) return m;

  m.makespan_s = to_seconds(last_end - first_submit);
  const auto totals = node_time_totals(jobs);
  m.busy_node_s = totals.busy_s;
  m.shared_node_s = totals.shared_s;

  const double machine_time = m.makespan_s * machine_nodes;
  m.scheduling_efficiency =
      machine_time > 0 ? m.total_work_node_s / machine_time : 0;
  m.computational_efficiency =
      m.busy_node_s > 0 ? m.total_work_node_s / m.busy_node_s : 0;
  m.utilization = machine_time > 0 ? m.busy_node_s / machine_time : 0;

  m.mean_wait_s = mean_of(waits);
  m.p95_wait_s = quantile(waits, 0.95);
  m.max_wait_s = waits.empty() ? 0 : *std::max_element(waits.begin(),
                                                       waits.end());
  m.mean_bounded_slowdown = mean_of(slowdowns);
  m.p95_bounded_slowdown = quantile(slowdowns, 0.95);
  m.mean_dilation = mean_of(dilations);
  m.throughput_jobs_per_h =
      m.makespan_s > 0
          ? static_cast<double>(m.jobs_completed) / (m.makespan_s / 3600.0)
          : 0;

  // Energy: nodes idle for (machine_time - busy), single-job for
  // (busy - shared), co-located for shared.
  const double idle_s = std::max(0.0, machine_time - m.busy_node_s);
  const double single_s = m.busy_node_s - m.shared_node_s;
  const double joules = energy.idle_w * idle_s + energy.primary_w * single_s +
                        energy.shared_w * m.shared_node_s;
  m.energy_kwh = joules / 3.6e6;
  m.work_node_h_per_kwh =
      m.energy_kwh > 0 ? (m.total_work_node_s / 3600.0) / m.energy_kwh : 0;
  return m;
}

}  // namespace cosched::metrics
