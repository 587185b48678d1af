#include "metrics/stream_metrics.hpp"

#include <algorithm>

#include "util/check.hpp"
#include "util/stats.hpp"

namespace cosched::metrics {

void OccupancyMeter::reset(int nodes) {
  COSCHED_CHECK(nodes > 0);
  nodes_.assign(static_cast<std::size_t>(nodes), {});
  busy_ticks_ = 0;
  shared_ticks_ = 0;
}

void OccupancyMeter::advance(NodeId node, SimTime now) {
  NodeState& s = nodes_[static_cast<std::size_t>(node)];
  COSCHED_CHECK_MSG(now >= s.last, "occupancy meter clock went backwards on "
                                       << "node " << node);
  const std::int64_t delta = now - s.last;
  if (s.count >= 1) busy_ticks_ += delta;
  if (s.count >= 2) shared_ticks_ += delta;
  s.last = now;
}

void OccupancyMeter::occupy(const std::vector<NodeId>& nodes, SimTime now) {
  for (NodeId n : nodes) {
    advance(n, now);
    ++nodes_[static_cast<std::size_t>(n)].count;
  }
}

void OccupancyMeter::vacate(const std::vector<NodeId>& nodes, SimTime now) {
  for (NodeId n : nodes) {
    advance(n, now);
    NodeState& s = nodes_[static_cast<std::size_t>(n)];
    COSCHED_CHECK_MSG(s.count > 0, "vacating idle node " << n);
    --s.count;
  }
}

void StreamAccumulator::record(std::size_t submit_idx,
                               const workload::Job& job) {
  if (submit_idx >= rows_.size()) rows_.resize(submit_idx + 1);
  Row& row = rows_[submit_idx];
  COSCHED_CHECK_MSG(row.kind == 0, "job at submit index " << submit_idx
                                                          << " recorded twice");
  ++recorded_;
  if (!job.finished()) {  // cancelled: counts in jobs_total only
    row.kind = 3;
    return;
  }
  first_submit_ = std::min(first_submit_, job.submit_time);
  last_end_ = std::max(last_end_, job.end_time);
  row.wait_s = to_seconds(job.wait_time());
  row.slowdown = bounded_slowdown(job);
  row.dilation = job.observed_dilation;
  if (job.state == workload::JobState::kCompleted) {
    row.kind = 1;
    row.work_node_s = job.work_node_seconds();
  } else {
    row.kind = 2;
    row.work_node_s = static_cast<double>(job.nodes) *
                      to_seconds(job.end_time - job.start_time);
  }
}

ScheduleMetrics StreamAccumulator::finalize(int machine_nodes,
                                            const OccupancyMeter& meter,
                                            const EnergyParams& energy) const {
  COSCHED_CHECK(machine_nodes > 0);
  COSCHED_CHECK_MSG(recorded_ == rows_.size(),
                    "submit-index gaps: " << recorded_ << " rows recorded, "
                                          << rows_.size() << " indexed");
  ScheduleMetrics m;
  m.jobs_total = static_cast<int>(rows_.size());

  // Fold in submit order, whatever order the rows were recorded in, so the
  // double sums below associate the same way for every caller.
  std::vector<double> waits, slowdowns, dilations;
  for (const Row& row : rows_) {
    if (row.kind == 0 || row.kind == 3) continue;
    if (row.kind == 1) {
      ++m.jobs_completed;
      m.total_work_node_s += row.work_node_s;
    } else {
      ++m.jobs_timeout;
      m.lost_work_node_s += row.work_node_s;
    }
    waits.push_back(row.wait_s);
    slowdowns.push_back(row.slowdown);
    dilations.push_back(row.dilation);
  }
  if (m.jobs_completed + m.jobs_timeout == 0) return m;

  m.makespan_s = to_seconds(last_end_ - first_submit_);
  m.busy_node_s = to_seconds(meter.busy_ticks());
  m.shared_node_s = to_seconds(meter.shared_ticks());

  const double machine_time = m.makespan_s * machine_nodes;
  m.scheduling_efficiency =
      machine_time > 0 ? m.total_work_node_s / machine_time : 0;
  m.computational_efficiency =
      m.busy_node_s > 0 ? m.total_work_node_s / m.busy_node_s : 0;
  m.utilization = machine_time > 0 ? m.busy_node_s / machine_time : 0;

  m.mean_wait_s = mean_of(waits);
  m.p95_wait_s = quantile(waits, 0.95);
  m.max_wait_s =
      waits.empty() ? 0 : *std::max_element(waits.begin(), waits.end());
  m.mean_bounded_slowdown = mean_of(slowdowns);
  m.p95_bounded_slowdown = quantile(slowdowns, 0.95);
  m.mean_dilation = mean_of(dilations);
  m.throughput_jobs_per_h =
      m.makespan_s > 0
          ? static_cast<double>(m.jobs_completed) / (m.makespan_s / 3600.0)
          : 0;

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
