#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "metrics/metrics.hpp"
#include "util/rng.hpp"

namespace cosched::metrics {
namespace {

workload::Job completed(JobId id, int nodes, SimTime submit, SimTime start,
                        SimDuration elapsed, std::vector<NodeId> alloc,
                        SimDuration base = -1) {
  workload::Job j;
  j.id = id;
  j.nodes = nodes;
  j.submit_time = submit;
  j.start_time = start;
  j.end_time = start + elapsed;
  j.base_runtime = base >= 0 ? base : elapsed;
  j.walltime_limit = elapsed * 2;
  j.state = workload::JobState::kCompleted;
  j.alloc_nodes = std::move(alloc);
  j.observed_dilation =
      static_cast<double>(elapsed) / static_cast<double>(j.base_runtime);
  return j;
}

TEST(Metrics, EmptyInput) {
  const auto m = compute({}, 4);
  EXPECT_EQ(m.jobs_total, 0);
  EXPECT_EQ(m.jobs_completed, 0);
  EXPECT_DOUBLE_EQ(m.makespan_s, 0);
}

TEST(Metrics, SingleExclusiveJob) {
  // One job, 2 nodes, 100 s, submitted at t=0 and started immediately on a
  // 4-node machine.
  const auto j = completed(1, 2, 0, 0, 100 * kSecond, {0, 1});
  const auto m = compute({j}, 4);
  EXPECT_EQ(m.jobs_completed, 1);
  EXPECT_DOUBLE_EQ(m.makespan_s, 100.0);
  EXPECT_DOUBLE_EQ(m.total_work_node_s, 200.0);
  EXPECT_DOUBLE_EQ(m.busy_node_s, 200.0);
  EXPECT_DOUBLE_EQ(m.computational_efficiency, 1.0);
  EXPECT_DOUBLE_EQ(m.scheduling_efficiency, 200.0 / 400.0);
  EXPECT_DOUBLE_EQ(m.utilization, 0.5);
  EXPECT_DOUBLE_EQ(m.mean_wait_s, 0.0);
  EXPECT_DOUBLE_EQ(m.mean_dilation, 1.0);
  EXPECT_DOUBLE_EQ(m.shared_node_s, 0.0);
}

TEST(Metrics, BackToBackJobsPerfectPacking) {
  const auto j1 = completed(1, 1, 0, 0, 50 * kSecond, {0});
  const auto j2 = completed(2, 1, 0, 50 * kSecond, 50 * kSecond, {0});
  const auto m = compute({j1, j2}, 1);
  EXPECT_DOUBLE_EQ(m.makespan_s, 100.0);
  EXPECT_DOUBLE_EQ(m.scheduling_efficiency, 1.0);
  EXPECT_DOUBLE_EQ(m.computational_efficiency, 1.0);
  EXPECT_DOUBLE_EQ(m.utilization, 1.0);
}

TEST(Metrics, SharedNodeCountsOnceForBusyTime) {
  // Two jobs co-resident on node 0 for 100 s, each with base runtime 80 s
  // (dilated to 100 s): the node is busy 100 s but produced 160 s of work.
  const auto j1 =
      completed(1, 1, 0, 0, 100 * kSecond, {0}, /*base=*/80 * kSecond);
  const auto j2 =
      completed(2, 1, 0, 0, 100 * kSecond, {0}, /*base=*/80 * kSecond);
  const auto m = compute({j1, j2}, 1);
  EXPECT_DOUBLE_EQ(m.busy_node_s, 100.0);
  EXPECT_DOUBLE_EQ(m.shared_node_s, 100.0);
  EXPECT_DOUBLE_EQ(m.total_work_node_s, 160.0);
  EXPECT_DOUBLE_EQ(m.computational_efficiency, 1.6);
  EXPECT_DOUBLE_EQ(m.scheduling_efficiency, 1.6);
  EXPECT_NEAR(m.mean_dilation, 1.25, 1e-9);
}

TEST(Metrics, PartialOverlapAccounting) {
  // Job 1 on node 0 for [0, 100); job 2 joins for [50, 150).
  const auto j1 = completed(1, 1, 0, 0, 100 * kSecond, {0});
  const auto j2 = completed(2, 1, 0, 50 * kSecond, 100 * kSecond, {0});
  const auto m = compute({j1, j2}, 1);
  EXPECT_DOUBLE_EQ(m.busy_node_s, 150.0);   // union of intervals
  EXPECT_DOUBLE_EQ(m.shared_node_s, 50.0);  // the overlap
}

TEST(Metrics, TimeoutCountsAsLostWork) {
  auto j = completed(1, 2, 0, 0, 100 * kSecond, {0, 1});
  j.state = workload::JobState::kTimeout;
  const auto m = compute({j}, 4);
  EXPECT_EQ(m.jobs_timeout, 1);
  EXPECT_EQ(m.jobs_completed, 0);
  EXPECT_DOUBLE_EQ(m.total_work_node_s, 0.0);    // nothing useful finished
  EXPECT_DOUBLE_EQ(m.lost_work_node_s, 200.0);   // consumed machine time
  EXPECT_DOUBLE_EQ(m.computational_efficiency, 0.0);
}

TEST(Metrics, WaitStatistics) {
  const auto j1 = completed(1, 1, 0, 0, 10 * kSecond, {0});
  const auto j2 = completed(2, 1, 0, 100 * kSecond, 10 * kSecond, {0});
  const auto j3 = completed(3, 1, 0, 200 * kSecond, 10 * kSecond, {0});
  const auto m = compute({j1, j2, j3}, 1);
  EXPECT_DOUBLE_EQ(m.mean_wait_s, 100.0);
  EXPECT_DOUBLE_EQ(m.max_wait_s, 200.0);
}

TEST(Metrics, PendingJobsOnlyCountInTotal) {
  workload::Job pending;
  pending.id = 9;
  pending.nodes = 1;
  const auto j = completed(1, 1, 0, 0, 10 * kSecond, {0});
  const auto m = compute({j, pending}, 1);
  EXPECT_EQ(m.jobs_total, 2);
  EXPECT_EQ(m.jobs_completed, 1);
}

TEST(Metrics, ThroughputMatchesMakespan) {
  const auto j1 = completed(1, 1, 0, 0, 1800 * kSecond, {0});
  const auto j2 = completed(2, 1, 0, 1800 * kSecond, 1800 * kSecond, {0});
  const auto m = compute({j1, j2}, 1);
  EXPECT_DOUBLE_EQ(m.makespan_s, 3600.0);
  EXPECT_DOUBLE_EQ(m.throughput_jobs_per_h, 2.0);
}

TEST(BoundedSlowdown, UsesTenSecondBound) {
  // 5 s runtime, 5 s wait: turnaround 10 s; bound max(runtime, 10) = 10.
  auto j = completed(1, 1, 0, 5 * kSecond, 5 * kSecond, {0});
  EXPECT_DOUBLE_EQ(bounded_slowdown(j), 1.0);

  // 100 s runtime, 100 s wait: slowdown 2.
  j = completed(1, 1, 0, 100 * kSecond, 100 * kSecond, {0});
  EXPECT_DOUBLE_EQ(bounded_slowdown(j), 2.0);
}

TEST(BoundedSlowdown, NeverBelowOne) {
  const auto j = completed(1, 1, 0, 0, kSecond, {0});
  EXPECT_DOUBLE_EQ(bounded_slowdown(j), 1.0);
}

// --- Occupancy sweep oracle ---------------------------------------------------
//
// An independent per-node std::map sweep, kept as the oracle for busy and
// shared node-seconds. It sums integer ticks, as compute()'s replay
// through the occupancy meter does, so the totals must agree bit for bit,
// and with them every figure derived from them.

struct ReferenceOccupancy {
  SimTime busy = 0;
  SimTime shared = 0;
  double busy_s() const { return to_seconds(busy); }
  double shared_s() const { return to_seconds(shared); }
};

ReferenceOccupancy reference_occupancy(const workload::JobList& jobs) {
  std::map<NodeId, std::vector<std::pair<SimTime, int>>> events;
  for (const auto& job : jobs) {
    if (job.start_time < 0 || job.end_time < 0) continue;
    for (NodeId node : job.alloc_nodes) {
      events[node].emplace_back(job.start_time, +1);
      events[node].emplace_back(job.end_time, -1);
    }
  }
  ReferenceOccupancy totals;
  for (auto& [node, evs] : events) {
    (void)node;
    std::sort(evs.begin(), evs.end());
    int depth = 0;
    SimTime prev = 0;
    for (const auto& [time, delta] : evs) {
      if (depth >= 1) totals.busy += time - prev;
      if (depth >= 2) totals.shared += time - prev;
      depth += delta;
      prev = time;
    }
  }
  return totals;
}

/// A random finished-or-not job list on `nodes` nodes: jobs overlap on
/// nodes (sharing depth up to 4), some time out, some never start, some
/// run for zero time, and the highest node id always hosts a job.
workload::JobList random_jobs(Pcg32& rng, int nodes) {
  workload::JobList jobs;
  const int count = static_cast<int>(rng.uniform_int(1, 40));
  for (int i = 0; i < count; ++i) {
    const int width = static_cast<int>(rng.uniform_int(1, nodes));
    std::vector<NodeId> alloc;
    const NodeId first =
        static_cast<NodeId>(rng.uniform_int(0, nodes - width));
    for (int k = 0; k < width; ++k) alloc.push_back(first + k);
    if (i == 0) alloc = {static_cast<NodeId>(nodes - 1)};
    const SimTime submit = rng.uniform_int(0, 1000) * kSecond;
    const SimTime start = submit + rng.uniform_int(0, 500) * kSecond;
    const SimDuration elapsed =
        rng.uniform(0.0, 1.0) < 0.1
            ? 0
            : rng.uniform_int(1, 2000) * kMillisecond * 997;
    workload::Job j =
        completed(i + 1, static_cast<int>(alloc.size()), submit, start,
                  elapsed, alloc, elapsed > 0 ? elapsed * 3 / 4 : 1);
    const double kind = i == 0 ? 1.0 : rng.uniform(0.0, 1.0);
    if (kind < 0.15) {
      j.state = workload::JobState::kTimeout;
    } else if (kind < 0.25) {
      j.state = workload::JobState::kPending;
      j.start_time = -1;
      j.end_time = -1;
      j.alloc_nodes.clear();
    }
    jobs.push_back(std::move(j));
  }
  return jobs;
}

TEST(OccupancyOracle, FlatSweepMatchesMapSweep) {
  Pcg32 rng(0x0cc5u);
  const EnergyParams energy;
  int shared_trials = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const int nodes = static_cast<int>(rng.uniform_int(1, 12));
    const workload::JobList jobs = random_jobs(rng, nodes);
    const ScheduleMetrics m = compute(jobs, nodes, energy);
    if (m.jobs_completed + m.jobs_timeout == 0) continue;
    const ReferenceOccupancy ref = reference_occupancy(jobs);
    shared_trials += ref.shared > 0 ? 1 : 0;
    const double machine_time = m.makespan_s * nodes;
    EXPECT_EQ(m.busy_node_s, ref.busy_s()) << "trial " << trial;
    EXPECT_EQ(m.shared_node_s, ref.shared_s()) << "trial " << trial;
    EXPECT_EQ(m.scheduling_efficiency,
              machine_time > 0 ? m.total_work_node_s / machine_time : 0)
        << "trial " << trial;
    EXPECT_EQ(m.computational_efficiency,
              ref.busy > 0 ? m.total_work_node_s / ref.busy_s() : 0)
        << "trial " << trial;
    EXPECT_EQ(m.utilization,
              machine_time > 0 ? ref.busy_s() / machine_time : 0)
        << "trial " << trial;
    const double joules =
        energy.idle_w * std::max(0.0, machine_time - ref.busy_s()) +
        energy.primary_w * (ref.busy_s() - ref.shared_s()) +
        energy.shared_w * ref.shared_s();
    EXPECT_EQ(m.energy_kwh, joules / 3.6e6) << "trial " << trial;
  }
  EXPECT_GT(shared_trials, 100) << "fixture rarely shares a node";
}

}  // namespace
}  // namespace cosched::metrics
