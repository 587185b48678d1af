// Record-lifetime differentials. Every run retires each job at its final
// state; ControllerConfig::retire_finished only picks whether the retired
// record is kept or dropped. Both must give the same event stream, digest
// and metrics bit for bit over the same ingestion mode, and on every run
// without requeues metrics::compute's replay of the kept records must
// reproduce the run's metrics bit for bit (metrics/stream_metrics.hpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "audit/determinism.hpp"
#include "core/scheduler.hpp"
#include "metrics/metrics.hpp"
#include "sim/engine.hpp"
#include "slurmlite/simulation.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"
#include "workload/campaign.hpp"
#include "workload/generator.hpp"

namespace cosched {
namespace {

using cosched::testing::make_job;

const apps::Catalog& trinity() {
  static const apps::Catalog catalog = apps::Catalog::trinity();
  return catalog;
}

// Runs the spec's generated workload, pulled lazily, with retire on/off.
slurmlite::SimulationResult run_streaming(slurmlite::SimulationSpec spec,
                                          bool retire) {
  spec.controller.retire_finished = retire;
  spec.hash_events = true;
  return slurmlite::run_simulation(spec, trinity());
}

// Every metric field, bit for bit.
void expect_metrics_match(const metrics::ScheduleMetrics& actual,
                          const metrics::ScheduleMetrics& expected) {
  EXPECT_EQ(actual.jobs_total, expected.jobs_total);
  EXPECT_EQ(actual.jobs_completed, expected.jobs_completed);
  EXPECT_EQ(actual.jobs_timeout, expected.jobs_timeout);
  EXPECT_EQ(actual.makespan_s, expected.makespan_s);
  EXPECT_EQ(actual.total_work_node_s, expected.total_work_node_s);
  EXPECT_EQ(actual.busy_node_s, expected.busy_node_s);
  EXPECT_EQ(actual.lost_work_node_s, expected.lost_work_node_s);
  EXPECT_EQ(actual.scheduling_efficiency, expected.scheduling_efficiency);
  EXPECT_EQ(actual.computational_efficiency,
            expected.computational_efficiency);
  EXPECT_EQ(actual.utilization, expected.utilization);
  EXPECT_EQ(actual.mean_wait_s, expected.mean_wait_s);
  EXPECT_EQ(actual.p95_wait_s, expected.p95_wait_s);
  EXPECT_EQ(actual.max_wait_s, expected.max_wait_s);
  EXPECT_EQ(actual.mean_bounded_slowdown, expected.mean_bounded_slowdown);
  EXPECT_EQ(actual.p95_bounded_slowdown, expected.p95_bounded_slowdown);
  EXPECT_EQ(actual.mean_dilation, expected.mean_dilation);
  EXPECT_EQ(actual.shared_node_s, expected.shared_node_s);
  EXPECT_EQ(actual.throughput_jobs_per_h, expected.throughput_jobs_per_h);
  EXPECT_EQ(actual.energy_kwh, expected.energy_kwh);
  EXPECT_EQ(actual.work_node_h_per_kwh, expected.work_node_h_per_kwh);
}

// --- Streaming differential, every strategy ---------------------------------

class RetireParity : public ::testing::TestWithParam<core::StrategyKind> {};

TEST_P(RetireParity, StreamingRetireReproducesTheRun) {
  slurmlite::SimulationSpec spec;
  spec.controller.nodes = 16;
  spec.controller.strategy = GetParam();
  spec.workload = workload::trinity_stream(16, 400, 0.9);
  spec.seed = 11;

  const auto base = run_streaming(spec, /*retire=*/false);
  const auto retired = run_streaming(spec, /*retire=*/true);

  ASSERT_NE(base.event_stream_hash, 0u);
  EXPECT_EQ(retired.event_stream_hash, base.event_stream_hash);
  EXPECT_EQ(retired.events_executed, base.events_executed);
  // The flat-memory contract: a run that drops retired records returns
  // none.
  EXPECT_TRUE(retired.jobs.empty());
  EXPECT_EQ(base.jobs.size(), 400u);
  expect_metrics_match(retired.metrics, base.metrics);
  // The one fold: replaying the kept records through metrics::compute
  // reproduces the run's own metrics.
  ASSERT_EQ(base.stats.requeues, 0u);
  expect_metrics_match(metrics::compute(base.jobs, spec.controller.nodes),
                       base.metrics);
  EXPECT_EQ(retired.stats.scheduler_passes, base.stats.scheduler_passes);
  EXPECT_EQ(retired.stats.primary_starts, base.stats.primary_starts);
  EXPECT_EQ(retired.stats.secondary_starts, base.stats.secondary_starts);
  EXPECT_EQ(retired.stats.completions, base.stats.completions);
  EXPECT_EQ(retired.stats.timeouts, base.stats.timeouts);
}

std::string retire_name(
    const ::testing::TestParamInfo<core::StrategyKind>& info) {
  return std::string(core::to_string(info.param));
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, RetireParity,
                         ::testing::ValuesIn(core::all_strategies()),
                         retire_name);

// --- Failure / requeue paths -------------------------------------------------

// Six scripted node failures on a 16-node cobackfill machine; under the
// requeue policy jobs resume from 30-minute checkpoints.
slurmlite::SimulationSpec failure_spec(bool requeue) {
  slurmlite::SimulationSpec spec;
  spec.controller.nodes = 16;
  spec.controller.strategy = core::StrategyKind::kCoBackfill;
  spec.controller.requeue_on_failure = requeue;
  spec.controller.checkpoint_interval = requeue ? 30 * kMinute : 0;
  for (int i = 0; i < 6; ++i) {
    spec.controller.failures.push_back({.node = static_cast<NodeId>(i * 2),
                                        .at = (i + 1) * kHour,
                                        .duration = 2 * kHour});
  }
  spec.workload = workload::trinity_stream(16, 250, 0.9);
  spec.seed = 7;
  return spec;
}

TEST(RetireMode, FailureRequeuesMatchUnderBothPolicies) {
  for (const bool requeue : {true, false}) {
    const slurmlite::SimulationSpec spec = failure_spec(requeue);
    const auto base = run_streaming(spec, /*retire=*/false);
    const auto retired = run_streaming(spec, /*retire=*/true);

    EXPECT_EQ(retired.event_stream_hash, base.event_stream_hash)
        << "requeue_on_failure=" << requeue;
    EXPECT_EQ(retired.events_executed, base.events_executed);
    EXPECT_EQ(retired.stats.requeues, base.stats.requeues);
    EXPECT_EQ(retired.stats.node_failures, base.stats.node_failures);
    EXPECT_EQ(retired.stats.timeouts, base.stats.timeouts);
    expect_metrics_match(retired.metrics, base.metrics);
    if (base.stats.requeues == 0) {
      expect_metrics_match(
          metrics::compute(base.jobs, spec.controller.nodes), base.metrics);
    }
  }
}

// The run meters every attempt a job makes, the ones a node failure cut
// short included, whether its records are kept or dropped. A requeued
// job's final record keeps only its last attempt, so replaying the records
// finds less busy node-time than the run spent.
TEST(RetireMode, FailureRunMetersEveryAttempt) {
  slurmlite::SimulationSpec spec = failure_spec(/*requeue=*/true);
  const auto kept = slurmlite::run_simulation(spec, trinity());
  spec.controller.retire_finished = true;
  const auto dropped = slurmlite::run_simulation(spec, trinity());

  ASSERT_GT(kept.stats.requeues, 0u);
  ASSERT_EQ(kept.jobs.size(), 250u);
  const auto replay = metrics::compute(kept.jobs, spec.controller.nodes);
  EXPECT_GT(kept.metrics.busy_node_s, replay.busy_node_s);
  EXPECT_LT(kept.metrics.computational_efficiency,
            replay.computational_efficiency);
  EXPECT_TRUE(dropped.jobs.empty());
  expect_metrics_match(dropped.metrics, kept.metrics);
}

// --- Dependency chains and cascade cancellation ------------------------------

// Hand-built list exercising every final state a record retires from:
// completion, walltime timeout, and dependency-cascade cancellation (the
// parent times out, so its "afterok" dependent — still held — is cancelled
// without ever running). Both sides use run_jobs, so event ids and digests
// are comparable.
TEST(RetireMode, DependencyCascadeMatchesMaterializedRun) {
  workload::JobList jobs;
  // 1: completes normally.
  jobs.push_back(make_job(1, 4, 30 * kMinute, 2 * kHour, 0));
  // 2: base runtime past its walltime -> timeout.
  auto doomed = make_job(2, 2, 2 * kHour, kHour, 1);
  doomed.submit_time = 5 * kMinute;
  jobs.push_back(doomed);
  // 3: afterok on the doomed job -> cancelled in cascade.
  auto dependent = make_job(3, 2, 20 * kMinute, kHour, 0);
  dependent.submit_time = 10 * kMinute;
  dependent.depends_on = 2;
  jobs.push_back(dependent);
  // 4 -> 5: a chain that resolves: 4 completes, 5 runs after it.
  auto head = make_job(4, 8, 40 * kMinute, 2 * kHour, 2);
  head.submit_time = 10 * kMinute;
  jobs.push_back(head);
  auto tail = make_job(5, 8, 10 * kMinute, kHour, 2);
  tail.submit_time = 15 * kMinute;
  tail.depends_on = 4;
  jobs.push_back(tail);

  slurmlite::SimulationSpec spec;
  spec.controller.nodes = 16;
  spec.controller.strategy = core::StrategyKind::kCoBackfill;
  spec.hash_events = true;

  const auto base = slurmlite::run_jobs(spec, trinity(), jobs);
  spec.controller.retire_finished = true;
  const auto retired = slurmlite::run_jobs(spec, trinity(), jobs);

  ASSERT_EQ(base.jobs.size(), 5u);
  EXPECT_EQ(base.jobs[1].state, workload::JobState::kTimeout);
  EXPECT_EQ(base.jobs[2].state, workload::JobState::kCancelled);
  EXPECT_EQ(base.jobs[4].state, workload::JobState::kCompleted);

  EXPECT_TRUE(retired.jobs.empty());
  EXPECT_EQ(retired.event_stream_hash, base.event_stream_hash);
  EXPECT_EQ(retired.events_executed, base.events_executed);
  EXPECT_EQ(retired.stats.dependency_cancellations,
            base.stats.dependency_cancellations);
  EXPECT_GE(base.stats.dependency_cancellations, 1u);
  expect_metrics_match(retired.metrics, base.metrics);
}

// Explicit scancel of pending and running jobs mid-run: the digest fold
// must agree between a retiring and a record-keeping controller even when
// jobs leave through cancel() rather than the event loop.
TEST(RetireMode, InterleavedCancellationsMatch) {
  const auto cancel_run = [](bool retire) {
    sim::Engine engine;
    slurmlite::ControllerConfig config;
    config.nodes = 8;
    config.strategy = core::StrategyKind::kCoBackfill;
    config.retire_finished = retire;
    slurmlite::Controller controller(engine, config, trinity());
    audit::EventStreamHasher hasher;
    engine.add_observer(&hasher);

    const workload::Generator generator(workload::trinity_campaign(8, 60),
                                        trinity());
    Pcg32 rng(19, /*stream=*/0x5eed);
    for (const auto& job : generator.generate(rng)) controller.submit(job);

    // Cancel a mix of (by then) running, pending, and already-finished
    // ids at fixed sim times; identical schedule on both sides.
    const std::vector<std::pair<SimTime, JobId>> cancels = {
        {20 * kMinute, 3}, {45 * kMinute, 12}, {90 * kMinute, 25},
        {2 * kHour, 40},   {3 * kHour, 7},
    };
    for (const auto& [at, victim] : cancels) {
      engine.schedule_at(at, sim::EventPriority::kTimer, "test_cancel",
                         [&controller, victim = victim] {
                           controller.cancel(victim);
                         });
    }
    engine.run();

    audit::Fnv64 digest = hasher.hash();
    if (retire) {
      EXPECT_EQ(controller.resident_jobs(), 0u);
      controller.fold_retired_digests(digest);
    } else {
      audit::mix_jobs(digest, controller.job_records());
    }
    return digest.digest();
  };

  EXPECT_EQ(cancel_run(/*retire=*/true), cancel_run(/*retire=*/false));
}

// --- Heavier streaming differential ------------------------------------------

// A 20k-job retiring run against run_simulation keeping its records over
// the same seed: both pull the same arrivals through the one ingestion
// path, so the digest, the schedule and every job-derived metric agree.
TEST(RetireMode, LargeStreamMatchesMaterializedMetrics) {
  slurmlite::SimulationSpec spec;
  spec.controller.nodes = 64;
  spec.controller.strategy = core::StrategyKind::kCoBackfill;
  spec.workload = workload::trinity_stream(64, 20000, 0.9);
  spec.seed = 3;
  spec.audit = slurmlite::AuditMode::kOff;  // 20k jobs: keep debug runs fast
  spec.hash_events = true;

  const auto kept = slurmlite::run_simulation(spec, trinity());
  const auto retired = run_streaming(spec, /*retire=*/true);

  EXPECT_TRUE(retired.jobs.empty());
  EXPECT_EQ(kept.jobs.size(), 20000u);
  EXPECT_EQ(retired.event_stream_hash, kept.event_stream_hash);
  expect_metrics_match(retired.metrics, kept.metrics);
  expect_metrics_match(metrics::compute(kept.jobs, spec.controller.nodes),
                       kept.metrics);
  EXPECT_EQ(retired.stats.completions, kept.stats.completions);
  EXPECT_EQ(retired.stats.timeouts, kept.stats.timeouts);
}

// --- Engine id-table windowing -----------------------------------------------

// The engine's id->slot table must stay bounded on retiring workloads: a
// million executed events with a short in-flight window must not grow the
// table a million entries deep. The window compacts its dead prefix
// (monotone ids), so entries track the live span, not history.
TEST(EngineIdWindow, TableStaysBoundedOverManyEvents) {
  sim::Engine engine;
  std::size_t peak = 0;
  for (int wave = 0; wave < 500; ++wave) {
    for (int i = 0; i < 200; ++i) {
      engine.schedule_at(engine.now() + kSecond, sim::EventPriority::kTimer,
                         "tick", [] {});
    }
    engine.run();
    peak = std::max(peak, engine.id_table_entries());
  }
  EXPECT_EQ(engine.executed(), 100000u);
  // Compaction triggers at a 4096-entry dead prefix; the table may hold a
  // few windows' slack but never the full event history.
  EXPECT_LT(peak, 10000u);
}

}  // namespace
}  // namespace cosched
