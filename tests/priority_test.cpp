#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "audit/auditor.hpp"
#include "core/priority.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "slurmlite/simulation.hpp"
#include "test_support.hpp"
#include "workload/campaign.hpp"

namespace cosched {
namespace {

using cosched::testing::make_job;

// --- UsageTracker --------------------------------------------------------------

TEST(UsageTracker, StartsAtZero) {
  core::UsageTracker tracker;
  EXPECT_DOUBLE_EQ(tracker.usage("alice", 0), 0.0);
}

TEST(UsageTracker, ChargesAccumulate) {
  core::UsageTracker tracker;
  tracker.charge("alice", 100.0, 0);
  tracker.charge("alice", 50.0, 0);
  EXPECT_DOUBLE_EQ(tracker.usage("alice", 0), 150.0);
  EXPECT_DOUBLE_EQ(tracker.usage("bob", 0), 0.0);
}

TEST(UsageTracker, HalfLifeDecay) {
  core::UsageTracker tracker(/*half_life=*/kDay);
  tracker.charge("alice", 100.0, 0);
  EXPECT_NEAR(tracker.usage("alice", kDay), 50.0, 1e-9);
  EXPECT_NEAR(tracker.usage("alice", 2 * kDay), 25.0, 1e-9);
}

TEST(UsageTracker, ChargeAppliesDecayFirst) {
  core::UsageTracker tracker(kDay);
  tracker.charge("alice", 100.0, 0);
  tracker.charge("alice", 10.0, kDay);  // 100 decayed to 50, + 10
  EXPECT_NEAR(tracker.usage("alice", kDay), 60.0, 1e-9);
}

// --- PriorityCalculator ---------------------------------------------------------

TEST(PriorityCalculator, AgeRaisesPriority) {
  core::PriorityCalculator calc(core::PriorityWeights{}, 32);
  auto job = make_job(1, 4, kHour, 2 * kHour);
  job.submit_time = 0;
  const double young = calc.priority(job, kMinute, 0);
  const double old = calc.priority(job, 6 * kHour, 0);
  EXPECT_GT(old, young);
}

TEST(PriorityCalculator, AgeSaturates) {
  core::PriorityCalculator calc(core::PriorityWeights{}, 32);
  auto job = make_job(1, 4, kHour, 2 * kHour);
  const double at_sat = calc.priority(job, 12 * kHour, 0);
  const double beyond = calc.priority(job, 48 * kHour, 0);
  EXPECT_DOUBLE_EQ(at_sat, beyond);
}

TEST(PriorityCalculator, BiggerJobsRankHigher) {
  core::PriorityCalculator calc(core::PriorityWeights{}, 32);
  const auto small = make_job(1, 1, kHour, 2 * kHour);
  const auto big = make_job(2, 16, kHour, 2 * kHour);
  EXPECT_GT(calc.priority(big, 0, 0), calc.priority(small, 0, 0));
}

TEST(PriorityCalculator, HeavyUsersSink) {
  core::PriorityCalculator calc(core::PriorityWeights{}, 32);
  const auto job = make_job(1, 4, kHour, 2 * kHour);
  EXPECT_GT(calc.priority(job, 0, /*usage=*/0),
            calc.priority(job, 0, /*usage=*/32 * 3600.0));
}

TEST(PriorityCalculator, WeightsZeroDisableFactor) {
  core::PriorityWeights weights;
  weights.fair_share = 0;
  core::PriorityCalculator calc(weights, 32);
  const auto job = make_job(1, 4, kHour, 2 * kHour);
  EXPECT_DOUBLE_EQ(calc.priority(job, 0, 0),
                   calc.priority(job, 0, 1e9));
}

// --- Controller integration: priority queue policy ---------------------------------

const apps::Catalog& trinity() {
  static const apps::Catalog c = apps::Catalog::trinity();
  return c;
}

TEST(QueuePolicy, FairShareReordersUsers) {
  // Greedy user saturates the machine; under FIFO their backlog runs before
  // the light user's job, under priority the light user jumps the queue.
  auto run_policy = [](slurmlite::QueuePolicy policy) {
    sim::Engine engine;
    slurmlite::ControllerConfig config;
    config.nodes = 4;
    config.strategy = core::StrategyKind::kFcfs;
    config.queue_policy = policy;
    // Make fair share dominate age for this test.
    config.priority_weights.fair_share = 10000;
    config.priority_weights.age = 1;
    slurmlite::Controller controller(engine, config, trinity());
    // Greedy user: one running + two queued machine-fillers.
    for (JobId id = 1; id <= 3; ++id) {
      auto job = make_job(id, 4, kHour, 2 * kHour, 0);
      job.user = "greedy";
      controller.submit(job);
    }
    auto light = make_job(4, 4, kHour, 2 * kHour, 0);
    light.user = "light";
    light.submit_time = kMinute;
    controller.submit(light);
    engine.run();
    return controller.job_records();
  };

  const auto fifo = run_policy(slurmlite::QueuePolicy::kFifo);
  EXPECT_GT(fifo[3].start_time, fifo[2].start_time);  // light user last

  const auto prio = run_policy(slurmlite::QueuePolicy::kPriority);
  // With fair share active, the light user's job starts before at least
  // one of greedy's queued jobs.
  EXPECT_LT(prio[3].start_time, prio[2].start_time);
  // Everyone still completes.
  for (const auto& j : prio) {
    EXPECT_EQ(j.state, workload::JobState::kCompleted);
  }
}

TEST(QueuePolicy, PriorityKeepsDeterminism) {
  slurmlite::SimulationSpec spec;
  spec.controller.nodes = 8;
  spec.controller.strategy = core::StrategyKind::kCoBackfill;
  spec.controller.queue_policy = slurmlite::QueuePolicy::kPriority;
  spec.workload = workload::GeneratorParams{};
  spec.workload.job_count = 60;
  spec.workload.machine_nodes = 8;
  spec.workload.size_mix = {{1, 0.5}, {2, 0.3}, {4, 0.2}};
  const auto a = slurmlite::run_simulation(spec, trinity());
  const auto b = slurmlite::run_simulation(spec, trinity());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].start_time, b.jobs[i].start_time);
  }
}

// --- Dependencies -------------------------------------------------------------------

TEST(Dependencies, AfterOkRunsInOrder) {
  sim::Engine engine;
  slurmlite::ControllerConfig config;
  config.nodes = 8;  // room to run both at once — dependency must prevent it
  slurmlite::Controller controller(engine, config, trinity());
  controller.submit(make_job(1, 2, 30 * kMinute, kHour, 0));
  auto dependent = make_job(2, 2, 30 * kMinute, kHour, 0);
  dependent.depends_on = 1;
  controller.submit(dependent);
  engine.run();
  const auto records = controller.job_records();
  EXPECT_EQ(records[0].state, workload::JobState::kCompleted);
  EXPECT_EQ(records[1].state, workload::JobState::kCompleted);
  EXPECT_GE(records[1].start_time, records[0].end_time);
}

TEST(Dependencies, FailedDependencyCancelsChain) {
  sim::Engine engine;
  slurmlite::ControllerConfig config;
  config.nodes = 8;
  slurmlite::Controller controller(engine, config, trinity());
  // Job 1 will hit its walltime (base 2h, limit 10 min).
  controller.submit(make_job(1, 2, 2 * kHour, 10 * kMinute, 0));
  auto child = make_job(2, 2, 30 * kMinute, kHour, 0);
  child.depends_on = 1;
  controller.submit(child);
  auto grandchild = make_job(3, 2, 30 * kMinute, kHour, 0);
  grandchild.depends_on = 2;
  controller.submit(grandchild);
  engine.run();
  const auto records = controller.job_records();
  EXPECT_EQ(records[0].state, workload::JobState::kTimeout);
  EXPECT_EQ(records[1].state, workload::JobState::kCancelled);
  EXPECT_EQ(records[2].state, workload::JobState::kCancelled);
  EXPECT_EQ(controller.stats().dependency_cancellations, 2u);
}

TEST(Dependencies, SatisfiedDependencyQueuesImmediately) {
  sim::Engine engine;
  slurmlite::ControllerConfig config;
  config.nodes = 4;
  slurmlite::Controller controller(engine, config, trinity());
  controller.submit(make_job(1, 1, kMinute, kHour, 0));
  engine.run();  // job 1 finishes
  auto late = make_job(2, 1, kMinute, kHour, 0);
  late.depends_on = 1;
  late.submit_time = engine.now();
  controller.submit(late);
  engine.run();
  EXPECT_EQ(controller.job_records()[1].state,
            workload::JobState::kCompleted);
}

TEST(Dependencies, UnknownDependencyRejected) {
  sim::Engine engine;
  slurmlite::Controller controller(engine, slurmlite::ControllerConfig{},
                                   trinity());
  auto job = make_job(1, 1, kMinute, kHour, 0);
  job.depends_on = 99;
  EXPECT_THROW(controller.submit(job), Error);
}

// --- Failure injection -----------------------------------------------------------------

TEST(FailureInjection, RunningJobRequeuedAndCompletes) {
  sim::Engine engine;
  slurmlite::ControllerConfig config;
  config.nodes = 4;
  config.failures = {{.node = 0, .at = 10 * kMinute, .duration = kHour}};
  slurmlite::Controller controller(engine, config, trinity());
  controller.submit(make_job(1, 4, 30 * kMinute, 2 * kHour, 0));
  engine.run();
  const auto r = controller.job_records()[0];
  EXPECT_EQ(r.state, workload::JobState::kCompleted);
  EXPECT_EQ(r.requeues, 1);
  EXPECT_EQ(controller.stats().requeues, 1u);
  EXPECT_EQ(controller.stats().node_failures, 1u);
  // Restarted after the outage began; with node 0 down it used nodes 1-3?
  // The job needs 4 nodes, so it actually waited for node 0 to return.
  EXPECT_GE(r.start_time, 10 * kMinute);
  EXPECT_EQ(r.end_time - r.start_time, 30 * kMinute);
}

TEST(FailureInjection, KillPolicyMarksTimeout) {
  sim::Engine engine;
  slurmlite::ControllerConfig config;
  config.nodes = 4;
  config.requeue_on_failure = false;
  config.failures = {{.node = 1, .at = 5 * kMinute, .duration = kHour}};
  slurmlite::Controller controller(engine, config, trinity());
  controller.submit(make_job(1, 2, 30 * kMinute, 2 * kHour, 0));
  engine.run();
  const auto r = controller.job_records()[0];
  EXPECT_EQ(r.state, workload::JobState::kTimeout);
  EXPECT_EQ(r.end_time, 5 * kMinute);
  // The killed attempt's node-time is charged to fair-share usage.
  EXPECT_GT(controller.usage().usage(r.user, r.end_time), 0.0);
}

// A node-failure kill ends a job like a walltime kill: every start gets an
// end record, and the `timeout` trace records, the registry counter and
// the stats agree.
TEST(FailureInjection, KillPolicyWritesTheTimeoutRecord) {
  obs::Tracer tracer;
  obs::Registry registry;
  slurmlite::SimulationSpec spec;
  spec.controller.nodes = 16;
  spec.controller.strategy = core::StrategyKind::kCoBackfill;
  spec.controller.requeue_on_failure = false;
  for (int i = 0; i < 6; ++i) {
    spec.controller.failures.push_back({.node = static_cast<NodeId>(i * 2),
                                        .at = (i + 1) * kHour,
                                        .duration = 2 * kHour});
  }
  spec.controller.tracer = &tracer;
  spec.controller.registry = &registry;
  spec.workload = workload::trinity_stream(16, 250, 0.9);
  spec.seed = 7;
  const auto result = slurmlite::run_simulation(spec, trinity());

  const auto count = [&](const std::string& type) {
    const std::string key = "\"type\":\"" + type + "\"";
    return static_cast<std::size_t>(
        std::count_if(tracer.lines().begin(), tracer.lines().end(),
                      [&](const std::string& line) {
                        return line.find(key) != std::string::npos;
                      }));
  };
  ASSERT_GT(result.stats.timeouts, 0u);
  EXPECT_EQ(result.stats.requeues, 0u);
  EXPECT_EQ(registry.counter("timeouts").value(), result.stats.timeouts);
  EXPECT_EQ(count("timeout"), result.stats.timeouts);
  EXPECT_EQ(count("complete"), result.stats.completions);
  EXPECT_EQ(count("start"), count("complete") + count("timeout"));
}

TEST(FailureInjection, UnaffectedJobsKeepRunning) {
  sim::Engine engine;
  slurmlite::ControllerConfig config;
  config.nodes = 4;
  config.failures = {{.node = 3, .at = 5 * kMinute, .duration = kHour}};
  slurmlite::Controller controller(engine, config, trinity());
  controller.submit(make_job(1, 2, 30 * kMinute, 2 * kHour, 0));  // nodes 0,1
  engine.run();
  const auto r = controller.job_records()[0];
  EXPECT_EQ(r.state, workload::JobState::kCompleted);
  EXPECT_EQ(r.requeues, 0);
  EXPECT_EQ(r.end_time - r.start_time, 30 * kMinute);
}

TEST(FailureInjection, SharedNodeFailureRequeuesBothJobs) {
  sim::Engine engine;
  slurmlite::ControllerConfig config;
  config.nodes = 4;
  config.strategy = core::StrategyKind::kCoBackfill;
  config.failures = {{.node = 0, .at = 10 * kMinute, .duration = 30 * kMinute}};
  slurmlite::Controller controller(engine, config, trinity());
  controller.submit(
      make_job(1, 4, kHour, 2 * kHour, trinity().by_name("GTC").id));
  controller.submit(
      make_job(2, 4, 20 * kMinute, 40 * kMinute,
               trinity().by_name("miniFE").id));
  engine.run();
  const auto records = controller.job_records();
  EXPECT_EQ(records[1].alloc_kind, cluster::AllocationKind::kSecondary);
  EXPECT_EQ(records[0].requeues, 1);
  EXPECT_EQ(records[1].requeues, 1);
  EXPECT_EQ(records[0].state, workload::JobState::kCompleted);
  EXPECT_EQ(records[1].state, workload::JobState::kCompleted);
  controller.machine_state().check_invariants();
}

// Conservative backfill while a node is down: the head needs every node,
// so it waits (its reservation lies beyond the outage and blocks no one),
// a narrower job behind it starts, and the head starts when the node
// returns.
TEST(FailureInjection, ConservativeHeadWaitsOutTheOutage) {
  for (const core::StrategyKind strategy :
       {core::StrategyKind::kConservativeBackfill,
        core::StrategyKind::kCoConservative}) {
    SCOPED_TRACE(core::to_string(strategy));
    sim::Engine engine;
    slurmlite::ControllerConfig config;
    config.nodes = 4;
    config.strategy = strategy;
    config.failures = {{.node = 0, .at = 0, .duration = kHour}};
    slurmlite::Controller controller(engine, config, trinity());
    audit::StateAuditor auditor(controller);
    engine.add_observer(&auditor);
    auto head = make_job(1, 4, 30 * kMinute, kHour);
    head.submit_time = 5 * kMinute;
    auto narrow = make_job(2, 2, 20 * kMinute, 40 * kMinute);
    narrow.submit_time = 5 * kMinute;
    controller.submit(head);
    controller.submit(narrow);
    engine.run_until(30 * kMinute);
    EXPECT_EQ(controller.job(1).state, workload::JobState::kPending);
    engine.run();
    const auto records = controller.job_records();
    EXPECT_EQ(records[1].start_time, 5 * kMinute);
    EXPECT_EQ(records[1].state, workload::JobState::kCompleted);
    EXPECT_EQ(records[0].start_time, kHour);
    EXPECT_EQ(records[0].state, workload::JobState::kCompleted);
    EXPECT_EQ(controller.stats().node_failures, 1u);
  }
}

TEST(FailureInjection, CampaignSurvivesRollingFailures) {
  slurmlite::SimulationSpec spec;
  spec.controller.nodes = 16;
  spec.controller.strategy = core::StrategyKind::kCoBackfill;
  for (int i = 0; i < 8; ++i) {
    spec.controller.failures.push_back(
        {.node = static_cast<NodeId>(i * 2),
         .at = (i + 1) * kHour,
         .duration = 2 * kHour});
  }
  spec.workload = workload::trinity_campaign(16, 100);
  const auto result = slurmlite::run_simulation(spec, trinity());
  // All jobs eventually finish (completed; requeues may retry timeouts
  // away) and the machine drains cleanly.
  EXPECT_EQ(result.metrics.jobs_completed + result.metrics.jobs_timeout,
            100);
  EXPECT_GT(result.stats.requeues, 0u);
  EXPECT_EQ(result.stats.node_failures, 8u);
}

}  // namespace
}  // namespace cosched
