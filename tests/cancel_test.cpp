#include <gtest/gtest.h>

#include <optional>

#include "core/strategies.hpp"
#include "slurmlite/controller.hpp"
#include "test_support.hpp"

namespace cosched {
namespace {

using cosched::testing::FakeHost;
using cosched::testing::make_job;

const apps::Catalog& trinity() {
  static const apps::Catalog c = apps::Catalog::trinity();
  return c;
}

// --- Controller::cancel (scancel) ----------------------------------------------------

TEST(Cancel, PendingJobLeavesQueue) {
  sim::Engine engine;
  slurmlite::ControllerConfig config;
  config.nodes = 2;
  slurmlite::Controller controller(engine, config, trinity());
  controller.submit(make_job(1, 2, kHour, 2 * kHour, 0));
  controller.submit(make_job(2, 2, kHour, 2 * kHour, 0));  // queued behind
  engine.run_until(kMinute);
  EXPECT_TRUE(controller.cancel(2));
  engine.run();
  const auto records = controller.job_records();
  EXPECT_EQ(records[0].state, workload::JobState::kCompleted);
  EXPECT_EQ(records[1].state, workload::JobState::kCancelled);
  EXPECT_LT(records[1].start_time, 0);  // never ran
}

TEST(Cancel, RunningJobFreesNodesImmediately) {
  sim::Engine engine;
  slurmlite::ControllerConfig config;
  config.nodes = 2;
  slurmlite::Controller controller(engine, config, trinity());
  controller.submit(make_job(1, 2, 2 * kHour, 3 * kHour, 0));
  controller.submit(make_job(2, 2, kHour, 2 * kHour, 0));
  engine.run_until(10 * kMinute);
  EXPECT_TRUE(controller.cancel(1));
  engine.run();
  const auto records = controller.job_records();
  EXPECT_EQ(records[0].state, workload::JobState::kCancelled);
  EXPECT_EQ(records[0].end_time, 10 * kMinute);
  // Job 2 started right after the cancellation, not after 2 h.
  EXPECT_EQ(records[1].start_time, 10 * kMinute);
  EXPECT_EQ(records[1].state, workload::JobState::kCompleted);
  controller.machine_state().check_invariants();
}

TEST(Cancel, HeldJobAndCascade) {
  sim::Engine engine;
  slurmlite::ControllerConfig config;
  config.nodes = 4;
  slurmlite::Controller controller(engine, config, trinity());
  controller.submit(make_job(1, 4, kHour, 2 * kHour, 0));
  auto child = make_job(2, 1, kMinute, kHour, 0);
  child.depends_on = 1;
  controller.submit(child);
  auto grandchild = make_job(3, 1, kMinute, kHour, 0);
  grandchild.depends_on = 2;
  controller.submit(grandchild);
  engine.run_until(kMinute);
  EXPECT_TRUE(controller.cancel(2));  // held on job 1
  engine.run();
  const auto records = controller.job_records();
  EXPECT_EQ(records[0].state, workload::JobState::kCompleted);
  EXPECT_EQ(records[1].state, workload::JobState::kCancelled);
  EXPECT_EQ(records[2].state, workload::JobState::kCancelled);  // cascade
}

TEST(Cancel, BeforeSubmitEventFires) {
  sim::Engine engine;
  slurmlite::Controller controller(engine, slurmlite::ControllerConfig{},
                                   trinity());
  auto future = make_job(1, 1, kMinute, kHour, 0);
  future.submit_time = kHour;  // submit event at t=1h
  controller.submit(future);
  EXPECT_TRUE(controller.cancel(1));  // cancelled at t=0
  engine.run();
  EXPECT_EQ(controller.job_records()[0].state,
            workload::JobState::kCancelled);
}

TEST(Cancel, UnknownOrFinishedReturnsFalse) {
  sim::Engine engine;
  slurmlite::Controller controller(engine, slurmlite::ControllerConfig{},
                                   trinity());
  EXPECT_FALSE(controller.cancel(42));
  controller.submit(make_job(1, 1, kMinute, kHour, 0));
  engine.run();
  EXPECT_FALSE(controller.cancel(1));  // already completed
}

TEST(Cancel, ListArrivalNotYetPulledIsUnknown) {
  // submit_all pulls job i+1 at job i's submit event: once job 1 has
  // submitted, job 2 is registered (its submit event pending at 1 h) and
  // job 3 is not.
  sim::Engine engine;
  slurmlite::Controller controller(engine, slurmlite::ControllerConfig{},
                                   trinity());
  workload::JobList jobs = {make_job(1, 1, kMinute, kHour, 0),
                            make_job(2, 1, kMinute, kHour, 0),
                            make_job(3, 1, kMinute, kHour, 0)};
  jobs[1].submit_time = kHour;
  jobs[2].submit_time = 2 * kHour;
  controller.submit_all(jobs);
  engine.run_until(kMinute);
  EXPECT_TRUE(controller.cancel(2));
  EXPECT_FALSE(controller.cancel(3));
  engine.run();
  const auto records = controller.job_records();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[1].state, workload::JobState::kCancelled);
  EXPECT_EQ(records[2].state, workload::JobState::kCompleted);
  EXPECT_EQ(records[2].start_time, 2 * kHour);
}

TEST(Cancel, ClosesSpansOfPendingHeldAndRunningJobs) {
  // One cancel down each of cancel's three paths, with a span ledger
  // attached: every span must close, and only started jobs that ran to
  // completion fold a wait.
  sim::Engine engine;
  obs::SpanLedger spans;
  slurmlite::ControllerConfig config;
  config.nodes = 2;
  config.spans = &spans;
  slurmlite::Controller controller(engine, config, trinity());
  controller.submit(make_job(1, 1, 2 * kHour, 3 * kHour));  // runs
  controller.submit(make_job(2, 1, kHour, 2 * kHour));      // runs
  controller.submit(make_job(3, 2, kHour, 2 * kHour));      // pending
  auto held = make_job(4, 1, kMinute, kHour);
  held.depends_on = 2;
  controller.submit(held);
  controller.submit(make_job(5, 2, kHour, 2 * kHour));  // after job 3
  engine.run_until(10 * kMinute);
  EXPECT_EQ(spans.submitted(), 5u);
  EXPECT_TRUE(controller.cancel(3));  // pending
  EXPECT_TRUE(controller.cancel(4));  // held on job 2
  EXPECT_TRUE(controller.cancel(1));  // running
  engine.run();
  const auto records = controller.job_records();
  EXPECT_EQ(records[0].state, workload::JobState::kCancelled);
  EXPECT_EQ(records[2].state, workload::JobState::kCancelled);
  EXPECT_EQ(records[3].state, workload::JobState::kCancelled);
  EXPECT_EQ(records[4].start_time, kHour);  // once job 2 freed its node
  EXPECT_EQ(spans.open(), 0u);
  EXPECT_EQ(spans.ended(), spans.submitted());
  EXPECT_EQ(spans.wait().count(), 2u);  // jobs 2 and 5
}

TEST(Cancel, CancellingSecondaryRestoresPrimaryRate) {
  // Job 1 shares its nodes with job 2 from t=0; with `cancel_at` set, job
  // 2 is cancelled then. Returns job 1's record.
  const auto run = [](std::optional<SimTime> cancel_at) {
    sim::Engine engine;
    slurmlite::ControllerConfig config;
    config.nodes = 4;
    config.strategy = core::StrategyKind::kCoBackfill;
    slurmlite::Controller controller(engine, config, trinity());
    controller.submit(
        make_job(1, 4, kHour, 2 * kHour, trinity().by_name("GTC").id));
    controller.submit(make_job(2, 2, 40 * kMinute, 80 * kMinute,
                               trinity().by_name("miniFE").id));
    if (cancel_at) {
      engine.run_until(*cancel_at);
      EXPECT_TRUE(controller.cancel(2));
    }
    engine.run();
    return controller.job_records()[0];
  };
  const workload::Job shared = run(std::nullopt);
  const workload::Job cancelled = run(10 * kMinute);
  EXPECT_EQ(cancelled.state, workload::JobState::kCompleted);
  // Dilated while shared ...
  EXPECT_GT(cancelled.observed_dilation, 1.0);
  // ... and back at full rate after the cancel: job 1 finished before its
  // no-sharing end time plus the dilation debt accrued in the shared 10
  // minutes, and before the run in which job 2 kept sharing.
  EXPECT_GT(cancelled.end_time, kHour);
  EXPECT_LT(cancelled.end_time, kHour + 10 * kMinute);
  EXPECT_LT(cancelled.end_time, shared.end_time);
  EXPECT_LT(cancelled.observed_dilation, shared.observed_dilation);
}

// --- Backfill depth limit (bf_max_job_test) --------------------------------------------

TEST(BackfillDepth, LimitsCandidatesExamined) {
  // Head blocked; two safe backfill candidates, but depth 1 only examines
  // the first.
  auto build = [](int depth) {
    auto host = std::make_unique<FakeHost>(4, trinity());
    host->add_running_primary(
        make_job(1, 3, 200 * kMinute, 100 * kMinute,
                 trinity().by_name("GTC").id),
        {0, 1, 2});
    host->add_pending(make_job(2, 4, 50 * kMinute, 60 * kMinute,
                               trinity().by_name("MILC").id));  // head
    auto blocked = make_job(3, 2, 10 * kMinute, 20 * kMinute,
                            trinity().by_name("SNAP").id);
    host->add_pending(blocked);  // needs 2 nodes: cannot start
    host->add_pending(make_job(4, 1, 10 * kMinute, 20 * kMinute,
                               trinity().by_name("UMT").id));  // would fit
    (void)depth;
    return host;
  };

  auto unlimited = build(0);
  core::EasyBackfillScheduler(false, 0).schedule(*unlimited);
  ASSERT_EQ(unlimited->starts().size(), 1u);
  EXPECT_EQ(unlimited->starts()[0].id, 4);

  auto limited = build(1);
  core::EasyBackfillScheduler(false, 1).schedule(*limited);
  EXPECT_TRUE(limited->starts().empty());  // only job 3 was examined
}

TEST(BackfillDepth, FactoryPlumbsOption) {
  core::SchedulerOptions options;
  options.backfill_depth = 7;
  const auto scheduler =
      core::make_scheduler(core::StrategyKind::kEasyBackfill, options);
  EXPECT_EQ(scheduler->name(), "easy");  // option accepted without error
}

}  // namespace
}  // namespace cosched
