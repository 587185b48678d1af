#include <gtest/gtest.h>

#include <sstream>

#include "slurmlite/config.hpp"
#include "slurmlite/formatters.hpp"
#include "slurmlite/simulation.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"
#include "workload/campaign.hpp"

namespace cosched::slurmlite {
namespace {

using cosched::testing::make_job;

const apps::Catalog& trinity() {
  static const apps::Catalog c = apps::Catalog::trinity();
  return c;
}

AppId app_id(const char* name) { return trinity().by_name(name).id; }

ControllerConfig small_config(core::StrategyKind strategy) {
  ControllerConfig config;
  config.nodes = 4;
  config.strategy = strategy;
  return config;
}

// --- ExecutionModel ---------------------------------------------------------------

struct ExecFixture {
  cluster::Machine machine{2, cluster::NodeConfig{}};
  interference::CorunModel corun{};
  ExecutionModel exec{machine, trinity(), corun};
  cosched::testing::Epochs epochs;

  void start(const workload::Job& job, SimTime now) {
    epochs[job.id] = exec.start(job, now);
  }
  const Epoch& epoch(JobId id) const { return epochs.at(id); }
  std::vector<JobId> refresh(SimTime now) {
    return cosched::testing::refresh_all(exec, machine, epochs, now);
  }
};

TEST(ExecutionModel, ExclusiveJobRunsAtFullRate) {
  ExecFixture f;
  auto job = make_job(1, 1, 100 * kSecond, 200 * kSecond, app_id("GTC"));
  f.machine.allocate_primary(1, {0});
  f.start(job, 0);
  EXPECT_EQ(f.refresh(0), std::vector<JobId>{1});  // first rate, first end
  EXPECT_DOUBLE_EQ(f.epoch(1).dilation(), 1.0);
  EXPECT_EQ(f.epoch(1).predicted_end(), 100 * kSecond);
  EXPECT_DOUBLE_EQ(f.epoch(1).remaining_work_s(0), 100.0);
}

TEST(ExecutionModel, ProgressAccrues) {
  ExecFixture f;
  auto job = make_job(1, 1, 100 * kSecond, 200 * kSecond, app_id("GTC"));
  f.machine.allocate_primary(1, {0});
  f.start(job, 0);
  f.refresh(0);
  EXPECT_DOUBLE_EQ(f.epoch(1).progress_s(40 * kSecond), 40.0);
  EXPECT_DOUBLE_EQ(f.epoch(1).remaining_work_s(40 * kSecond), 60.0);
  // A refresh with nothing changed moves no end.
  EXPECT_TRUE(f.refresh(40 * kSecond).empty());
  EXPECT_EQ(f.epoch(1).predicted_end(), 100 * kSecond);
  EXPECT_EQ(f.exec.rate_changes(), 0u);
}

TEST(ExecutionModel, CoLocationDilatesBothJobs) {
  ExecFixture f;
  auto j1 = make_job(1, 1, 100 * kSecond, 300 * kSecond, app_id("GTC"));
  auto j2 = make_job(2, 1, 100 * kSecond, 300 * kSecond, app_id("miniFE"));
  f.machine.allocate_primary(1, {0});
  f.start(j1, 0);
  f.refresh(0);
  f.machine.allocate_secondary(2, {0});
  f.start(j2, 0);
  f.refresh(0);
  EXPECT_GT(f.epoch(1).dilation(), 1.0);
  EXPECT_GT(f.epoch(2).dilation(), 1.0);
  EXPECT_GT(f.epoch(1).predicted_end(), 100 * kSecond);
  // The pair is complementary, so neither side doubles.
  EXPECT_LT(f.epoch(1).dilation(), 1.5);
  EXPECT_LT(f.epoch(2).dilation(), 1.5);
}

TEST(ExecutionModel, RateRecoversWhenCorunnerLeaves) {
  ExecFixture f;
  auto j1 = make_job(1, 1, 100 * kSecond, 300 * kSecond, app_id("GTC"));
  auto j2 = make_job(2, 1, 30 * kSecond, 300 * kSecond, app_id("miniFE"));
  f.machine.allocate_primary(1, {0});
  f.start(j1, 0);
  f.machine.allocate_secondary(2, {0});
  f.start(j2, 0);
  f.refresh(0);
  const double dilated = f.epoch(1).dilation();
  EXPECT_GT(dilated, 1.0);

  // Co-runner departs at t=50s: job 1's epoch closes there.
  f.machine.release(2);
  f.epochs.erase(2);
  EXPECT_EQ(f.refresh(50 * kSecond), std::vector<JobId>{1});
  EXPECT_EQ(f.exec.rate_changes(), 1u);
  EXPECT_DOUBLE_EQ(f.epoch(1).dilation(), 1.0);
  // Remaining work takes exactly its exclusive time from here on.
  const double remaining = f.epoch(1).remaining_work_s(50 * kSecond);
  EXPECT_EQ(f.epoch(1).predicted_end(),
            50 * kSecond + from_seconds(remaining));
  // Cumulative dilation reflects the shared phase.
  EXPECT_GT(f.epoch(1).observed_dilation(50 * kSecond), 1.0);
}

TEST(ExecutionModel, MultiNodeJobPacedBySlowestNode) {
  ExecFixture f;
  auto j1 = make_job(1, 2, 100 * kSecond, 300 * kSecond, app_id("GTC"));
  auto j2 = make_job(2, 1, 100 * kSecond, 300 * kSecond, app_id("miniFE"));
  f.machine.allocate_primary(1, {0, 1});
  f.start(j1, 0);
  f.machine.allocate_secondary(2, {0});  // only node 0 is shared
  f.start(j2, 0);
  f.refresh(0);
  // Job 1 pays the full co-run dilation although node 1 is unshared (BSP).
  EXPECT_GT(f.epoch(1).dilation(), 1.0);
}

// A node at the SMT bound holds kMaxThreadsPerCore jobs, which the rate
// computation stages on the stack: each gets exactly the corun model's
// slowdown for the full node.
TEST(ExecutionModel, FullNodeAtTheThreadBoundGetsTheModelsRates) {
  cluster::Machine machine{
      1, cluster::NodeConfig{.cores = 8, .smt_per_core = kMaxThreadsPerCore}};
  const interference::CorunModel corun{};
  ExecutionModel exec{machine, trinity(), corun};
  cosched::testing::Epochs epochs;
  std::vector<apps::StressVector> stresses;
  for (const auto& app : trinity().all()) {
    const auto id = static_cast<JobId>(app.id + 1);
    if (id == 1) {
      machine.allocate_primary(id, {0});
    } else {
      machine.allocate_secondary(id, {0});
    }
    epochs[id] = exec.start(make_job(id, 1, kHour, 2 * kHour, app.id), 0);
    stresses.push_back(app.stress);
  }
  ASSERT_EQ(machine.node(0).job_count(), kMaxThreadsPerCore);
  EXPECT_EQ(cosched::testing::refresh_all(exec, machine, epochs, 0).size(),
            stresses.size());
  const std::vector<double> slowdowns = corun.slowdowns(stresses);
  for (std::size_t j = 0; j < stresses.size(); ++j) {
    const Epoch& e = epochs.at(static_cast<JobId>(j + 1));
    EXPECT_EQ(e.rate, 1.0 / slowdowns[j] / e.locality) << "job " << j + 1;
  }
}

// --- Controller integration through small scripted scenarios --------------------------

TEST(Controller, SingleJobLifecycle) {
  sim::Engine engine;
  Controller controller(engine, small_config(core::StrategyKind::kFcfs),
                        trinity());
  auto job = make_job(1, 2, 10 * kMinute, 30 * kMinute, app_id("UMT"));
  job.submit_time = 5 * kSecond;
  controller.submit(job);
  engine.run();

  const auto records = controller.job_records();
  ASSERT_EQ(records.size(), 1u);
  const auto& r = records[0];
  EXPECT_EQ(r.state, workload::JobState::kCompleted);
  EXPECT_EQ(r.start_time, 5 * kSecond);
  EXPECT_EQ(r.end_time, 5 * kSecond + 10 * kMinute);
  EXPECT_DOUBLE_EQ(r.observed_dilation, 1.0);
  EXPECT_EQ(controller.stats().completions, 1u);
  EXPECT_EQ(controller.stats().timeouts, 0u);
  controller.machine_state().check_invariants();
}

TEST(Controller, HeldChildIsFirstConsideredWhenItsParentCompletes) {
  // An afterok child waits held, outside the eligible queue, until its
  // parent completes; the completion enqueues it and requests a pass at
  // that instant, so its first-consider latency runs from its own submit
  // to the parent's end.
  sim::Engine engine;
  obs::SpanLedger spans;
  ControllerConfig config = small_config(core::StrategyKind::kFcfs);
  config.spans = &spans;
  Controller controller(engine, config, trinity());
  controller.submit(make_job(1, 2, kHour, 2 * kHour, app_id("UMT")));
  auto child = make_job(2, 2, 10 * kMinute, kHour, app_id("UMT"));
  child.submit_time = 5 * kMinute;
  child.depends_on = 1;  // two free nodes, but held on job 1
  controller.submit(child);
  engine.run();

  const auto records = controller.job_records();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1].state, workload::JobState::kCompleted);
  EXPECT_EQ(records[1].start_time, records[0].end_time);
  // Job 1 was considered the instant it submitted, so the sum is job 2's.
  ASSERT_EQ(spans.first_consider().count(), 2u);
  EXPECT_DOUBLE_EQ(spans.first_consider().sum(),
                   to_seconds(records[0].end_time - records[1].submit_time));
}

// The execution model's cost counters over every strategy's golden
// workload (tests/golden_test.cpp): a completion event moves only when its
// job's rate epoch changed, so reschedules never outnumber rate changes,
// and the exclusive strategies, which never co-locate, change no rate.
TEST(Controller, EndReschedulesNeverExceedRateChanges) {
  for (const core::StrategyKind kind : core::all_strategies()) {
    for (std::uint64_t cell = 0; cell < 3; ++cell) {
      SCOPED_TRACE(std::string(core::to_string(kind)) + " cell " +
                   std::to_string(cell));
      obs::Registry registry;
      SimulationSpec spec;
      spec.controller.nodes = 16;
      spec.controller.strategy = kind;
      spec.controller.registry = &registry;
      spec.workload = workload::trinity_campaign(16, 120);
      spec.seed = derive_seed(1, cell);
      const SimulationResult result = run_simulation(spec, trinity());
      const std::uint64_t rate_changes =
          registry.counter("rate_changes").value();
      const std::uint64_t reschedules =
          registry.counter("end_reschedules").value();
      EXPECT_LE(reschedules, rate_changes);
      if (core::is_co_strategy(kind)) {
        EXPECT_GT(result.stats.secondary_starts, 0u);
        EXPECT_GT(rate_changes, 0u);
      } else {
        EXPECT_EQ(rate_changes, 0u);
        EXPECT_EQ(reschedules, 0u);
      }
    }
  }
}

TEST(Controller, WalltimeKillFiresForUnderestimatedJob) {
  sim::Engine engine;
  Controller controller(engine, small_config(core::StrategyKind::kFcfs),
                        trinity());
  // Lies about runtime: walltime 1 min but needs 10.
  controller.submit(make_job(1, 1, 10 * kMinute, kMinute, app_id("UMT")));
  engine.run();
  const auto r = controller.job_records()[0];
  EXPECT_EQ(r.state, workload::JobState::kTimeout);
  EXPECT_EQ(r.end_time - r.start_time, kMinute);
  EXPECT_EQ(controller.stats().timeouts, 1u);
}

TEST(Controller, RejectsOversizeJob) {
  sim::Engine engine;
  Controller controller(engine, small_config(core::StrategyKind::kFcfs),
                        trinity());
  controller.submit(make_job(1, 99, kMinute, kHour, 0));
  engine.run();
  EXPECT_EQ(controller.job_records()[0].state,
            workload::JobState::kCancelled);
}

TEST(Controller, RejectsMalformedSubmissions) {
  sim::Engine engine;
  Controller controller(engine, small_config(core::StrategyKind::kFcfs),
                        trinity());
  auto no_id = make_job(kInvalidJob, 1, kMinute, kHour, 0);
  EXPECT_THROW(controller.submit(no_id), Error);
  auto bad_app = make_job(1, 1, kMinute, kHour, 99);
  EXPECT_THROW(controller.submit(bad_app), Error);
  controller.submit(make_job(2, 1, kMinute, kHour, 0));
  EXPECT_THROW(controller.submit(make_job(2, 1, kMinute, kHour, 0)), Error);
}

TEST(Controller, NodeCountErrorNamesTheRequest) {
  sim::Engine engine;
  Controller controller(engine, small_config(core::StrategyKind::kFcfs),
                        trinity());
  try {
    controller.submit(make_job(3, -2, kMinute, kHour, 0));
    ADD_FAILURE() << "a job of -2 nodes was accepted";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "job 3 requests -2 nodes");
  }
}

TEST(Controller, QueuedJobsRunInOrderUnderFcfs) {
  sim::Engine engine;
  Controller controller(engine, small_config(core::StrategyKind::kFcfs),
                        trinity());
  // Three 4-node jobs: strictly sequential.
  for (JobId id = 1; id <= 3; ++id) {
    controller.submit(make_job(id, 4, 10 * kMinute, 30 * kMinute,
                               app_id("UMT")));
  }
  engine.run();
  const auto records = controller.job_records();
  EXPECT_EQ(records[0].start_time, 0);
  EXPECT_EQ(records[1].start_time, records[0].end_time);
  EXPECT_EQ(records[2].start_time, records[1].end_time);
}

TEST(Controller, CoAllocationProducesSharedRun) {
  sim::Engine engine;
  Controller controller(engine,
                        small_config(core::StrategyKind::kCoBackfill),
                        trinity());
  // GTC fills the machine; miniFE co-allocates beside it.
  controller.submit(make_job(1, 4, kHour, 2 * kHour, app_id("GTC")));
  controller.submit(
      make_job(2, 2, 20 * kMinute, 40 * kMinute, app_id("miniFE")));
  engine.run();
  const auto records = controller.job_records();
  EXPECT_EQ(records[1].alloc_kind, cluster::AllocationKind::kSecondary);
  EXPECT_EQ(records[1].start_time, records[0].start_time);  // no wait
  EXPECT_GT(records[1].observed_dilation, 1.0);
  EXPECT_GT(records[0].observed_dilation, 1.0);
  EXPECT_EQ(controller.stats().secondary_starts, 1u);
  // Both completed within walltime: sharing caused no kill.
  EXPECT_EQ(controller.stats().timeouts, 0u);
}

TEST(Controller, PromotionAfterPrimaryCompletes) {
  sim::Engine engine;
  Controller controller(engine,
                        small_config(core::StrategyKind::kCoBackfill),
                        trinity());
  // Short primary + longer secondary (deadline gate satisfied because the
  // secondary's walltime still ends before the primary's walltime end).
  controller.submit(make_job(1, 4, 30 * kMinute, 3 * kHour, app_id("GTC")));
  controller.submit(
      make_job(2, 4, kHour, 2 * kHour, app_id("miniFE")));
  engine.run();
  const auto records = controller.job_records();
  ASSERT_EQ(records[1].alloc_kind, cluster::AllocationKind::kSecondary);
  EXPECT_EQ(records[0].state, workload::JobState::kCompleted);
  EXPECT_EQ(records[1].state, workload::JobState::kCompleted);
  // After job 1 finished, job 2 ran alone at full speed, so its dilation
  // is strictly less than the co-run dilation it started with.
  EXPECT_LT(records[1].observed_dilation, 1.3);
  EXPECT_GT(records[1].observed_dilation, 1.0);
}

// Co-location partners reach the pair estimator through the controller. A
// secondary's partner is the primary on its first node; every primary it
// joins that has no partner yet takes the secondary's app, and keeps it
// when a later secondary joins. Each attempt's pair is observed when it
// ends, through a walltime kill as well as a completion.
TEST(Controller, PartnerAttributionFeedsThePairEstimator) {
  ControllerConfig config = small_config(core::StrategyKind::kCoFirstFit);
  config.nodes = 2;
  config.node_config.smt_per_core = 2;  // one secondary slot per node
  sim::Engine engine;
  Controller controller(engine, config, trinity());
  const AppId gtc = app_id("GTC");
  const AppId minife = app_id("miniFE");
  const AppId later = app_id("miniGhost");
  // Two long GTC primaries, one per node.
  controller.submit(make_job(1, 1, 3 * kHour, 4 * kHour, gtc));
  controller.submit(make_job(2, 1, 3 * kHour, 4 * kHour, gtc));
  // miniFE joins both primaries at once.
  controller.submit(make_job(3, 2, 20 * kMinute, 40 * kMinute, minife));
  // Joins both primaries once miniFE is gone; its walltime is too short
  // for its dilated run, so it is killed.
  controller.submit(make_job(4, 2, 30 * kMinute, 31 * kMinute, later));
  engine.run();

  const auto records = controller.job_records();
  ASSERT_EQ(records.size(), 4u);
  ASSERT_EQ(records[2].alloc_kind, cluster::AllocationKind::kSecondary);
  ASSERT_EQ(records[3].alloc_kind, cluster::AllocationKind::kSecondary);
  EXPECT_GE(records[3].start_time, records[2].end_time);
  EXPECT_LT(records[3].end_time, records[0].end_time);
  EXPECT_LT(records[3].end_time, records[1].end_time);
  EXPECT_EQ(records[3].state, workload::JobState::kTimeout);

  const interference::PairEstimator& estimator = *controller.pair_estimator();
  EXPECT_EQ(estimator.estimate(minife, gtc).samples, 1);  // job 3
  EXPECT_EQ(estimator.estimate(gtc, minife).samples, 2);  // jobs 1 and 2
  EXPECT_EQ(estimator.estimate(later, gtc).samples, 1);   // job 4's kill
  EXPECT_EQ(estimator.estimate(gtc, later).samples, 0);   // first partner kept
}

// running_ids() and squeue list running jobs in submit order, whatever
// order they started, ended or restarted in. Ids fall as submit order
// rises, so a list in id order or in hash order fails.
TEST(Controller, RunningIdsFollowSubmitOrder) {
  ControllerConfig config = small_config(core::StrategyKind::kCoBackfill);
  // Node 3 fails under job 30, which goes back to the queue's tail.
  config.failures.push_back(
      {.node = 3, .at = 30 * kMinute, .duration = 10 * kMinute});
  sim::Engine engine;
  Controller controller(engine, config, trinity());
  const std::vector<JobId> submit_order = {50, 40, 30, 20, 10};
  controller.submit(make_job(50, 2, 3 * kHour, 4 * kHour, app_id("GTC")));
  controller.submit(make_job(40, 1, 20 * kMinute, kHour, app_id("GTC")));
  controller.submit(make_job(30, 1, kHour, 2 * kHour, app_id("GTC")));
  // Machine full: job 20 starts on secondary slots.
  controller.submit(
      make_job(20, 2, 30 * kMinute, kHour, app_id("miniFE")));
  auto exclusive = make_job(10, 1, kHour, 2 * kHour, app_id("GTC"));
  exclusive.shareable = false;
  controller.submit(exclusive);

  const auto expect_submit_order = [&](const char* when) {
    const std::vector<JobId> running = controller.running_ids();
    std::vector<JobId> want;
    for (JobId id : submit_order) {
      if (controller.job(id).state == workload::JobState::kRunning) {
        want.push_back(id);
      }
    }
    EXPECT_EQ(running, want) << when;
    // squeue prints the running rows first, in the same order.
    std::istringstream rows(squeue(controller, trinity()));
    std::string line;
    std::getline(rows, line);  // header
    std::vector<JobId> listed;
    while (std::getline(rows, line)) {
      if (line.find("RUNNING") == std::string::npos) continue;
      listed.push_back(std::stoll(line));
    }
    EXPECT_EQ(listed, want) << when;
  };

  engine.run_until(kMinute);
  ASSERT_EQ(controller.stats().secondary_starts, 1u);
  EXPECT_EQ(controller.job(20).alloc_kind,
            cluster::AllocationKind::kSecondary);
  expect_submit_order("after the secondary start");

  engine.run_until(25 * kMinute);
  // Job 40 ended before the jobs submitted ahead of it; job 10 took its
  // node.
  EXPECT_EQ(controller.job(40).state, workload::JobState::kCompleted);
  EXPECT_EQ(controller.job(10).state, workload::JobState::kRunning);
  expect_submit_order("after an out-of-order completion");

  engine.run_until(35 * kMinute);
  ASSERT_EQ(controller.stats().requeues, 1u);
  EXPECT_EQ(controller.job(30).state, workload::JobState::kPending);
  expect_submit_order("after the requeue");

  engine.run_until(45 * kMinute);
  EXPECT_EQ(controller.job(30).state, workload::JobState::kRunning);
  expect_submit_order("after the requeued job restarted");

  engine.run();
  EXPECT_TRUE(controller.running_ids().empty());
}

// --- run_simulation ------------------------------------------------------------------

TEST(Simulation, DeterministicAcrossRuns) {
  SimulationSpec spec;
  spec.controller = small_config(core::StrategyKind::kCoBackfill);
  spec.controller.nodes = 8;
  spec.workload = workload::trinity_campaign(8, 60);
  spec.seed = 7;
  const auto a = run_simulation(spec, trinity());
  const auto b = run_simulation(spec, trinity());
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].start_time, b.jobs[i].start_time);
    EXPECT_EQ(a.jobs[i].end_time, b.jobs[i].end_time);
    EXPECT_EQ(a.jobs[i].alloc_kind, b.jobs[i].alloc_kind);
  }
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_DOUBLE_EQ(a.metrics.scheduling_efficiency,
                   b.metrics.scheduling_efficiency);
}

TEST(Simulation, AllJobsReachFinalState) {
  SimulationSpec spec;
  spec.controller = small_config(core::StrategyKind::kFirstFit);
  spec.workload = workload::trinity_campaign(4, 40);
  const auto result = run_simulation(spec, trinity());
  EXPECT_EQ(result.metrics.jobs_completed + result.metrics.jobs_timeout +
                (result.metrics.jobs_total - result.metrics.jobs_completed -
                 result.metrics.jobs_timeout),
            result.metrics.jobs_total);
  EXPECT_EQ(result.metrics.jobs_completed, 40);
}

TEST(Simulation, StreamSubmissionMatchesBatch) {
  // run_jobs pulls the list through the one arrival path, so it makes the
  // decisions, the event stream and the digest of run_stream over a
  // ListSource of the same jobs.
  for (const auto strategy : {core::StrategyKind::kCoBackfill,
                              core::StrategyKind::kCoConservative,
                              core::StrategyKind::kEasyBackfill}) {
    SimulationSpec spec;
    spec.controller = small_config(strategy);
    spec.controller.nodes = 12;
    spec.workload = workload::trinity_stream(12, 150, /*offered_load=*/1.1);
    spec.seed = 21;
    spec.hash_events = true;

    const workload::Generator gen(spec.workload, trinity());
    Pcg32 rng(spec.seed);
    const workload::JobList jobs = gen.generate(rng);
    const auto batch = run_jobs(spec, trinity(), jobs);

    workload::ListSource list(jobs);
    const auto streamed = run_stream(spec, trinity(), list);

    ASSERT_NE(batch.event_stream_hash, 0u);
    EXPECT_EQ(streamed.event_stream_hash, batch.event_stream_hash);
    EXPECT_EQ(streamed.events_executed, batch.events_executed);
    ASSERT_EQ(streamed.jobs.size(), batch.jobs.size());
    for (std::size_t i = 0; i < batch.jobs.size(); ++i) {
      EXPECT_EQ(streamed.jobs[i].id, batch.jobs[i].id);
      EXPECT_EQ(streamed.jobs[i].state, batch.jobs[i].state);
      EXPECT_EQ(streamed.jobs[i].start_time, batch.jobs[i].start_time);
      EXPECT_EQ(streamed.jobs[i].end_time, batch.jobs[i].end_time);
      EXPECT_EQ(streamed.jobs[i].alloc_kind, batch.jobs[i].alloc_kind);
      EXPECT_EQ(streamed.jobs[i].alloc_nodes, batch.jobs[i].alloc_nodes);
    }
    EXPECT_DOUBLE_EQ(streamed.metrics.scheduling_efficiency,
                     batch.metrics.scheduling_efficiency);
  }
}

TEST(Simulation, ListOutOfSubmitOrderThrowsNamingTheJob) {
  // A lazy pull cannot reorder: job 3 would be due before job 2, the
  // arrival that pulls it.
  workload::JobList jobs = {make_job(1, 1, kMinute, kHour, 0),
                            make_job(2, 1, kMinute, kHour, 0),
                            make_job(3, 1, kMinute, kHour, 0)};
  jobs[1].submit_time = 2 * kHour;
  jobs[2].submit_time = kHour;
  SimulationSpec spec;
  spec.controller = small_config(core::StrategyKind::kEasyBackfill);
  try {
    (void)run_jobs(spec, trinity(), jobs);
    FAIL() << "an arrival out of submit order ran";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("job 3 "), std::string::npos)
        << e.what();
  }
}

// --- Config parsing -------------------------------------------------------------------

TEST(Config, ParsesFullFile) {
  std::stringstream in(
      "# cluster\n"
      "Nodes=64\n"
      "CoresPerNode=24\n"
      "ThreadsPerCore=2\n"
      "MemoryPerNode=256\n"
      "SchedulerType=cobackfill\n"
      "OverSubscribe=YES:2\n"
      "PairingThreshold=0.2   # picky\n"
      "MaxDilation=1.25\n");
  const auto config = parse_config(in);
  EXPECT_EQ(config.nodes, 64);
  EXPECT_EQ(config.node_config.cores, 24);
  EXPECT_EQ(config.node_config.smt_per_core, 2);
  EXPECT_EQ(config.node_config.memory_gb, 256);
  EXPECT_EQ(config.strategy, core::StrategyKind::kCoBackfill);
  EXPECT_DOUBLE_EQ(config.scheduler_options.co.pairing_threshold, 0.2);
  EXPECT_DOUBLE_EQ(config.scheduler_options.co.max_dilation, 1.25);
}

TEST(Config, OverSubscribeNoDisablesSmt) {
  std::stringstream in("Nodes=4\nOverSubscribe=NO\n");
  EXPECT_EQ(parse_config(in).node_config.smt_per_core, 1);
}

TEST(Config, CaseInsensitiveKeys) {
  std::stringstream in("NODES=2\nschedulertype=EASY\n");
  const auto config = parse_config(in);
  EXPECT_EQ(config.nodes, 2);
  EXPECT_EQ(config.strategy, core::StrategyKind::kEasyBackfill);
}

TEST(Config, RejectsUnknownKeysAndBadValues) {
  std::stringstream bad_key("Frobnicate=1\n");
  EXPECT_THROW(parse_config(bad_key), Error);
  std::stringstream bad_value("Nodes=many\n");
  EXPECT_THROW(parse_config(bad_value), Error);
  std::stringstream no_eq("Nodes 4\n");
  EXPECT_THROW(parse_config(no_eq), Error);
  std::stringstream bad_oversub("OverSubscribe=MAYBE\n");
  EXPECT_THROW(parse_config(bad_oversub), Error);
}

TEST(Config, ExtendedKeys) {
  std::stringstream in(
      "Nodes=8\n"
      "GateMode=learned\n"
      "WalltimePrediction=YES\n"
      "QueuePolicy=priority\n"
      "SwitchSize=4\n"
      "SwitchPenalty=0.07\n"
      "Placement=compact\n"
      "CheckpointInterval=00:30:00\n");
  const auto config = parse_config(in);
  EXPECT_EQ(config.scheduler_options.co.gate_mode, core::GateMode::kLearned);
  EXPECT_TRUE(config.scheduler_options.use_walltime_prediction);
  EXPECT_EQ(config.queue_policy, QueuePolicy::kPriority);
  EXPECT_EQ(config.topology.switch_size, 4);
  EXPECT_DOUBLE_EQ(config.topology.penalty_per_extra_switch, 0.07);
  EXPECT_EQ(config.placement, cluster::PlacementPolicy::kCompact);
  EXPECT_EQ(config.checkpoint_interval, 30 * kMinute);
}

TEST(Config, ExtendedKeysRejectBadValues) {
  std::stringstream bad_gate("GateMode=psychic\n");
  EXPECT_THROW(parse_config(bad_gate), Error);
  std::stringstream bad_policy("QueuePolicy=random\n");
  EXPECT_THROW(parse_config(bad_policy), Error);
  std::stringstream bad_place("Placement=wherever\n");
  EXPECT_THROW(parse_config(bad_place), Error);
  std::stringstream bad_ckpt("CheckpointInterval=soon\n");
  EXPECT_THROW(parse_config(bad_ckpt), Error);
  std::stringstream bad_pred("WalltimePrediction=maybe\n");
  EXPECT_THROW(parse_config(bad_pred), Error);
}

TEST(Config, GateAndTopologyKnobsRejectNonFiniteAndOutOfRange) {
  // Each of these used to parse and then abort on a precondition check
  // (or, for MaxDilation=inf, run silently with no dilation cap at all).
  const struct {
    const char* line;
    const char* key;
  } bad[] = {
      {"PairingThreshold=nan", "PairingThreshold"},
      {"PairingThreshold=inf", "PairingThreshold"},
      {"PairingThreshold=-inf", "PairingThreshold"},
      {"PairingThreshold=-0.1", "PairingThreshold"},
      {"MaxDilation=nan", "MaxDilation"},
      {"MaxDilation=inf", "MaxDilation"},
      {"MaxDilation=-inf", "MaxDilation"},
      {"MaxDilation=0.5", "MaxDilation"},
      {"SwitchPenalty=nan", "SwitchPenalty"},
      {"SwitchPenalty=inf", "SwitchPenalty"},
      {"SwitchPenalty=-inf", "SwitchPenalty"},
      {"SwitchPenalty=-0.01", "SwitchPenalty"},
  };
  for (const auto& c : bad) {
    std::stringstream in(std::string(c.line) + "\n");
    try {
      (void)parse_config(in);
      ADD_FAILURE() << c.line << " was accepted";
    } catch (const Error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find(c.key), std::string::npos) << msg;
      EXPECT_EQ(msg.find('\n'), std::string::npos) << msg;
    }
  }
  // The boundaries themselves are valid.
  std::stringstream edge("PairingThreshold=0\nMaxDilation=1\nSwitchPenalty=0\n");
  const auto config = parse_config(edge);
  EXPECT_DOUBLE_EQ(config.scheduler_options.co.pairing_threshold, 0.0);
  EXPECT_DOUBLE_EQ(config.scheduler_options.co.max_dilation, 1.0);
  EXPECT_DOUBLE_EQ(config.topology.penalty_per_extra_switch, 0.0);
}

// Machine sizes that used to pass silently (a negative SwitchSize read as
// a flat network, a negative MemoryPerNode) or abort (Nodes=2000000000
// threw std::bad_alloc building the nodes) fail in the parser with one
// line, before anything is allocated.
TEST(Config, RejectsMachineSizesOutOfRange) {
  const struct {
    const char* line;
    const char* message;
  } bad[] = {
      {"SwitchSize=-3", "SwitchSize must be >= 0 (0 = flat), got -3"},
      {"MemoryPerNode=-1", "MemoryPerNode must be positive, got -1"},
      {"MemoryPerNode=0", "MemoryPerNode must be positive, got 0"},
      {"Nodes=2000000000", "Nodes must be between 1 and 1048576, got "
                           "2000000000"},
      {"Nodes=0", "Nodes must be between 1 and 1048576, got 0"},
      {"ThreadsPerCore=1000000", "ThreadsPerCore (or OverSubscribe=YES:N) "
                                 "must be between 1 and 8, got 1000000"},
      {"OverSubscribe=YES:9", "ThreadsPerCore (or OverSubscribe=YES:N) must "
                              "be between 1 and 8, got 9"},
  };
  for (const auto& c : bad) {
    std::stringstream in(std::string(c.line) + "\n");
    try {
      (void)parse_config(in);
      ADD_FAILURE() << c.line << " was accepted";
    } catch (const Error& e) {
      EXPECT_EQ(std::string(e.what()), c.message);
    }
  }
  // The bounds themselves are valid.
  std::stringstream edge(
      "Nodes=1048576\nThreadsPerCore=8\nSwitchSize=0\nMemoryPerNode=1\n");
  const auto config = parse_config(edge);
  EXPECT_EQ(config.nodes, kMaxNodes);
  EXPECT_EQ(config.node_config.smt_per_core, kMaxThreadsPerCore);
}

TEST(Config, FormatParsesBack) {
  ControllerConfig config;
  config.nodes = 16;
  config.strategy = core::StrategyKind::kCoFirstFit;
  config.scheduler_options.co.pairing_threshold = 0.15;
  std::stringstream round(format_config(config));
  const auto parsed = parse_config(round);
  EXPECT_EQ(parsed.nodes, 16);
  EXPECT_EQ(parsed.strategy, core::StrategyKind::kCoFirstFit);
  EXPECT_DOUBLE_EQ(parsed.scheduler_options.co.pairing_threshold, 0.15);
}

// --- Formatters smoke --------------------------------------------------------------------

TEST(Formatters, SqueueSinfoSacctRender) {
  sim::Engine engine;
  Controller controller(engine,
                        small_config(core::StrategyKind::kCoBackfill),
                        trinity());
  controller.submit(make_job(1, 4, kHour, 2 * kHour, app_id("GTC")));
  controller.submit(
      make_job(2, 2, 20 * kMinute, 40 * kMinute, app_id("miniFE")));
  controller.submit(make_job(3, 4, kHour, 2 * kHour, app_id("MILC")));
  engine.run_until(10 * kMinute);

  const std::string queue = squeue(controller, trinity());
  EXPECT_NE(queue.find("RUNNING"), std::string::npos);
  EXPECT_NE(queue.find("PENDING"), std::string::npos);
  EXPECT_NE(queue.find("shared"), std::string::npos);

  const std::string info = sinfo(controller.machine_state());
  EXPECT_NE(info.find("shared 2"), std::string::npos);  // miniFE on 2 nodes

  engine.run();
  const std::string acct = sacct(controller.job_records(), trinity());
  EXPECT_NE(acct.find("COMPLETED"), std::string::npos);
  EXPECT_NE(acct.find("miniFE"), std::string::npos);

  const auto m =
      metrics::compute(controller.job_records(), 4);
  const std::string summary = metrics_summary(m);
  EXPECT_NE(summary.find("scheduling efficiency"), std::string::npos);
}

TEST(Formatters, SacctShowsTimeoutAndCancelled) {
  sim::Engine engine;
  Controller controller(engine, small_config(core::StrategyKind::kFcfs),
                        trinity());
  controller.submit(make_job(1, 1, kHour, kMinute, 0));   // will time out
  controller.submit(make_job(2, 99, kMinute, kHour, 0));  // oversize
  engine.run();
  const std::string acct = sacct(controller.job_records(), trinity());
  EXPECT_NE(acct.find("TIMEOUT"), std::string::npos);
  EXPECT_NE(acct.find("CANCELLED"), std::string::npos);
}

TEST(Formatters, SqueueShowsHeldJobs) {
  sim::Engine engine;
  Controller controller(engine, small_config(core::StrategyKind::kFcfs),
                        trinity());
  controller.submit(make_job(1, 4, kHour, 2 * kHour, 0));
  auto held = make_job(2, 1, kMinute, kHour, 0);
  held.depends_on = 1;
  controller.submit(held);
  engine.run_until(kMinute);
  // Held jobs are not in the pending queue, so squeue shows only the
  // running job — and sinfo shows the machine fully busy.
  const std::string queue = squeue(controller, trinity());
  EXPECT_NE(queue.find("RUNNING"), std::string::npos);
  EXPECT_EQ(queue.find("HELD"), std::string::npos);
  EXPECT_EQ(controller.job(2).state, workload::JobState::kHeld);
  engine.run();
  EXPECT_EQ(controller.job(2).state, workload::JobState::kCompleted);
}

TEST(Controller, UsageTrackerChargesCompletedWork) {
  sim::Engine engine;
  Controller controller(engine, small_config(core::StrategyKind::kFcfs),
                        trinity());
  auto job = make_job(1, 2, 30 * kMinute, kHour, 0);
  job.user = "alice";
  controller.submit(job);
  engine.run();
  // 2 nodes * 1800 s = 3600 node-seconds, decayed negligibly.
  EXPECT_NEAR(controller.usage().usage("alice", engine.now()), 3600.0, 1.0);
  EXPECT_DOUBLE_EQ(controller.usage().usage("bob", engine.now()), 0.0);
}

TEST(Controller, PredictorLearnsFromCompletions) {
  sim::Engine engine;
  Controller controller(engine, small_config(core::StrategyKind::kFcfs),
                        trinity());
  // Three completions at 50% usage teach the predictor.
  for (JobId id = 1; id <= 3; ++id) {
    auto job = make_job(id, 1, 30 * kMinute, kHour, 0);
    job.user = "carol";
    controller.submit(job);
  }
  engine.run();
  auto probe = make_job(9, 1, 30 * kMinute, kHour, 0);
  probe.user = "carol";
  probe.submit_time = engine.now();
  controller.submit(probe);
  // predicted_runtime needs a pending job; query before it starts.
  EXPECT_LT(controller.predicted_runtime(9), kHour);
  engine.run();
}

}  // namespace
}  // namespace cosched::slurmlite
