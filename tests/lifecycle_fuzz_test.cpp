// Randomized lifecycle fuzzing: the execution model under arbitrary
// co-location churn, and the controller under interleaved submissions and
// cancellations. Deterministic (seeded), so failures reproduce.
#include <gtest/gtest.h>

#include <algorithm>

#include "slurmlite/execution.hpp"
#include "slurmlite/simulation.hpp"
#include "test_support.hpp"
#include "workload/campaign.hpp"

namespace cosched {
namespace {

using cosched::testing::make_job;

const apps::Catalog& trinity() {
  static const apps::Catalog c = apps::Catalog::trinity();
  return c;
}

// --- ExecutionModel under random start/finish churn --------------------------------

using cosched::testing::first_shareable;
using cosched::testing::refresh_all;

bool contains(const std::vector<JobId>& ids, JobId id) {
  return std::find(ids.begin(), ids.end(), id) != ids.end();
}

class ExecutionFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ExecutionFuzz, ProgressInvariantsUnderChurn) {
  Pcg32 rng(static_cast<std::uint64_t>(GetParam()), 0xec5);
  cluster::Machine machine(6, cluster::NodeConfig{});
  const interference::CorunModel corun;
  slurmlite::ExecutionModel exec(machine, trinity(), corun);

  struct Live {
    JobId id;
    double work_s;
    /// Dilation and predicted end after the previous refresh; end < 0
    /// until the job's first refresh.
    double dilation = 0;
    SimTime end = -1;
  };
  std::vector<Live> live;
  JobId next = 1;
  SimTime now = 0;

  for (int step = 0; step < 300; ++step) {
    now += rng.uniform_int(1, 60) * kSecond;

    const double roll = rng.next_double();
    if (roll < 0.35) {  // start a primary if space
      const int want = static_cast<int>(rng.uniform_int(1, 3));
      if (auto nodes = machine.find_free_nodes(want)) {
        auto job = make_job(next, want, kHour, 3 * kHour,
                            static_cast<AppId>(next % trinity().size()));
        machine.allocate_primary(job.id, *nodes);
        exec.start(job, now);
        live.push_back({job.id, to_seconds(job.base_runtime)});
        ++next;
      }
    } else if (roll < 0.55) {  // co-allocate if possible
      const int want = static_cast<int>(rng.uniform_int(1, 2));
      if (auto nodes = first_shareable(machine, want)) {
        auto job = make_job(next, want, kHour, 3 * kHour,
                            static_cast<AppId>(next % trinity().size()));
        machine.allocate_secondary(job.id, *nodes);
        exec.start(job, now);
        live.push_back({job.id, to_seconds(job.base_runtime)});
        ++next;
      }
    } else if (!live.empty()) {  // finish a random job
      const std::size_t idx =
          rng.next_below(static_cast<std::uint32_t>(live.size()));
      exec.finish(live[idx].id);
      machine.release(live[idx].id);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
    }
    std::vector<double> progress_before;
    for (const auto& j : live) {
      progress_before.push_back(exec.progress_s(j.id, now));
    }
    const std::vector<JobId> moved = refresh_all(exec, machine, now);

    // Invariants over every tracked job.
    std::size_t moved_live = 0;
    for (std::size_t i = 0; i < live.size(); ++i) {
      Live& j = live[i];
      const bool is_moved = contains(moved, j.id);
      moved_live += is_moved ? 1 : 0;
      const SimTime end = exec.predicted_end(j.id);
      if (j.end < 0) {
        EXPECT_TRUE(is_moved) << "job " << j.id << " got no first end";
      } else if (exec.dilation(j.id) == j.dilation) {
        // Unchanged rate: the epoch and its prediction stand, bit for bit.
        EXPECT_EQ(end, j.end) << "job " << j.id;
        EXPECT_FALSE(is_moved) << "job " << j.id;
      } else {
        EXPECT_EQ(is_moved, end != j.end) << "job " << j.id;
      }
      j.dilation = exec.dilation(j.id);
      j.end = end;
      // Closing an epoch is continuous: progress at the refresh instant
      // is the same double before and after.
      EXPECT_EQ(exec.progress_s(j.id, now), progress_before[i])
          << "job " << j.id;
      EXPECT_GE(j.dilation, 1.0) << "job " << j.id;
      EXPECT_LE(j.dilation, 3.0) << "job " << j.id;  // sane bound
      EXPECT_GE(exec.remaining_work_s(j.id, now), 0.0);
      EXPECT_LE(exec.progress_s(j.id, now), j.work_s + 1e-6);
      EXPECT_GE(end, now);
      EXPECT_GE(exec.observed_dilation(j.id, now), 1.0 - 1e-9);
    }
    EXPECT_EQ(moved_live, moved.size()) << "a moved job is not running";
    EXPECT_EQ(exec.running_count(), live.size());
    machine.check_invariants();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExecutionFuzz, ::testing::Range(1, 7));

// Progress is closed-form per rate epoch: a job's progress, remaining work,
// predicted end and observed dilation are bitwise identical whether or not
// other jobs start and finish meanwhile, and whatever number of refreshes
// run in between. The churn includes a co-runner joining and leaving the
// job's second node: its rate is recomputed there and compares equal (the
// first node stays the slowest), so its epoch must stand.
TEST(ExecutionModel, SyncCadenceDoesNotChangeProgress) {
  const AppId gtc = trinity().by_name("GTC").id;
  const AppId minife = trinity().by_name("miniFE").id;
  const SimTime horizon = 30 * kMinute;
  struct Observed {
    double progress, remaining, observed_dilation;
    SimTime end;
  };
  const auto run = [&](int chunks, bool churn) {
    cluster::Machine machine(4, cluster::NodeConfig{});
    const interference::CorunModel corun;
    slurmlite::ExecutionModel exec(machine, trinity(), corun);
    // Job 1 spans nodes 0-1 and shares node 0 with job 2: it runs dilated.
    machine.allocate_primary(1, {0, 1});
    exec.start(make_job(1, 2, kHour, 3 * kHour, gtc), 0);
    machine.allocate_secondary(2, {0});
    exec.start(make_job(2, 1, kHour, 3 * kHour, minife), 0);
    refresh_all(exec, machine, 0);
    EXPECT_GT(exec.dilation(1), 1.0);
    JobId next = 3;
    for (int i = 1; i < chunks; ++i) {
      const SimTime t = horizon * i / chunks;
      if (churn && i % 2 == 1) {  // an exclusive job and a co-runner start
        machine.allocate_primary(next, {2, 3});
        exec.start(make_job(next, 2, kHour, 3 * kHour, gtc), t);
        machine.allocate_secondary(next + 1, {1});
        exec.start(make_job(next + 1, 1, kHour, 3 * kHour, minife), t);
      } else if (churn) {  // ... and finish
        for (JobId id : {next, next + 1}) {
          exec.finish(id);
          machine.release(id);
        }
        next += 2;
      }
      EXPECT_FALSE(contains(refresh_all(exec, machine, t), 1))
          << chunks << " chunks, t=" << t;
    }
    EXPECT_EQ(exec.rate_changes(), 0u);
    return Observed{exec.progress_s(1, horizon),
                    exec.remaining_work_s(1, horizon),
                    exec.observed_dilation(1, horizon),
                    exec.predicted_end(1)};
  };

  const Observed ref = run(1, false);
  EXPECT_DOUBLE_EQ(ref.progress, 1800.0 / ref.observed_dilation);
  for (bool churn : {false, true}) {
    for (int chunks : {1, 7, 100}) {
      const Observed got = run(chunks, churn);
      EXPECT_EQ(got.progress, ref.progress) << chunks << " chunks";
      EXPECT_EQ(got.remaining, ref.remaining) << chunks << " chunks";
      EXPECT_EQ(got.observed_dilation, ref.observed_dilation)
          << chunks << " chunks";
      EXPECT_EQ(got.end, ref.end) << chunks << " chunks";
    }
  }
}

// --- Controller under interleaved submissions and cancellations --------------------

class CancelFuzz : public ::testing::TestWithParam<int> {};

TEST_P(CancelFuzz, RandomCancellationsKeepSystemConsistent) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  Pcg32 rng(seed, 0xca2ce1);

  sim::Engine engine;
  slurmlite::ControllerConfig config;
  config.nodes = 8;
  config.strategy = core::StrategyKind::kCoBackfill;
  slurmlite::Controller controller(engine, config, trinity());

  workload::Generator generator(workload::trinity_campaign(8, 60),
                                trinity());
  Pcg32 wl_rng(seed);
  const auto jobs = generator.generate(wl_rng);
  controller.submit_all(jobs);

  // Interleave: run a slice of simulated time, then cancel a random job.
  SimTime cursor = 0;
  for (int round = 0; round < 20; ++round) {
    cursor += rng.uniform_int(1, 30) * kMinute;
    engine.run_until(cursor);
    const JobId victim = rng.uniform_int(1, 60);
    controller.cancel(victim);  // any state; may be a no-op
    controller.machine_state().check_invariants();
  }
  engine.run();

  int finals = 0;
  for (const auto& job : controller.job_records()) {
    EXPECT_NE(job.state, workload::JobState::kPending) << job.id;
    EXPECT_NE(job.state, workload::JobState::kRunning) << job.id;
    EXPECT_NE(job.state, workload::JobState::kHeld) << job.id;
    ++finals;
  }
  EXPECT_EQ(finals, 60);
  controller.machine_state().check_invariants();
  EXPECT_TRUE(engine.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, CancelFuzz, ::testing::Range(1, 7));

}  // namespace
}  // namespace cosched
