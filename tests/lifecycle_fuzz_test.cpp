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

using cosched::testing::Epochs;
using cosched::testing::first_shareable;
using cosched::testing::refresh;
using cosched::testing::refresh_all;

bool contains(const std::vector<JobId>& ids, JobId id) {
  return std::find(ids.begin(), ids.end(), id) != ids.end();
}

/// Seeded co-location churn on a 6-node machine. Each step advances the
/// clock, then starts a primary job, co-allocates one or releases a random
/// running job, and reports the change through the callbacks so a test
/// can mirror it into the epoch sets it drives.
struct Churn {
  explicit Churn(int seed) : rng(static_cast<std::uint64_t>(seed), 0xec5) {}

  /// on_start(job) after a start; on_finish(id, index into running) after
  /// a release.
  template <typename OnStart, typename OnFinish>
  void step(OnStart&& on_start, OnFinish&& on_finish) {
    now += rng.uniform_int(1, 60) * kSecond;
    const double roll = rng.next_double();
    if (roll < 0.35) {  // start a primary if space
      const int want = static_cast<int>(rng.uniform_int(1, 3));
      if (auto nodes = machine.find_free_nodes(want)) {
        machine.allocate_primary(next, *nodes);
        on_start(started(want));
      }
    } else if (roll < 0.55) {  // co-allocate if possible
      const int want = static_cast<int>(rng.uniform_int(1, 2));
      if (auto nodes = first_shareable(machine, want)) {
        machine.allocate_secondary(next, *nodes);
        on_start(started(want));
      }
    } else if (!running.empty()) {  // finish a random job
      const std::size_t idx =
          rng.next_below(static_cast<std::uint32_t>(running.size()));
      const JobId id = running[idx];
      machine.release(id);
      running.erase(running.begin() + static_cast<std::ptrdiff_t>(idx));
      on_finish(id, idx);
    }
  }

  /// The job just allocated under id `next`.
  workload::Job started(int nodes) {
    running.push_back(next);
    const JobId id = next++;
    return make_job(id, nodes, kHour, 3 * kHour,
                    static_cast<AppId>(id % trinity().size()));
  }

  Pcg32 rng;
  cluster::Machine machine{6, cluster::NodeConfig{}};
  std::vector<JobId> running;  ///< in start order
  JobId next = 1;
  SimTime now = 0;
};

class ExecutionFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ExecutionFuzz, ProgressInvariantsUnderChurn) {
  Churn churn(GetParam());
  const SimTime& now = churn.now;
  const interference::CorunModel corun;
  slurmlite::ExecutionModel exec(churn.machine, trinity(), corun);
  Epochs epochs;

  struct Live {
    JobId id;
    double work_s;
    /// Dilation and predicted end after the previous refresh; end < 0
    /// until the job's first refresh.
    double dilation = 0;
    SimTime end = -1;
  };
  std::vector<Live> live;  // parallel to churn.running

  for (int step = 0; step < 300; ++step) {
    churn.step(
        [&](const workload::Job& job) {
          epochs[job.id] = exec.start(job, now);
          live.push_back({job.id, to_seconds(job.base_runtime)});
        },
        [&](JobId id, std::size_t idx) {
          epochs.erase(id);
          live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
        });
    std::vector<double> progress_before;
    for (const auto& j : live) {
      progress_before.push_back(epochs.at(j.id).progress_s(now));
    }
    const std::vector<JobId> moved =
        refresh_all(exec, churn.machine, epochs, now);

    // Invariants over every tracked job.
    std::size_t moved_live = 0;
    for (std::size_t i = 0; i < live.size(); ++i) {
      Live& j = live[i];
      const slurmlite::Epoch& e = epochs.at(j.id);
      const bool is_moved = contains(moved, j.id);
      moved_live += is_moved ? 1 : 0;
      const SimTime end = e.predicted_end();
      if (j.end < 0) {
        EXPECT_TRUE(is_moved) << "job " << j.id << " got no first end";
      } else if (e.dilation() == j.dilation) {
        // Unchanged rate: the epoch and its prediction stand, bit for bit.
        EXPECT_EQ(end, j.end) << "job " << j.id;
        EXPECT_FALSE(is_moved) << "job " << j.id;
      } else {
        EXPECT_EQ(is_moved, end != j.end) << "job " << j.id;
      }
      j.dilation = e.dilation();
      j.end = end;
      // Closing an epoch is continuous: progress at the refresh instant
      // is the same double before and after.
      EXPECT_EQ(e.progress_s(now), progress_before[i]) << "job " << j.id;
      EXPECT_GE(j.dilation, 1.0) << "job " << j.id;
      EXPECT_LE(j.dilation, 3.0) << "job " << j.id;  // sane bound
      EXPECT_GE(e.remaining_work_s(now), 0.0);
      EXPECT_LE(e.progress_s(now), j.work_s + 1e-6);
      EXPECT_GE(end, now);
      EXPECT_GE(e.observed_dilation(now), 1.0 - 1e-9);
    }
    EXPECT_EQ(moved_live, moved.size()) << "a moved job is not running";
    EXPECT_EQ(epochs.size(), live.size());
    churn.machine.check_invariants();
  }
}

// The controller settles rates from the machine's dirty list alone: only a
// resident of a resynced node can have a new rate. Under the same churn, a
// model refreshed from the dirty list and one refreshed over every node
// move the same jobs, close as many epochs and hold bitwise-equal epochs;
// only their visit stamps may differ.
TEST_P(ExecutionFuzz, DirtyListRefreshMatchesFullScan) {
  Churn churn(GetParam());
  const interference::CorunModel corun;
  slurmlite::ExecutionModel by_dirty(churn.machine, trinity(), corun);
  slurmlite::ExecutionModel by_scan(churn.machine, trinity(), corun);
  Epochs dirty_epochs;
  Epochs scan_epochs;
  for (int step = 0; step < 300; ++step) {
    churn.step(
        [&](const workload::Job& job) {
          dirty_epochs[job.id] = by_dirty.start(job, churn.now);
          scan_epochs[job.id] = by_scan.start(job, churn.now);
        },
        [&](JobId id, std::size_t) {
          dirty_epochs.erase(id);
          scan_epochs.erase(id);
        });
    std::vector<JobId> from_dirty = refresh(
        by_dirty, dirty_epochs, churn.machine.dirty_nodes(), churn.now);
    std::vector<JobId> from_scan =
        refresh_all(by_scan, churn.machine, scan_epochs, churn.now);
    std::sort(from_dirty.begin(), from_dirty.end());
    std::sort(from_scan.begin(), from_scan.end());
    EXPECT_EQ(from_dirty, from_scan) << "step " << step;
    EXPECT_EQ(by_dirty.rate_changes(), by_scan.rate_changes())
        << "step " << step;
    for (const auto& [id, got] : dirty_epochs) {
      const slurmlite::Epoch& want = scan_epochs.at(id);
      EXPECT_EQ(got.rate, want.rate) << "job " << id << " step " << step;
      EXPECT_EQ(got.epoch_t, want.epoch_t) << "job " << id;
      EXPECT_EQ(got.epoch_progress, want.epoch_progress) << "job " << id;
      EXPECT_EQ(got.end, want.end) << "job " << id;
    }
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
    Epochs epochs;
    const auto start = [&](const workload::Job& job,
                           const std::vector<NodeId>& nodes, bool primary,
                           SimTime t) {
      if (primary) {
        machine.allocate_primary(job.id, nodes);
      } else {
        machine.allocate_secondary(job.id, nodes);
      }
      epochs[job.id] = exec.start(job, t);
    };
    // Job 1 spans nodes 0-1 and shares node 0 with job 2: it runs dilated.
    start(make_job(1, 2, kHour, 3 * kHour, gtc), {0, 1}, true, 0);
    start(make_job(2, 1, kHour, 3 * kHour, minife), {0}, false, 0);
    refresh_all(exec, machine, epochs, 0);
    const slurmlite::Epoch& job1 = epochs.at(1);
    EXPECT_GT(job1.dilation(), 1.0);
    JobId next = 3;
    for (int i = 1; i < chunks; ++i) {
      const SimTime t = horizon * i / chunks;
      if (churn && i % 2 == 1) {  // an exclusive job and a co-runner start
        start(make_job(next, 2, kHour, 3 * kHour, gtc), {2, 3}, true, t);
        start(make_job(next + 1, 1, kHour, 3 * kHour, minife), {1}, false,
              t);
      } else if (churn) {  // ... and finish
        for (JobId id : {next, next + 1}) {
          machine.release(id);
          epochs.erase(id);
        }
        next += 2;
      }
      EXPECT_FALSE(contains(refresh_all(exec, machine, epochs, t), 1))
          << chunks << " chunks, t=" << t;
    }
    EXPECT_EQ(exec.rate_changes(), 0u);
    return Observed{job1.progress_s(horizon), job1.remaining_work_s(horizon),
                    job1.observed_dilation(horizon), job1.predicted_end()};
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
