// Tests for the audit layer: FNV hashing, the post-event invariant
// auditor, and the determinism checker over every scheduling strategy.
#include <gtest/gtest.h>

#include "audit/auditor.hpp"
#include "audit/determinism.hpp"
#include "audit/fnv.hpp"
#include "sim/engine.hpp"
#include "slurmlite/simulation.hpp"
#include "workload/campaign.hpp"

namespace cosched {
namespace {

const apps::Catalog& trinity() {
  static const apps::Catalog c = apps::Catalog::trinity();
  return c;
}

slurmlite::SimulationSpec small_spec(core::StrategyKind strategy,
                                     std::uint64_t seed = 7) {
  slurmlite::SimulationSpec spec;
  spec.controller.nodes = 16;
  spec.controller.strategy = strategy;
  spec.workload = workload::trinity_campaign(16, 80);
  spec.seed = seed;
  return spec;
}

// --- Fnv64 -------------------------------------------------------------------

TEST(Fnv64Test, EmptyDigestIsOffsetBasis) {
  EXPECT_EQ(audit::Fnv64{}.digest(), audit::Fnv64::kOffsetBasis);
}

TEST(Fnv64Test, KnownVector) {
  // FNV-1a("a") = 0xaf63dc4c8601ec8c (published test vector).
  audit::Fnv64 h;
  h.mix_byte('a');
  EXPECT_EQ(h.digest(), 0xaf63dc4c8601ec8cULL);
}

TEST(Fnv64Test, OrderSensitive) {
  audit::Fnv64 a, b;
  a.mix_i64(1).mix_i64(2);
  b.mix_i64(2).mix_i64(1);
  EXPECT_NE(a.digest(), b.digest());
}

TEST(Fnv64Test, DoubleUsesBitPattern) {
  audit::Fnv64 pos, neg;
  pos.mix_double(0.0);
  neg.mix_double(-0.0);
  EXPECT_NE(pos.digest(), neg.digest());
}

// --- Engine observer seam ----------------------------------------------------

TEST(EventObserverTest, HasherSeesEveryExecutedEvent) {
  sim::Engine engine;
  audit::EventStreamHasher hasher;
  engine.add_observer(&hasher);
  for (int i = 0; i < 5; ++i) {
    engine.schedule_at(i * kSecond, sim::EventPriority::kTimer, "test",
                       [] {});
  }
  const sim::EventId cancelled =
      engine.schedule_at(10 * kSecond, sim::EventPriority::kTimer, "test",
                         [] {});
  ASSERT_TRUE(engine.cancel(cancelled));
  engine.run();
  EXPECT_EQ(hasher.events(), 5u);  // cancelled events are not observed

  engine.remove_observer(&hasher);
  engine.schedule_at(20 * kSecond, sim::EventPriority::kTimer, "test",
                     [] {});
  engine.run();
  EXPECT_EQ(hasher.events(), 5u);  // removed observers see nothing
}

TEST(EventObserverTest, IdenticalScheduleIdenticalDigest) {
  const auto run_once = [] {
    sim::Engine engine;
    audit::EventStreamHasher hasher;
    engine.add_observer(&hasher);
    engine.schedule_at(kSecond, sim::EventPriority::kSubmit, "test", [] {});
    engine.schedule_at(kSecond, sim::EventPriority::kJobEnd, "test", [] {});
    engine.schedule_at(2 * kSecond, sim::EventPriority::kReport, "test",
                       [] {});
    engine.run();
    return hasher.digest();
  };
  EXPECT_EQ(run_once(), run_once());
}

// --- StateAuditor ------------------------------------------------------------

/// Minimal hand-rolled view over a machine and job table, so auditor
/// checks can be exercised against deliberately corrupted state.
class TestView : public audit::SystemView {
 public:
  explicit TestView(int nodes) : machine_(nodes, cluster::NodeConfig{}) {}

  cluster::Machine& machine() { return machine_; }
  workload::Job& add_job(JobId id, workload::JobState state) {
    workload::Job job;
    job.id = id;
    job.state = state;
    job.nodes = 1;
    jobs_.push_back(job);
    return jobs_.back();
  }

  const cluster::Machine& audit_machine() const override { return machine_; }
  audit::StateCounts audit_state_counts() const override {
    audit::StateCounts counts;
    for (const auto& job : jobs_) {
      switch (job.state) {
        case workload::JobState::kPending: ++counts.pending; break;
        case workload::JobState::kHeld: ++counts.held; break;
        case workload::JobState::kRunning: ++counts.running; break;
        case workload::JobState::kCompleted: ++counts.completed; break;
        case workload::JobState::kTimeout: ++counts.timeout; break;
        case workload::JobState::kCancelled: ++counts.cancelled; break;
      }
    }
    return counts;
  }
  std::vector<JobId> audit_running_jobs() const override {
    std::vector<JobId> out;
    for (const auto& job : jobs_) {
      if (job.state == workload::JobState::kRunning) out.push_back(job.id);
    }
    return out;
  }
  const workload::Job& audit_job(JobId id) const override {
    for (const auto& job : jobs_) {
      if (job.id == id) return job;
    }
    throw Error("unknown job in TestView");
  }
  std::size_t audit_queue_length() const override { return queue_length_; }
  std::size_t audit_submitted() const override { return jobs_.size(); }

  void set_queue_length(std::size_t n) { queue_length_ = n; }

 private:
  cluster::Machine machine_;
  std::vector<workload::Job> jobs_;
  std::size_t queue_length_ = 0;
};

TEST(StateAuditorTest, CleanStatePasses) {
  TestView view(4);
  auto& job = view.add_job(1, workload::JobState::kRunning);
  job.start_time = 0;
  job.alloc_nodes = {0};
  view.machine().allocate_primary(1, {0});
  view.add_job(2, workload::JobState::kPending);
  view.set_queue_length(1);

  audit::StateAuditor auditor(view);
  auditor.validate(kSecond);  // must not fire
}

TEST(StateAuditorDeathTest, RunningJobWithoutAllocationFires) {
  TestView view(4);
  auto& job = view.add_job(1, workload::JobState::kRunning);
  job.start_time = 0;
  audit::StateAuditor auditor(view);
  EXPECT_DEATH(auditor.validate(kSecond), "has no allocation");
}

TEST(StateAuditorDeathTest, QueueLongerThanPendingCensusFires) {
  TestView view(4);
  view.add_job(1, workload::JobState::kCompleted);
  view.set_queue_length(3);
  audit::StateAuditor auditor(view);
  EXPECT_DEATH(auditor.validate(kSecond), "queue holds");
}

TEST(StateAuditorDeathTest, BackwardsTimestampsFire) {
  TestView view(2);
  audit::StateAuditor auditor(view);
  auditor.on_event_executed(kHour, sim::EventPriority::kTimer, 1, "");
  EXPECT_DEATH(
      auditor.on_event_executed(kMinute, sim::EventPriority::kTimer, 2, ""),
      "backwards");
}

TEST(StateAuditorTest, AuditsFullSimulationWithoutFiring) {
  // Force the auditor on regardless of build type: a full campaign under
  // the co-allocating strategy must hold every invariant at every event.
  auto spec = small_spec(core::StrategyKind::kCoBackfill);
  spec.audit = slurmlite::AuditMode::kOn;
  const auto result = slurmlite::run_simulation(spec, trinity());
  EXPECT_GT(result.events_executed, 0u);
}

// --- Determinism check over every strategy -----------------------------------

class DeterminismTest
    : public ::testing::TestWithParam<core::StrategyKind> {};

TEST_P(DeterminismTest, SameSeedSameEventStream) {
  const auto report =
      slurmlite::check_determinism(small_spec(GetParam()), trinity());
  EXPECT_TRUE(report.deterministic())
      << core::to_string(GetParam()) << " diverged: "
      << report.first.hash << " (" << report.first.events << " events) vs "
      << report.second.hash << " (" << report.second.events << " events)";
  EXPECT_NE(report.first.hash, 0u);
}

TEST_P(DeterminismTest, DifferentSeedsDifferentStream) {
  const auto a = slurmlite::run_digest(small_spec(GetParam(), 7), trinity());
  const auto b = slurmlite::run_digest(small_spec(GetParam(), 8), trinity());
  EXPECT_NE(a.hash, b.hash);
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, DeterminismTest,
    ::testing::ValuesIn(core::all_strategies()),
    [](const ::testing::TestParamInfo<core::StrategyKind>& p) {
      return std::string(core::to_string(p.param));
    });

}  // namespace
}  // namespace cosched
