#include <gtest/gtest.h>

#include "core/pairing.hpp"
#include "interference/estimator.hpp"
#include "slurmlite/simulation.hpp"
#include "test_support.hpp"
#include "workload/campaign.hpp"

namespace cosched {
namespace {

using cosched::testing::FakeHost;
using cosched::testing::make_job;

const apps::Catalog& trinity() {
  static const apps::Catalog c = apps::Catalog::trinity();
  return c;
}

AppId app_id(const char* name) { return trinity().by_name(name).id; }

// --- PairEstimator ---------------------------------------------------------------

TEST(PairEstimator, StartsEmpty) {
  interference::PairEstimator est(4);
  EXPECT_EQ(est.estimate(0, 1).samples, 0);
  EXPECT_FALSE(est.combined_throughput(0, 1, 1).has_value());
}

TEST(PairEstimator, FirstObservationTakenVerbatim) {
  interference::PairEstimator est(4, 0.3);
  est.observe(0, 1, 1.25);
  EXPECT_DOUBLE_EQ(est.estimate(0, 1).dilation, 1.25);
  EXPECT_EQ(est.estimate(0, 1).samples, 1);
  // Direction matters: (1, 0) is still unseen.
  EXPECT_EQ(est.estimate(1, 0).samples, 0);
}

TEST(PairEstimator, EwmaBlending) {
  interference::PairEstimator est(4, 0.5);
  est.observe(0, 1, 1.0);
  est.observe(0, 1, 2.0);
  EXPECT_DOUBLE_EQ(est.estimate(0, 1).dilation, 1.5);
  est.observe(0, 1, 1.5);
  EXPECT_DOUBLE_EQ(est.estimate(0, 1).dilation, 1.5);
}

TEST(PairEstimator, CombinedThroughputNeedsBothDirections) {
  interference::PairEstimator est(4);
  est.observe(0, 1, 1.25);
  EXPECT_FALSE(est.combined_throughput(0, 1, 1).has_value());
  est.observe(1, 0, 1.25);
  const auto tput = est.combined_throughput(0, 1, 1);
  ASSERT_TRUE(tput.has_value());
  EXPECT_DOUBLE_EQ(*tput, 2.0 / 1.25);
  // Higher sample requirement still unmet.
  EXPECT_FALSE(est.combined_throughput(0, 1, 2).has_value());
}

// --- Gate modes through CoAllocator --------------------------------------------------

struct GateScenario {
  FakeHost host{4, trinity()};
  GateScenario(const char* primary_app) {
    host.add_running_primary(
        make_job(1, 4, 90 * kMinute, 100 * kMinute, app_id(primary_app)),
        {0, 1, 2, 3});
  }
};

core::CoAllocationOptions with_mode(core::GateMode mode) {
  core::CoAllocationOptions options;
  options.gate_mode = mode;
  return options;
}

TEST(ClassRuleGate, AdmitsComplementaryOnly) {
  GateScenario compute("GTC");
  compute.host.add_pending(
      make_job(2, 1, 30 * kMinute, 40 * kMinute, app_id("miniFE")));
  const core::CoAllocator co(with_mode(core::GateMode::kClassRule));
  EXPECT_TRUE(co.select_nodes(compute.host, 2, true).has_value());

  GateScenario memory("MILC");
  memory.host.add_pending(
      make_job(2, 1, 30 * kMinute, 40 * kMinute, app_id("miniFE")));
  EXPECT_FALSE(co.select_nodes(memory.host, 2, true).has_value());

  // compute x compute is also rejected (neither side leaves slack).
  GateScenario compute2("GTC");
  compute2.host.add_pending(
      make_job(2, 1, 30 * kMinute, 40 * kMinute, app_id("miniDFT")));
  EXPECT_FALSE(co.select_nodes(compute2.host, 2, true).has_value());
}

TEST(ClassRuleGate, IgnoresDilationMagnitudes) {
  // The class rule admits compute x memory even under a draconian cap the
  // oracle would enforce — it has no magnitudes to check.
  GateScenario s("GTC");
  s.host.add_pending(
      make_job(2, 1, 30 * kMinute, 40 * kMinute, app_id("miniFE")));
  auto options = with_mode(core::GateMode::kClassRule);
  options.max_dilation = 1.01;
  const core::CoAllocator co(options);
  EXPECT_TRUE(co.select_nodes(s.host, 2, true).has_value());
}

class LearnedHost final : public FakeHost {
 public:
  using FakeHost::FakeHost;
  interference::PairEstimator estimator{trinity().size()};
  const interference::PairEstimator* pair_estimator() const override {
    return &estimator;
  }
};

TEST(LearnedGate, FallsBackToClassRuleWhenUnseen) {
  LearnedHost host(4, trinity());
  host.add_running_primary(
      make_job(1, 4, 90 * kMinute, 100 * kMinute, app_id("GTC")),
      {0, 1, 2, 3});
  host.add_pending(
      make_job(2, 1, 30 * kMinute, 40 * kMinute, app_id("miniFE")));
  const core::CoAllocator co(with_mode(core::GateMode::kLearned));
  EXPECT_TRUE(co.select_nodes(host, 2, true).has_value());
}

TEST(LearnedGate, HistoryOverridesClassRule) {
  // History says GTC+miniFE dilates miniFE beyond the cap: the learned
  // gate rejects a pair the class rule would admit.
  LearnedHost host(4, trinity());
  host.add_running_primary(
      make_job(1, 4, 90 * kMinute, 100 * kMinute, app_id("GTC")),
      {0, 1, 2, 3});
  host.add_pending(
      make_job(2, 1, 30 * kMinute, 40 * kMinute, app_id("miniFE")));
  for (int i = 0; i < 3; ++i) {
    host.estimator.observe(app_id("miniFE"), app_id("GTC"), 1.9);
    host.estimator.observe(app_id("GTC"), app_id("miniFE"), 1.1);
  }
  const core::CoAllocator co(with_mode(core::GateMode::kLearned));
  EXPECT_FALSE(co.select_nodes(host, 2, true).has_value());
}

TEST(LearnedGate, HistoryAdmitsWhatClassRuleRejects) {
  // miniGhost x UMT is not a compute x non-compute pair, but the observed
  // history says it co-runs well: the learned gate admits it.
  LearnedHost host(4, trinity());
  host.add_running_primary(
      make_job(1, 4, 90 * kMinute, 100 * kMinute, app_id("UMT")),
      {0, 1, 2, 3});
  host.add_pending(
      make_job(2, 1, 30 * kMinute, 40 * kMinute, app_id("miniGhost")));
  const core::CoAllocator co(with_mode(core::GateMode::kLearned));
  EXPECT_FALSE(co.select_nodes(host, 2, true).has_value());  // unseen: class rule says no
  for (int i = 0; i < 3; ++i) {
    host.estimator.observe(app_id("miniGhost"), app_id("UMT"), 1.25);
    host.estimator.observe(app_id("UMT"), app_id("miniGhost"), 1.20);
  }
  EXPECT_TRUE(co.select_nodes(host, 2, true).has_value());
}

TEST(LearnedGate, RequiresHostEstimator) {
  FakeHost host(4, trinity());  // no estimator
  host.add_running_primary(
      make_job(1, 4, 90 * kMinute, 100 * kMinute, app_id("GTC")),
      {0, 1, 2, 3});
  host.add_pending(
      make_job(2, 1, 30 * kMinute, 40 * kMinute, app_id("miniFE")));
  const core::CoAllocator co(with_mode(core::GateMode::kLearned));
  EXPECT_DEATH((void)co.select_nodes(host, 2, true),
               "learned gate mode requires");
}

// --- End-to-end: the controller learns pairs over a campaign --------------------------

TEST(LearnedGate, ControllerAccumulatesObservations) {
  slurmlite::SimulationSpec spec;
  spec.controller.nodes = 16;
  spec.controller.strategy = core::StrategyKind::kCoBackfill;
  spec.controller.scheduler_options.co.gate_mode = core::GateMode::kLearned;
  spec.workload = workload::trinity_campaign(16, 150);
  const auto result = slurmlite::run_simulation(spec, trinity());
  EXPECT_EQ(result.metrics.jobs_completed + result.metrics.jobs_timeout,
            result.metrics.jobs_total);
  EXPECT_GT(result.stats.secondary_starts, 0u);
  // Sharing happened, so the learned gate had material to work with and
  // still extracted extra throughput.
  EXPECT_GT(result.metrics.computational_efficiency, 1.0);
}

TEST(GateModes, OracleAtLeastMatchesClassRuleOnEfficiency) {
  slurmlite::SimulationSpec spec;
  spec.controller.nodes = 16;
  spec.controller.strategy = core::StrategyKind::kCoBackfill;
  spec.workload = workload::trinity_campaign(16, 150);
  spec.seed = 9;

  spec.controller.scheduler_options.co.gate_mode = core::GateMode::kOracle;
  const auto oracle = slurmlite::run_simulation(spec, trinity());
  spec.controller.scheduler_options.co.gate_mode =
      core::GateMode::kClassRule;
  const auto classes = slurmlite::run_simulation(spec, trinity());

  EXPECT_GE(oracle.metrics.computational_efficiency,
            classes.metrics.computational_efficiency * 0.98);
  // The oracle never times out; the class rule may (it cannot see
  // magnitudes), which is the point of the ablation.
  EXPECT_EQ(oracle.metrics.jobs_timeout, 0);
}

TEST(GateModeNames, Render) {
  EXPECT_STREQ(core::to_string(core::GateMode::kOracle), "oracle");
  EXPECT_STREQ(core::to_string(core::GateMode::kClassRule), "class-rule");
  EXPECT_STREQ(core::to_string(core::GateMode::kLearned), "learned");
}

}  // namespace
}  // namespace cosched
