#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "apps/catalog.hpp"
#include "interference/corun_model.hpp"

namespace cosched::interference {
namespace {

apps::StressVector compute_bound() {
  return {.issue = 0.90, .membw = 0.25, .cache = 0.25, .network = 0.15};
}
apps::StressVector memory_bound() {
  return {.issue = 0.35, .membw = 0.90, .cache = 0.55, .network = 0.20};
}
apps::StressVector light() {
  return {.issue = 0.20, .membw = 0.15, .cache = 0.10, .network = 0.05};
}

TEST(CorunModel, SingleJobHasNoSlowdown) {
  const CorunModel model;
  const auto sd = model.slowdowns({memory_bound()});
  ASSERT_EQ(sd.size(), 1u);
  EXPECT_DOUBLE_EQ(sd[0], 1.0);
}

TEST(CorunModel, SlowdownsNeverBelowOne) {
  const CorunModel model;
  const auto catalog = apps::Catalog::trinity();
  for (const auto& a : catalog.all()) {
    for (const auto& b : catalog.all()) {
      const auto [sa, sb] = model.pair_slowdowns(a.stress, b.stress);
      EXPECT_GE(sa, 1.0) << a.name << "+" << b.name;
      EXPECT_GE(sb, 1.0) << a.name << "+" << b.name;
    }
  }
}

TEST(CorunModel, PairIsOrderSymmetric) {
  const CorunModel model;
  const auto [pa, pb] = model.pair_slowdowns(compute_bound(), memory_bound());
  const auto [qb, qa] = model.pair_slowdowns(memory_bound(), compute_bound());
  EXPECT_DOUBLE_EQ(pa, qa);
  EXPECT_DOUBLE_EQ(pb, qb);
}

TEST(CorunModel, ComputePlusMemoryWins) {
  const CorunModel model;
  const double tput =
      model.combined_throughput(compute_bound(), memory_bound());
  EXPECT_GT(tput, 1.2);  // complementary pair: clear win
  EXPECT_LT(tput, 1.9);  // but not a free lunch
}

TEST(CorunModel, MemoryPlusMemoryLoses) {
  const CorunModel model;
  const double tput =
      model.combined_throughput(memory_bound(), memory_bound());
  EXPECT_LT(tput, 1.05);  // bandwidth saturation: sharing roughly breaks even or loses
}

TEST(CorunModel, LightJobsPairAlmostFreely) {
  const CorunModel model;
  const auto [sa, sb] = model.pair_slowdowns(light(), light());
  // Only the SMT pipeline-sharing floor applies.
  EXPECT_NEAR(sa, 1.0 + model.params().smt_base_penalty, 1e-9);
  EXPECT_NEAR(sb, 1.0 + model.params().smt_base_penalty, 1e-9);
  EXPECT_GT(model.combined_throughput(light(), light()), 1.7);
}

TEST(CorunModel, HeavierCorunnerHurtsMore) {
  const CorunModel model;
  apps::StressVector mild = memory_bound();
  mild.membw = 0.45;
  const auto [with_mild, u1] = model.pair_slowdowns(memory_bound(), mild);
  const auto [with_heavy, u2] =
      model.pair_slowdowns(memory_bound(), memory_bound());
  (void)u1;
  (void)u2;
  EXPECT_LT(with_mild, with_heavy);
}

TEST(CorunModel, CacheCouplingIncreasesSlowdown) {
  CorunParams no_cache;
  no_cache.cache_coupling = 0.0;
  const CorunModel without(no_cache);
  const CorunModel with(CorunParams{});  // default coupling
  const auto [a0, b0] = without.pair_slowdowns(memory_bound(), memory_bound());
  const auto [a1, b1] = with.pair_slowdowns(memory_bound(), memory_bound());
  EXPECT_GT(a1, a0);
  EXPECT_GT(b1, b0);
}

TEST(CorunModel, SmtIssueGainRelievesComputePairs) {
  CorunParams no_gain;
  no_gain.smt_issue_gain = 0.0;
  const CorunModel tight(no_gain);
  const CorunModel normal{CorunParams{}};
  const double t0 = tight.combined_throughput(compute_bound(), compute_bound());
  const double t1 =
      normal.combined_throughput(compute_bound(), compute_bound());
  EXPECT_GT(t1, t0);
}

TEST(CorunModel, ThreeWaySharingWorseThanTwoWay) {
  const CorunModel model;
  const auto two = model.slowdowns({memory_bound(), compute_bound()});
  const auto three =
      model.slowdowns({memory_bound(), compute_bound(), compute_bound()});
  EXPECT_GE(three[0], two[0]);
  EXPECT_GE(three[1], two[1]);
}

// slowdowns_into stages up to kMaxThreadsPerCore jobs on the stack. At
// that bound it matches the vector overload bit for bit, and both keep the
// pinned values for the eight Trinity apps on one node, so the operation
// order cannot drift.
TEST(CorunModel, SlowdownsIntoAtTheThreadBoundMatchesTheVectorOverload) {
  const CorunModel model;
  const auto catalog = apps::Catalog::trinity();
  std::vector<apps::StressVector> jobs;
  for (const auto& app : catalog.all()) jobs.push_back(app.stress);
  ASSERT_EQ(jobs.size(), static_cast<std::size_t>(kMaxThreadsPerCore));
  std::array<double, kMaxThreadsPerCore> into{};
  model.slowdowns_into(jobs, into);
  const std::vector<double> vec = model.slowdowns(jobs);
  const std::array<double, kMaxThreadsPerCore> pinned{
      0x1.d7de69ad42c3dp+3, 0x1.d7de69ad42c3dp+3, 0x1.d7de69ad42c3dp+3,
      0x1.d7de69ad42c3dp+3, 0x1.d7de69ad42c3dp+3, 0x1.4b032a2ddd959p+3,
      0x1.d7de69ad42c3dp+3, 0x1.bd7f3b645a1ccp+3};
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(into[j]),
              std::bit_cast<std::uint64_t>(vec[j]))
        << catalog.all()[j].name;
    EXPECT_EQ(into[j], pinned[j]) << catalog.all()[j].name;
  }
}

TEST(CorunModel, SlowdownsIntoRefusesMoreJobsThanThreads) {
  const CorunModel model;
  const std::vector<apps::StressVector> jobs(kMaxThreadsPerCore + 1, light());
  std::vector<double> out(jobs.size());
  EXPECT_DEATH(model.slowdowns_into(jobs, out), "kMaxThreadsPerCore");
}

TEST(CorunModel, NetworkContentionCounts) {
  apps::StressVector net{.issue = 0.3, .membw = 0.2, .cache = 0.2,
                         .network = 0.8};
  const CorunModel model;
  const auto [sa, sb] = model.pair_slowdowns(net, net);
  EXPECT_GT(sa, 1.3);  // 1.6 demand on a capacity-1.0 NIC
  EXPECT_DOUBLE_EQ(sa, sb);
}

TEST(CorunModel, RejectsInvalidParams) {
  CorunParams bad;
  bad.membw_capacity = 0.0;
  EXPECT_DEATH(CorunModel{bad}, "membw_capacity");
}

// --- Property sweep over the whole Trinity pair matrix ----------------------------

class TrinityPairProperty
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(TrinityPairProperty, PairwiseInvariants) {
  const auto catalog = apps::Catalog::trinity();
  const auto [i, j] = GetParam();
  const auto& a = catalog.get(i);
  const auto& b = catalog.get(j);
  const CorunModel model;
  const auto [sa, sb] = model.pair_slowdowns(a.stress, b.stress);

  // Dilations bounded: no pair more than ~2.6x in this calibration.
  EXPECT_GE(sa, 1.0);
  EXPECT_LE(sa, 2.6) << a.name << "+" << b.name;
  EXPECT_GE(sb, 1.0);
  EXPECT_LE(sb, 2.6) << a.name << "+" << b.name;

  // Combined throughput in the calibrated band for 2-way SMT co-location.
  const double tput = 1.0 / sa + 1.0 / sb;
  EXPECT_GT(tput, 0.75) << a.name << "+" << b.name;
  EXPECT_LT(tput, 1.90) << a.name << "+" << b.name;

  // The job leaning harder on the saturated resource dilates at least as
  // much when paired with itself as when paired with a light partner.
  const auto [self, unused] = model.pair_slowdowns(a.stress, a.stress);
  (void)unused;
  const auto [with_light, u2] = model.pair_slowdowns(a.stress, light());
  (void)u2;
  EXPECT_GE(self + 1e-9, with_light) << a.name;
}

INSTANTIATE_TEST_SUITE_P(
    AllPairs, TrinityPairProperty,
    ::testing::Combine(::testing::Range(0, 8), ::testing::Range(0, 8)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& p) {
      return "a" + std::to_string(std::get<0>(p.param)) + "_b" +
             std::to_string(std::get<1>(p.param));
    });

// Calibration acceptance (DESIGN.md): the matrix must contain both winning
// and losing pairs, with the best pair complementary (compute x memory).
TEST(CorunModel, TrinityMatrixHasWinnersAndLosers) {
  const auto catalog = apps::Catalog::trinity();
  const CorunModel model;
  double best = 0, worst = 10;
  std::string best_pair, worst_pair;
  for (const auto& a : catalog.all()) {
    for (const auto& b : catalog.all()) {
      const double t = model.combined_throughput(a.stress, b.stress);
      if (t > best) {
        best = t;
        best_pair = a.name + "+" + b.name;
      }
      if (t < worst) {
        worst = t;
        worst_pair = a.name + "+" + b.name;
      }
    }
  }
  EXPECT_GT(best, 1.35) << best_pair;
  EXPECT_LT(worst, 1.0) << worst_pair;
}

}  // namespace
}  // namespace cosched::interference
