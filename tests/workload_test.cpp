#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <string>

#include "workload/campaign.hpp"
#include "workload/generator.hpp"

namespace cosched::workload {
namespace {

const apps::Catalog& trinity() {
  static const apps::Catalog c = apps::Catalog::trinity();
  return c;
}

GeneratorParams small_params() {
  GeneratorParams p;
  p.job_count = 200;
  p.machine_nodes = 32;
  return p;
}

TEST(Job, DerivedQuantities) {
  Job j;
  j.nodes = 4;
  j.base_runtime = 30 * kMinute;
  j.submit_time = 10 * kSecond;
  j.start_time = 70 * kSecond;
  j.end_time = 70 * kSecond + 30 * kMinute;
  j.state = JobState::kCompleted;
  EXPECT_DOUBLE_EQ(j.work_node_seconds(), 4 * 1800.0);
  EXPECT_EQ(j.wait_time(), 60 * kSecond);
  EXPECT_EQ(j.turnaround(), 60 * kSecond + 30 * kMinute);
  EXPECT_TRUE(j.finished());
}

TEST(Job, UnstartedJobHasNoWait) {
  Job j;
  EXPECT_EQ(j.wait_time(), -1);
  EXPECT_EQ(j.turnaround(), -1);
  EXPECT_FALSE(j.finished());
}

TEST(Job, StateNames) {
  EXPECT_STREQ(to_string(JobState::kPending), "PENDING");
  EXPECT_STREQ(to_string(JobState::kRunning), "RUNNING");
  EXPECT_STREQ(to_string(JobState::kCompleted), "COMPLETED");
  EXPECT_STREQ(to_string(JobState::kTimeout), "TIMEOUT");
  EXPECT_STREQ(to_string(JobState::kCancelled), "CANCELLED");
}

TEST(Generator, DeterministicForSeed) {
  const Generator gen(small_params(), trinity());
  Pcg32 rng1(99), rng2(99);
  const auto a = gen.generate(rng1);
  const auto b = gen.generate(rng2);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].submit_time, b[i].submit_time);
    EXPECT_EQ(a[i].base_runtime, b[i].base_runtime);
    EXPECT_EQ(a[i].nodes, b[i].nodes);
    EXPECT_EQ(a[i].app, b[i].app);
  }
}

TEST(Generator, SeedsProduceDifferentWorkloads) {
  const Generator gen(small_params(), trinity());
  Pcg32 rng1(1), rng2(2);
  const auto a = gen.generate(rng1);
  const auto b = gen.generate(rng2);
  int differing = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    differing += (a[i].base_runtime != b[i].base_runtime) ? 1 : 0;
  }
  EXPECT_GT(differing, 150);
}

TEST(Generator, JobFieldsWellFormed) {
  const Generator gen(small_params(), trinity());
  Pcg32 rng(5);
  for (const auto& job : gen.generate(rng)) {
    EXPECT_GT(job.id, 0);
    EXPECT_GT(job.nodes, 0);
    EXPECT_LE(job.nodes, 16);  // default size mix tops out at 16
    EXPECT_GE(job.submit_time, 0);
    EXPECT_GT(job.base_runtime, 0);
    EXPECT_GE(job.walltime_limit, job.base_runtime);  // factors >= 1
    EXPECT_GE(job.app, 0);
    EXPECT_LT(job.app, trinity().size());
    EXPECT_EQ(job.state, JobState::kPending);
    // Walltime rounded to whole minutes.
    EXPECT_EQ(job.walltime_limit % kMinute, 0);
  }
}

TEST(Generator, EstimateFactorsRespectBounds) {
  GeneratorParams p = small_params();
  p.est_factor_min = 2.0;
  p.est_factor_max = 2.5;
  const Generator gen(p, trinity());
  Pcg32 rng(6);
  for (const auto& job : gen.generate(rng)) {
    const double factor = static_cast<double>(job.walltime_limit) /
                          static_cast<double>(job.base_runtime);
    EXPECT_GE(factor, 2.0 - 1e-9);
    // Rounding up to a minute can push the factor slightly past max.
    EXPECT_LE(factor, 2.5 + 60.0 / to_seconds(job.base_runtime) + 1e-9);
  }
}

TEST(Generator, CampaignSubmitsInBurst) {
  const Generator gen(small_params(), trinity());
  Pcg32 rng(7);
  const auto jobs = gen.generate(rng);
  // All submits within the first second (millisecond stagger).
  EXPECT_LT(jobs.back().submit_time, kSecond);
  // Strictly increasing for deterministic ordering.
  for (std::size_t i = 1; i < jobs.size(); ++i) {
    EXPECT_GT(jobs[i].submit_time, jobs[i - 1].submit_time);
  }
}

TEST(Generator, StreamArrivalsMatchOfferedLoad) {
  GeneratorParams p = small_params();
  p.arrival = ArrivalMode::kStream;
  p.offered_load = 1.0;
  p.job_count = 2000;
  const Generator gen(p, trinity());
  Pcg32 rng(8);
  const auto jobs = gen.generate(rng);
  // Offered work per second over the span should be near nodes * rho.
  double total_work = 0;
  for (const auto& job : jobs) total_work += job.work_node_seconds();
  const double span = to_seconds(jobs.back().submit_time);
  const double offered = total_work / span;
  // Runtimes pass through per-app scaling curves, so allow a generous
  // band around nodes * rho = 32.
  EXPECT_GT(offered, 20.0);
  EXPECT_LT(offered, 45.0);
}

void expect_same_jobs(const JobList& streamed, const JobList& batch) {
  ASSERT_EQ(streamed.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(streamed[i].id, batch[i].id);
    EXPECT_EQ(streamed[i].user, batch[i].user);
    EXPECT_EQ(streamed[i].app, batch[i].app);
    EXPECT_EQ(streamed[i].nodes, batch[i].nodes);
    EXPECT_EQ(streamed[i].submit_time, batch[i].submit_time);
    EXPECT_EQ(streamed[i].base_runtime, batch[i].base_runtime);
    EXPECT_EQ(streamed[i].walltime_limit, batch[i].walltime_limit);
    EXPECT_EQ(streamed[i].shareable, batch[i].shareable);
  }
}

JobList drain(JobSource& source) {
  JobList jobs;
  while (auto job = source.next()) jobs.push_back(*job);
  return jobs;
}

TEST(Generator, StreamingSourceMatchesBatchCampaign) {
  const Generator gen(small_params(), trinity());
  Pcg32 rng(7);
  const auto batch = gen.generate(rng);
  GeneratorJobSource source(gen, Pcg32(7));
  expect_same_jobs(drain(source), batch);
}

TEST(Generator, StreamingSourceMatchesBatchStream) {
  GeneratorParams p = small_params();
  p.arrival = ArrivalMode::kStream;
  p.offered_load = 0.8;
  p.diurnal_amplitude = 0.3;  // exercises the thinned-Poisson draw loop
  p.job_count = 500;
  const Generator gen(p, trinity());
  Pcg32 rng(11);
  const auto batch = gen.generate(rng);
  GeneratorJobSource source(gen, Pcg32(11));
  expect_same_jobs(drain(source), batch);
}

TEST(Generator, AppWeightsRespected) {
  GeneratorParams p = small_params();
  p.app_weights = {1, 0, 0, 0, 0, 0, 0, 0};  // only miniFE
  p.job_count = 100;
  const Generator gen(p, trinity());
  Pcg32 rng(9);
  for (const auto& job : gen.generate(rng)) {
    EXPECT_EQ(job.app, trinity().by_name("miniFE").id);
  }
}

TEST(Generator, ShareableProbabilityZero) {
  GeneratorParams p = small_params();
  p.shareable_prob = 0.0;
  const Generator gen(p, trinity());
  Pcg32 rng(10);
  for (const auto& job : gen.generate(rng)) {
    EXPECT_FALSE(job.shareable);
  }
}

TEST(Generator, RejectsBadParams) {
  GeneratorParams p = small_params();
  p.job_count = 0;
  EXPECT_THROW(Generator(p, trinity()), Error);

  p = small_params();
  p.est_factor_min = 0.5;
  EXPECT_THROW(Generator(p, trinity()), Error);

  p = small_params();
  p.app_weights = {1.0};  // size mismatch
  EXPECT_THROW(Generator(p, trinity()), Error);

  p = small_params();
  p.size_mix.clear();
  EXPECT_THROW(Generator(p, trinity()), Error);
}

TEST(Generator, RejectsNonFiniteOfferedLoad) {
  GeneratorParams p = trinity_stream(32, 20, 1.0);
  p.offered_load = std::numeric_limits<double>::infinity();
  EXPECT_THROW(Generator(p, trinity()), Error);
  p.offered_load = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(Generator(p, trinity()), Error);
}

TEST(Generator, StreamArrivalBeyondLimitNamesTheJob) {
  // Load 1e-12 spaces arrivals ~1e15 s apart, far past what a SimTime can
  // hold; the first job already fails, on both generation paths.
  const Generator gen(trinity_stream(32, 20, 1e-12), trinity());
  const std::string prefix = "generated job 1 arrives at ";
  const std::string suffix = " s, beyond the limit of " +
                             std::to_string(kMaxInputSeconds) + " s";
  const auto expect_rejected = [&](auto&& run) {
    try {
      run();
      ADD_FAILURE() << "no error";
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_EQ(what.rfind(prefix, 0), 0u) << what;
      EXPECT_TRUE(what.ends_with(suffix)) << what;
    }
  };
  expect_rejected([&] {
    Pcg32 rng(3);
    (void)gen.generate(rng);
  });
  expect_rejected([&] {
    GeneratorJobSource source(gen, Pcg32(3));
    (void)source.next();
  });
}

TEST(Campaign, TrinityCapsSizesAtMachine) {
  const auto p = trinity_campaign(/*machine_nodes=*/4, /*job_count=*/50);
  for (const auto& [nodes, weight] : p.size_mix) {
    (void)weight;
    EXPECT_LE(nodes, 4);
  }
  const Generator gen(p, trinity());
  Pcg32 rng(11);
  for (const auto& job : gen.generate(rng)) {
    EXPECT_LE(job.nodes, 4);
  }
}

TEST(Campaign, MemoryBoundMixOnlyDrawsMemoryApps) {
  const auto p = memory_bound_campaign(32, 100);
  const Generator gen(p, trinity());
  Pcg32 rng(12);
  const std::set<std::string> allowed{"miniFE", "AMG", "SNAP", "MILC"};
  for (const auto& job : gen.generate(rng)) {
    EXPECT_TRUE(allowed.count(trinity().get(job.app).name))
        << trinity().get(job.app).name;
  }
}

TEST(Campaign, ComputeBoundMixAvoidsMemoryApps) {
  const auto p = compute_bound_campaign(32, 100);
  const Generator gen(p, trinity());
  Pcg32 rng(13);
  const std::set<std::string> banned{"miniFE", "AMG", "SNAP", "MILC"};
  for (const auto& job : gen.generate(rng)) {
    EXPECT_FALSE(banned.count(trinity().get(job.app).name));
  }
}

TEST(Campaign, StreamVariantSetsLoad) {
  const auto p = trinity_stream(32, 100, 0.8);
  EXPECT_EQ(p.arrival, ArrivalMode::kStream);
  EXPECT_DOUBLE_EQ(p.offered_load, 0.8);
  EXPECT_EQ(p.machine_nodes, 32);
}

}  // namespace
}  // namespace cosched::workload
