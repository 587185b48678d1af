#include <gtest/gtest.h>

#include "core/walltime_predictor.hpp"
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

// --- WalltimePredictor ------------------------------------------------------------

TEST(WalltimePredictor, FallsBackUntilEnoughSamples) {
  core::WalltimePredictor p(0.3, 1.2, /*min_samples=*/3);
  EXPECT_EQ(p.predict("alice", kHour), kHour);
  p.observe("alice", kHour, 20 * kMinute);
  p.observe("alice", kHour, 20 * kMinute);
  EXPECT_EQ(p.predict("alice", kHour), kHour);  // 2 < min_samples
  p.observe("alice", kHour, 20 * kMinute);
  EXPECT_LT(p.predict("alice", kHour), kHour);  // now predicting
}

TEST(WalltimePredictor, LearnsTheRatio) {
  core::WalltimePredictor p(0.5, 1.0, 1);
  // Consistent 50% usage.
  for (int i = 0; i < 10; ++i) p.observe("bob", kHour, 30 * kMinute);
  EXPECT_NEAR(p.ratio("bob"), 0.5, 1e-9);
  EXPECT_NEAR(to_seconds(p.predict("bob", 2 * kHour)), 3600.0, 1.0);
}

TEST(WalltimePredictor, NeverExceedsRequest) {
  core::WalltimePredictor p(0.5, /*safety=*/2.0, 1);
  for (int i = 0; i < 5; ++i) p.observe("carol", kHour, 55 * kMinute);
  // ratio ~0.92, x2 safety would be 1.83 — clamped to the request.
  EXPECT_EQ(p.predict("carol", kHour), kHour);
}

TEST(WalltimePredictor, RunsPastRequestClampToOne) {
  core::WalltimePredictor p(0.5, 1.0, 1);
  p.observe("dave", kHour, 2 * kHour);  // archive artefact: ran past
  EXPECT_DOUBLE_EQ(p.ratio("dave"), 1.0);
}

TEST(WalltimePredictor, PerUserIsolation) {
  core::WalltimePredictor p(0.5, 1.0, 1);
  for (int i = 0; i < 5; ++i) p.observe("erin", kHour, 6 * kMinute);
  EXPECT_LT(p.predict("erin", kHour), 10 * kMinute);
  EXPECT_EQ(p.predict("frank", kHour), kHour);
}

TEST(WalltimePredictor, MinimumOneSecond) {
  core::WalltimePredictor p(1.0, 1.0, 1);
  p.observe("gail", kHour, 0);
  EXPECT_EQ(p.predict("gail", kHour), kSecond);
}

// --- Prediction-driven backfill, end to end ----------------------------------------

TEST(PredictiveBackfill, AdmitsMoreBackfillAfterWarmup) {
  // A single user whose jobs use ~25% of their requests. With prediction
  // on, backfill learns this and admits jobs plain EASY turns away,
  // cutting waits.
  auto run = [&](bool use_prediction) {
    slurmlite::SimulationSpec spec;
    spec.controller.nodes = 16;
    spec.controller.strategy = core::StrategyKind::kEasyBackfill;
    spec.controller.scheduler_options.use_walltime_prediction =
        use_prediction;
    spec.workload = workload::trinity_stream(16, 300, 0.9);
    spec.workload.est_factor_min = 3.5;   // heavy over-estimation
    spec.workload.est_factor_max = 4.0;
    spec.seed = 4;
    return slurmlite::run_simulation(spec, trinity());
  };
  const auto plain = run(false);
  const auto predicted = run(true);
  EXPECT_EQ(predicted.metrics.jobs_completed, 300);
  EXPECT_EQ(predicted.metrics.jobs_timeout, 0);
  EXPECT_LT(predicted.metrics.mean_wait_s, plain.metrics.mean_wait_s);
}

TEST(PredictiveBackfill, HostDefaultReturnsRawRequest) {
  cosched::testing::FakeHost host(4, trinity());
  host.add_pending(make_job(1, 1, kHour, 2 * kHour, 0));
  EXPECT_EQ(host.predicted_runtime(1), 2 * kHour);
}

// --- Checkpoint/restart ---------------------------------------------------------------

TEST(Checkpoint, RestoreShortensRerun) {
  auto run = [&](SimDuration interval) {
    sim::Engine engine;
    slurmlite::ControllerConfig config;
    config.nodes = 4;
    config.checkpoint_interval = interval;
    config.failures = {
        {.node = 0, .at = 50 * kMinute, .duration = 10 * kMinute}};
    slurmlite::Controller controller(engine, config, trinity());
    controller.submit(make_job(1, 4, kHour, 3 * kHour, 0));
    engine.run();
    return controller.job_records()[0];
  };

  const auto cold = run(0);
  const auto warm = run(10 * kMinute);
  EXPECT_EQ(cold.state, workload::JobState::kCompleted);
  EXPECT_EQ(warm.state, workload::JobState::kCompleted);
  EXPECT_EQ(cold.requeues, 1);
  EXPECT_EQ(warm.requeues, 1);
  // Cold restart redoes 50 minutes of work; warm resumes from the 50 min
  // checkpoint and only reruns the tail.
  EXPECT_LT(warm.end_time, cold.end_time);
  // Warm second attempt runs just the remaining ~10 minutes.
  EXPECT_LT(warm.end_time - warm.start_time, 15 * kMinute);
}

TEST(Checkpoint, SecondFailureKeepsEarlierCheckpoint) {
  sim::Engine engine;
  slurmlite::ControllerConfig config;
  config.nodes = 4;
  config.checkpoint_interval = 10 * kMinute;
  // The first outage hits at the 50 min checkpoint; the second hits the
  // resumed attempt 5 min in, before it reaches a checkpoint of its own.
  config.failures = {
      {.node = 0, .at = 50 * kMinute, .duration = 10 * kMinute},
      {.node = 1, .at = 65 * kMinute, .duration = 10 * kMinute}};
  slurmlite::Controller controller(engine, config, trinity());
  controller.submit(make_job(1, 4, kHour, 3 * kHour, 0));
  engine.run();
  const auto r = controller.job_records()[0];
  EXPECT_EQ(r.state, workload::JobState::kCompleted);
  EXPECT_EQ(r.requeues, 2);
  // The last attempt starts when node 1 returns at 75 min and still owns
  // the 50 min checkpoint: it runs the remaining 10 min, not the full hour.
  EXPECT_EQ(r.start_time, 75 * kMinute);
  EXPECT_EQ(r.end_time, 85 * kMinute);
}

TEST(Checkpoint, ExactMultipleLosesNothing) {
  sim::Engine engine;
  slurmlite::ControllerConfig config;
  config.nodes = 2;
  config.checkpoint_interval = 25 * kMinute;
  config.failures = {
      {.node = 0, .at = 50 * kMinute, .duration = 5 * kMinute}};
  slurmlite::Controller controller(engine, config, trinity());
  controller.submit(make_job(1, 2, kHour, 3 * kHour, 0));
  engine.run();
  const auto r = controller.job_records()[0];
  EXPECT_EQ(r.state, workload::JobState::kCompleted);
  // Failure at exactly the 50 min checkpoint: only the final 10 minutes
  // remain after the node returns at 55 min.
  EXPECT_EQ(r.end_time - r.start_time, 10 * kMinute);
}

// --- Diurnal arrivals -------------------------------------------------------------------

TEST(DiurnalArrivals, ModulationShiftsMassTowardDaytime) {
  workload::GeneratorParams params;
  params.arrival = workload::ArrivalMode::kStream;
  params.job_count = 4000;
  params.machine_nodes = 32;
  params.offered_load = 0.8;
  params.diurnal_amplitude = 0.8;
  const workload::Generator gen(params, trinity());
  Pcg32 rng(77);
  const auto jobs = gen.generate(rng);
  std::size_t day = 0, night = 0;
  for (const auto& job : jobs) {
    const SimTime tod = job.submit_time % kDay;
    const bool daytime = tod >= 6 * kHour && tod < 18 * kHour;
    (daytime ? day : night) += 1;
  }
  // Daytime (centred on the peak) should clearly dominate.
  EXPECT_GT(day, night * 2);
}

TEST(DiurnalArrivals, ZeroAmplitudeIsStationary) {
  workload::GeneratorParams params;
  params.arrival = workload::ArrivalMode::kStream;
  params.job_count = 4000;
  params.machine_nodes = 32;
  params.diurnal_amplitude = 0.0;
  const workload::Generator gen(params, trinity());
  Pcg32 rng(78);
  const auto jobs = gen.generate(rng);
  std::size_t day = 0, night = 0;
  for (const auto& job : jobs) {
    const SimTime tod = job.submit_time % kDay;
    (tod >= 6 * kHour && tod < 18 * kHour ? day : night) += 1;
  }
  EXPECT_NEAR(static_cast<double>(day) / static_cast<double>(day + night),
              0.5, 0.05);
}

TEST(DiurnalArrivals, RejectsBadAmplitude) {
  workload::GeneratorParams params;
  params.diurnal_amplitude = 1.5;
  EXPECT_THROW(workload::Generator(params, trinity()), Error);
}

}  // namespace
}  // namespace cosched
