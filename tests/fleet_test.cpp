// Fleet harness contract (runner/fleet.hpp): a fleet of share-nothing
// cells fanned over the runner pool must produce a merged report that is
// byte-identical at every thread count, per-cell digests that depend only
// on the derived seed, and a prototype-validation surface that rejects
// configurations run_fleet cannot honor.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>

#include "obs/manifest.hpp"
#include "runner/fleet.hpp"
#include "runner/runner.hpp"
#include "workload/campaign.hpp"

namespace cosched {
namespace {

const apps::Catalog& trinity() {
  static const apps::Catalog catalog = apps::Catalog::trinity();
  return catalog;
}

runner::FleetSpec small_fleet(int cells, bool stream) {
  runner::FleetSpec fleet;
  fleet.cells = cells;
  fleet.base_seed = 7;
  fleet.stream = stream;
  fleet.cell.controller.nodes = 8;
  fleet.cell.controller.strategy = core::StrategyKind::kCoBackfill;
  fleet.cell.workload = workload::trinity_stream(8, 60, 0.9);
  fleet.cell.audit = slurmlite::AuditMode::kOff;
  return fleet;
}

obs::RunManifest test_manifest() {
  obs::RunManifest manifest;
  manifest.tool = "fleet_test";
  manifest.strategy = "cobackfill";
  manifest.workload = "trinity-stream";
  return manifest;
}

// --- Byte-determinism across thread counts -----------------------------------

class FleetParity
    : public ::testing::TestWithParam<std::tuple<int, int>> {};  // threads, cells

TEST_P(FleetParity, MergedReportIsByteIdenticalToSerialReference) {
  const auto [threads, cells] = GetParam();
  const runner::FleetSpec fleet = small_fleet(cells, /*stream=*/true);
  const obs::RunManifest manifest = test_manifest();

  runner::ParallelRunner serial(1);
  const auto reference = runner::run_fleet(serial, fleet, trinity());
  const std::string reference_report =
      runner::fleet_report_json(fleet, reference, manifest);

  runner::ParallelRunner pool(threads);
  const auto result = runner::run_fleet(pool, fleet, trinity());
  const std::string report =
      runner::fleet_report_json(fleet, result, manifest);

  ASSERT_NE(reference.fleet_digest, 0u);
  EXPECT_EQ(result.fleet_digest, reference.fleet_digest);
  EXPECT_EQ(report, reference_report);
  ASSERT_EQ(result.cells.size(), static_cast<std::size_t>(cells));
  for (std::size_t c = 0; c < result.cells.size(); ++c) {
    EXPECT_EQ(result.cells[c].seed, reference.cells[c].seed);
    EXPECT_EQ(result.cells[c].result.event_stream_hash,
              reference.cells[c].result.event_stream_hash);
  }
}

std::string fleet_name(
    const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
  return "t" + std::to_string(std::get<0>(info.param)) + "_c" +
         std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(ThreadsByCells, FleetParity,
                         ::testing::Combine(::testing::Values(1, 2, 8),
                                            ::testing::Values(1, 4, 16)),
                         fleet_name);

// --- Retire-mode cells -------------------------------------------------------

// Retiring cells free job records as they finish; the per-cell event
// streams — and therefore the fleet digest — must not change.
TEST(Fleet, RetiringCellsKeepTheFleetDigest) {
  const runner::FleetSpec fleet = small_fleet(4, /*stream=*/true);
  runner::FleetSpec retiring = fleet;
  retiring.cell.controller.retire_finished = true;

  runner::ParallelRunner pool(2);
  const auto base = runner::run_fleet(pool, fleet, trinity());
  const auto retired = runner::run_fleet(pool, retiring, trinity());

  EXPECT_EQ(retired.fleet_digest, base.fleet_digest);
  for (std::size_t c = 0; c < base.cells.size(); ++c) {
    EXPECT_EQ(retired.cells[c].result.event_stream_hash,
              base.cells[c].result.event_stream_hash);
    EXPECT_TRUE(retired.cells[c].result.jobs.empty());
    EXPECT_EQ(retired.cells[c].result.metrics.makespan_s,
              base.cells[c].result.metrics.makespan_s);
  }
}

// Streaming and materialized ingestion see the same job sequence (same
// generator, same rng stream), so the schedule agrees; event ids differ,
// so digests are expected to differ and are not compared.
TEST(Fleet, StreamingCellsMatchMaterializedSchedules) {
  runner::ParallelRunner pool(2);
  const auto streamed =
      runner::run_fleet(pool, small_fleet(4, /*stream=*/true), trinity());
  const auto materialized =
      runner::run_fleet(pool, small_fleet(4, /*stream=*/false), trinity());

  ASSERT_EQ(streamed.cells.size(), materialized.cells.size());
  for (std::size_t c = 0; c < streamed.cells.size(); ++c) {
    const auto& s = streamed.cells[c].result.metrics;
    const auto& m = materialized.cells[c].result.metrics;
    EXPECT_EQ(streamed.cells[c].seed, materialized.cells[c].seed);
    EXPECT_EQ(s.jobs_total, m.jobs_total);
    EXPECT_EQ(s.jobs_completed, m.jobs_completed);
    EXPECT_EQ(s.makespan_s, m.makespan_s);
    EXPECT_EQ(s.mean_wait_s, m.mean_wait_s);
  }
}

// --- Merged artifacts --------------------------------------------------------

TEST(Fleet, MergesRegistriesAndSpansAcrossCells) {
  runner::ParallelRunner pool(2);
  const auto result =
      runner::run_fleet(pool, small_fleet(3, /*stream=*/true), trinity());
  ASSERT_NE(result.registry, nullptr);
  ASSERT_NE(result.spans, nullptr);
  // Every cell submits 60 jobs; the merged ledger carries all of them.
  EXPECT_EQ(result.spans->submitted(), 3u * 60u);
  EXPECT_EQ(result.spans->ended(), 3u * 60u);
  EXPECT_EQ(result.spans->open(), 0u);
}

// --- Prototype validation ----------------------------------------------------

TEST(Fleet, RejectsPrototypeWithInstruments) {
  runner::ParallelRunner pool(1);
  obs::Registry registry;
  runner::FleetSpec fleet = small_fleet(2, /*stream=*/false);
  fleet.cell.controller.registry = &registry;
  EXPECT_THROW(runner::run_fleet(pool, fleet, trinity()), Error);
}

TEST(Fleet, RejectsNonPositiveCellCount) {
  runner::ParallelRunner pool(1);
  runner::FleetSpec fleet = small_fleet(1, /*stream=*/false);
  fleet.cells = 0;
  EXPECT_THROW(runner::run_fleet(pool, fleet, trinity()), Error);
}

}  // namespace
}  // namespace cosched
