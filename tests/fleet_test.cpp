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

runner::FleetSpec small_fleet(int cells) {
  runner::FleetSpec fleet;
  fleet.cells = cells;
  fleet.base_seed = 7;
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
  const runner::FleetSpec fleet = small_fleet(cells);
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
  const runner::FleetSpec fleet = small_fleet(4);
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

// A cell is run_simulation under its derived seed: the same pulled job
// sequence, event stream and digest as a standalone run.
TEST(Fleet, CellsMatchStandaloneRuns) {
  runner::ParallelRunner pool(2);
  const runner::FleetSpec fleet = small_fleet(4);
  const auto result = runner::run_fleet(pool, fleet, trinity());

  ASSERT_EQ(result.cells.size(), 4u);
  for (const runner::FleetCellResult& cell : result.cells) {
    slurmlite::SimulationSpec spec = fleet.cell;
    spec.seed = cell.seed;
    spec.hash_events = true;
    const auto alone = slurmlite::run_simulation(spec, trinity());
    EXPECT_EQ(cell.result.event_stream_hash, alone.event_stream_hash);
    EXPECT_EQ(cell.result.events_executed, alone.events_executed);
    EXPECT_EQ(cell.result.metrics.makespan_s, alone.metrics.makespan_s);
    EXPECT_EQ(cell.result.metrics.mean_wait_s, alone.metrics.mean_wait_s);
  }
}

// --- Merged artifacts --------------------------------------------------------

TEST(Fleet, MergesRegistriesAndSpansAcrossCells) {
  runner::ParallelRunner pool(2);
  const auto result = runner::run_fleet(pool, small_fleet(3), trinity());
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
  runner::FleetSpec fleet = small_fleet(2);
  fleet.cell.controller.registry = &registry;
  EXPECT_THROW(runner::run_fleet(pool, fleet, trinity()), Error);
}

TEST(Fleet, RejectsNonPositiveCellCount) {
  runner::ParallelRunner pool(1);
  runner::FleetSpec fleet = small_fleet(1);
  fleet.cells = 0;
  EXPECT_THROW(runner::run_fleet(pool, fleet, trinity()), Error);
}

}  // namespace
}  // namespace cosched
