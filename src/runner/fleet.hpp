// Sharded multi-cluster fleet harness.
//
// A fleet run simulates N independent clusters ("cells") of the same
// configuration, each with its own seed derived by derive_seed(base_seed,
// cell) — the same SplitMix64 derivation the bench sweeps use, so cell
// workloads are decorrelated yet reproducible. Cells are share-nothing:
// each gets a private Registry and SpanLedger, fans out over a
// ParallelRunner, and is collected in submission order; the merged
// artifacts are folded in ascending cell order afterwards. Together with
// the per-cell determinism contract this makes the merged fleet report
// byte-identical for every --threads value (tests/fleet_test.cpp pins
// threads {1,2,8} x cells {1,4,16}).
//
// Every cell pulls its generated workload lazily and retires its jobs as
// they finish; with SimulationSpec.controller.retire_finished set
// (cosched fleet and bench_a9_fleet set it) the retired records are
// dropped, so a fleet of million-job cells runs in flat memory per cell.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "apps/catalog.hpp"
#include "obs/manifest.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "runner/runner.hpp"
#include "slurmlite/simulation.hpp"

namespace cosched::runner {

struct FleetSpec {
  /// Per-cell prototype. Its seed is overwritten per cell and hash_events
  /// is forced on (per-cell digests feed the fleet digest).
  slurmlite::SimulationSpec cell;
  /// Root of the per-cell seed derivation: cell c runs with
  /// derive_seed(base_seed, c).
  std::uint64_t base_seed = 1;
  int cells = 1;
};

struct FleetCellResult {
  std::uint64_t seed = 0;
  slurmlite::SimulationResult result;
};

struct FleetResult {
  /// Per-cell results in cell order (submission order == merge order).
  std::vector<FleetCellResult> cells;
  /// Cell registries/ledgers merged in ascending cell order. Owned by
  /// pointer: both types are deliberately non-copyable/non-movable.
  std::unique_ptr<obs::Registry> registry;
  std::unique_ptr<obs::SpanLedger> spans;
  /// FNV-1a fold of (cell count, each cell's event-stream digest in cell
  /// order): one value that pins the entire fleet's decision history.
  std::uint64_t fleet_digest = 0;
};

/// Runs the fleet over `pool`. Deterministic: the returned results,
/// merged artifacts, and fleet digest are identical for every pool size.
FleetResult run_fleet(ParallelRunner& pool, const FleetSpec& spec,
                      const apps::Catalog& catalog);

/// The merged fleet report as one byte-deterministic JSON document:
/// manifest (decision identity only — no execution block), per-cell
/// seed/digest/metrics/stats rows in cell order, fleet aggregate, merged
/// span ledger, merged registry (wall-clock instruments dropped). Safe to
/// byte-compare across thread counts and repeated runs.
std::string fleet_report_json(const FleetSpec& spec, const FleetResult& result,
                              const obs::RunManifest& manifest);

}  // namespace cosched::runner
