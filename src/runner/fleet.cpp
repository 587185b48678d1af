#include "runner/fleet.hpp"

#include <iomanip>
#include <sstream>

#include "audit/fnv.hpp"
#include "slurmlite/report.hpp"
#include "util/check.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace cosched::runner {

namespace {

/// A digest as the fixed-width hex string golden files and reports pin
/// ("0x" + 16 lowercase hex digits): unambiguous for uint64 values that
/// JSON numbers (int64/double) cannot carry exactly.
std::string hex_digest(std::uint64_t digest) {
  std::ostringstream out;
  out << "0x" << std::hex << std::setfill('0') << std::setw(16) << digest;
  return out.str();
}

}  // namespace

FleetResult run_fleet(ParallelRunner& pool, const FleetSpec& fleet,
                      const apps::Catalog& catalog) {
  COSCHED_REQUIRE(fleet.cells > 0,
                  "fleet needs at least one cell, got " << fleet.cells);
  COSCHED_REQUIRE(fleet.cell.controller.registry == nullptr &&
                      fleet.cell.controller.spans == nullptr &&
                      fleet.cell.controller.tracer == nullptr,
                  "fleet owns per-cell instruments; the prototype must not "
                  "attach its own");

  const auto cells = static_cast<std::size_t>(fleet.cells);
  std::vector<std::unique_ptr<obs::Registry>> registries;
  std::vector<std::unique_ptr<obs::SpanLedger>> ledgers;
  std::vector<std::uint64_t> seeds;
  registries.reserve(cells);
  ledgers.reserve(cells);
  seeds.reserve(cells);
  for (std::size_t c = 0; c < cells; ++c) {
    registries.push_back(std::make_unique<obs::Registry>());
    ledgers.push_back(std::make_unique<obs::SpanLedger>());
    seeds.push_back(derive_seed(fleet.base_seed, c));
  }

  // Share-nothing cells: each builds its own spec, generator, and
  // instruments; results land in submission-order slots.
  std::vector<slurmlite::SimulationResult> results =
      pool.map<slurmlite::SimulationResult>(cells, [&](std::size_t c) {
        // Each cell copies the prototype before touching it, so writes
        // below mutate cell-private state only.
        // cosched-lint: cell-local(spec)
        slurmlite::SimulationSpec spec = fleet.cell;
        spec.seed = seeds[c];
        spec.hash_events = true;
        spec.controller.registry = registries[c].get();
        spec.controller.spans = ledgers[c].get();
        return slurmlite::run_simulation(spec, catalog);
      });

  FleetResult out;
  out.registry = std::make_unique<obs::Registry>();
  out.spans = std::make_unique<obs::SpanLedger>();
  audit::Fnv64 fleet_hash;
  fleet_hash.mix_u64(cells);
  // Fixed ascending cell order: the merge order contract every merged
  // fleet artifact shares, independent of which worker finished first.
  out.cells.reserve(cells);
  for (std::size_t c = 0; c < cells; ++c) {
    out.registry->merge_from(*registries[c]);
    out.spans->merge_from(*ledgers[c]);
    fleet_hash.mix_u64(results[c].event_stream_hash);
    out.cells.push_back(FleetCellResult{seeds[c], std::move(results[c])});
  }
  out.fleet_digest = fleet_hash.digest();
  return out;
}

std::string fleet_report_json(const FleetSpec& spec, const FleetResult& result,
                              const obs::RunManifest& manifest) {
  // Fleet aggregates over the per-cell golden metrics.
  std::int64_t jobs_total = 0;
  std::int64_t completed = 0;
  std::size_t events = 0;
  double max_makespan_s = 0;
  for (const FleetCellResult& cell : result.cells) {
    jobs_total += cell.result.metrics.jobs_total;
    completed += cell.result.metrics.jobs_completed;
    events += cell.result.events_executed;
    if (cell.result.metrics.makespan_s > max_makespan_s) {
      max_makespan_s = cell.result.metrics.makespan_s;
    }
  }

  JsonWriter w;
  w.begin_object();
  w.begin_object("manifest");
  obs::write_manifest_fields(w, manifest, /*include_execution=*/false);
  w.end_object();

  w.begin_object("fleet");
  w.value("cells", static_cast<std::int64_t>(spec.cells))
      .value("base_seed", static_cast<std::int64_t>(spec.base_seed))
      .value("retire", spec.cell.controller.retire_finished)
      .value("digest", hex_digest(result.fleet_digest))
      .value("jobs_total", jobs_total)
      .value("jobs_completed", completed)
      .value("events_executed", static_cast<std::int64_t>(events))
      .value("max_makespan_s", max_makespan_s);
  w.end_object();

  w.begin_array("cells");
  for (std::size_t c = 0; c < result.cells.size(); ++c) {
    const FleetCellResult& cell = result.cells[c];
    w.begin_object();
    w.value("cell", static_cast<std::int64_t>(c))
        .value("seed", static_cast<std::int64_t>(cell.seed))
        .value("digest", hex_digest(cell.result.event_stream_hash))
        .value("events",
               static_cast<std::int64_t>(cell.result.events_executed));
    w.begin_object("metrics");
    slurmlite::write_metrics_fields(w, cell.result.metrics);
    w.end_object();
    w.begin_object("stats");
    slurmlite::write_stats_fields(w, cell.result.stats,
                                  /*include_wall=*/false);
    w.end_object();
    w.end_object();
  }
  w.end_array();

  w.end_object();

  // Spans and registry render themselves as standalone documents; splice
  // them in by string (the report-shape idiom `cosched report` uses).
  std::ostringstream doc;
  std::string head = w.str();
  COSCHED_CHECK_MSG(!head.empty() && head.back() == '}',
                    "malformed fleet report head");
  head.pop_back();
  doc << head << ",\"spans\":" << result.spans->to_json()
      << ",\"registry\":" << result.registry->to_json(/*include_wall=*/false)
      << "}";
  return doc.str();
}

}  // namespace cosched::runner
