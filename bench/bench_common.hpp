// Shared machinery for the reproduction benches: multi-seed simulation
// sweeps with mean +/- bootstrap-CI aggregation, and uniform flag handling
// (--csv, --seeds, --nodes, --jobs, --seed, --threads).
//
// Sweeps fan their (seed, config) cells out over a runner::ParallelRunner
// (share-nothing; results collected in submission order), so aggregates
// are bit-identical for every --threads value — tests/runner_test.cpp and
// tests/golden_test.cpp enforce that. Cell seeds come from
// derive_seed(base seed, cell index) (util/rng.hpp) rather than the raw
// loop index: raw 1..n seeds are low-entropy and correlated across
// subsystem streams, while the SplitMix64 derivation decorrelates cells
// yet keeps them identical across configs, so paired-seed strategy
// comparisons stay valid.
#pragma once

#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "apps/catalog.hpp"
#include "obs/manifest.hpp"
#include "obs/process_stats.hpp"
#include "obs/profiler.hpp"
#include "obs/registry.hpp"
#include "runner/runner.hpp"
#include "slurmlite/simulation.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "workload/campaign.hpp"

namespace cosched::bench {

struct BenchEnv {
  bool csv = false;
  int seeds = 3;
  int nodes = 32;
  int jobs = 500;
  /// Worker threads for the sweep cells; 0 = hardware_concurrency.
  int threads = 0;
  /// Root of the per-cell seed derivation (--seed).
  std::uint64_t base_seed = 1;
  /// --profile: arm the wall-clock phase profiler; finish() reports it.
  bool profile = false;
  /// --metrics-json FILE: every sweep cell records into its own registry;
  /// sweep_grid merges them here and finish() writes the JSON dump.
  std::string metrics_json;
  /// Merged cell metrics (shared so env copies observe the same registry);
  /// non-null exactly when --metrics-json was given.
  std::shared_ptr<obs::Registry> registry;
  /// Run manifest stamped into the --metrics-json dump (obs/manifest.hpp).
  /// from_flags fills what the shared flags pin down; fields a bench
  /// resolves itself (strategy, workload) default to "-" until it
  /// overrides them.
  obs::RunManifest manifest;

  static BenchEnv from_flags(const Flags& flags,
                             const char* command = "bench") {
    BenchEnv env;
    env.csv = flags.get_bool("csv", false);
    env.seeds = flags.get_int_in("seeds", 3, 1);
    env.nodes = flags.get_int_in("nodes", 32, 1, kMaxNodes);
    env.jobs = flags.get_int_in("jobs", 500, 1);
    env.threads = flags.get_int_in("threads", 0, 0, runner::kMaxThreads);
    env.base_seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
    env.profile = flags.get_bool("profile", false);
    env.metrics_json = flags.get_string("metrics-json", "");
    if (!env.metrics_json.empty()) {
      env.registry = std::make_shared<obs::Registry>();
    }
    if (env.profile) {
      obs::profiler_reset();
      obs::set_profiling_enabled(true);
    }
    env.manifest.command = command;
    env.manifest.strategy = flags.get_string("strategy", "-");
    env.manifest.queue_policy = "-";
    env.manifest.workload = flags.get_string("campaign", "-");
    env.manifest.seed = env.base_seed;
    env.manifest.nodes = env.nodes;
    env.manifest.jobs = env.jobs;
    env.manifest.threads = env.threads;
    return env;
  }
};

/// Per-seed metric extractor.
using MetricFn =
    std::function<double(const slurmlite::SimulationResult&)>;

struct SweepPoint {
  double mean = 0;
  double ci_lo = 0;
  double ci_hi = 0;
};

/// Runs every (proto, seed) cell of the grid in ONE pool batch —
/// protos.size() * env.seeds independent simulations — and aggregates
/// `metrics` per proto. Cell seeds are derive_seed(env.base_seed, s) with
/// s the seed index, identical across protos (paired comparisons).
/// Returns one vector of SweepPoints (metrics.size() entries) per proto,
/// in proto order.
inline std::vector<std::vector<SweepPoint>> sweep_grid(
    runner::ParallelRunner& pool,
    const std::vector<slurmlite::SimulationSpec>& protos,
    const apps::Catalog& catalog, const BenchEnv& env,
    const std::vector<MetricFn>& metrics) {
  const auto seeds = static_cast<std::size_t>(env.seeds);
  std::vector<slurmlite::SimulationSpec> cells;
  cells.reserve(protos.size() * seeds);
  for (const auto& proto : protos) {
    for (std::size_t s = 0; s < seeds; ++s) {
      cells.push_back(proto);
      cells.back().seed = derive_seed(env.base_seed, s);
    }
  }
  // --metrics-json: a private registry per cell (share-nothing under the
  // pool), merged into env.registry after the batch drains.
  std::vector<std::unique_ptr<obs::Registry>> cell_registries;
  if (env.registry != nullptr) {
    cell_registries.reserve(cells.size());
    for (auto& cell : cells) {
      cell_registries.push_back(std::make_unique<obs::Registry>());
      cell.controller.registry = cell_registries.back().get();
    }
  }
  const auto results = runner::run_specs(pool, cells, catalog);
  for (const auto& reg : cell_registries) env.registry->merge_from(*reg);

  std::vector<std::vector<SweepPoint>> out;
  out.reserve(protos.size());
  for (std::size_t p = 0; p < protos.size(); ++p) {
    std::vector<SweepPoint> points;
    points.reserve(metrics.size());
    for (const MetricFn& metric : metrics) {
      std::vector<double> values;
      values.reserve(seeds);
      for (std::size_t s = 0; s < seeds; ++s) {
        values.push_back(metric(results[p * seeds + s]));
      }
      Pcg32 boot(0xb007);
      const auto ci = bootstrap_mean_ci(values, 0.95, boot);
      points.push_back({ci.mean, ci.lo, ci.hi});
    }
    out.push_back(std::move(points));
  }
  return out;
}

/// Runs `spec` once per seed cell and aggregates several metrics from the
/// same simulations (avoids re-simulating per metric).
inline std::vector<SweepPoint> sweep_metrics(
    runner::ParallelRunner& pool, const slurmlite::SimulationSpec& spec,
    const apps::Catalog& catalog, const BenchEnv& env,
    const std::vector<MetricFn>& metrics) {
  return sweep_grid(pool, {spec}, catalog, env, metrics).front();
}

/// Single-metric convenience wrapper over sweep_metrics.
inline SweepPoint sweep_metric(runner::ParallelRunner& pool,
                               const slurmlite::SimulationSpec& spec,
                               const apps::Catalog& catalog,
                               const BenchEnv& env, const MetricFn& metric) {
  return sweep_metrics(pool, spec, catalog, env, {metric}).front();
}

/// Formats "mean [lo, hi]" for table cells.
inline std::string fmt_ci(const SweepPoint& p, int precision = 3) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%.*f [%.*f, %.*f]", precision, p.mean,
                precision, p.ci_lo, precision, p.ci_hi);
  return buf;
}

/// Standard bench epilogue: prints the table and a provenance note.
inline void emit(const Table& table, const BenchEnv& env,
                 const std::string& title, const std::string& note) {
  if (!env.csv) {
    std::cout << "=== " << title << " ===\n";
  }
  table.print(std::cout, env.csv);
  if (!env.csv && !note.empty()) {
    std::cout << "\n" << note << "\n";
  }
}

/// Epilogue, called once before a bench exits: writes the merged
/// --metrics-json dump (manifest header + end-of-run getrusage process
/// stats + registry instruments), prints the --profile phase table, and
/// warns about every flag no getter read, as the cosched CLI does. All of
/// it goes to stderr so --csv stdout pipelines stay clean.
inline void finish(const BenchEnv& env, const Flags& flags) {
  if (env.registry != nullptr && !env.metrics_json.empty()) {
    std::ofstream out(env.metrics_json);
    if (!out.good()) {
      throw Error("cannot write '" + env.metrics_json + "'");
    }
    out << "{\"manifest\":"
        << obs::manifest_json(env.manifest, /*include_execution=*/true)
        << ",\"process\":" << obs::process_stats_json(obs::process_stats())
        << ",\"registry\":" << env.registry->to_json() << "}\n";
    std::cerr << "wrote metrics to " << env.metrics_json << "\n";
  }
  if (env.profile) {
    obs::set_profiling_enabled(false);
    const std::string report = obs::profiler_report();
    if (!report.empty()) std::cerr << report;
  }
  for (const std::string& name : flags.unused()) {
    std::cerr << "warning: unused flag --" << name << "\n";
  }
}

}  // namespace cosched::bench

/// A bench's body, defined once by each bench. The main below parses the
/// flags and turns a cosched::Error (a rejected flag value, an unreadable
/// input) into one `error:` line and exit 1, as the cosched CLI and the
/// examples do.
int bench_main(const cosched::Flags& flags);

int main(int argc, char** argv) {
  try {
    const cosched::Flags flags(argc, argv);
    return bench_main(flags);
  } catch (const cosched::Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
