// R-F3: scheduling efficiency by strategy across campaign sizes — the
// strategy-comparison figure (one series per scheduler).
#include "bench_common.hpp"

int bench_main(const cosched::Flags& flags) {
  using namespace cosched;
  const auto env = bench::BenchEnv::from_flags(flags);
  const auto catalog = apps::Catalog::trinity();
  const std::vector<int> sizes{100, 200, 400, 800};

  std::vector<std::string> header{"jobs"};
  for (auto kind : core::all_strategies()) {
    header.emplace_back(core::to_string(kind));
  }

  // All (size, strategy, seed) cells in one batch over the pool.
  runner::ParallelRunner pool(env.threads);
  std::vector<slurmlite::SimulationSpec> protos;
  for (int jobs : sizes) {
    for (auto kind : core::all_strategies()) {
      slurmlite::SimulationSpec spec;
      spec.controller.nodes = env.nodes;
      spec.controller.strategy = kind;
      spec.workload = workload::trinity_campaign(env.nodes, jobs);
      protos.push_back(std::move(spec));
    }
  }
  const auto grid = bench::sweep_grid(
      pool, protos, catalog, env,
      {[](const auto& r) { return r.metrics.scheduling_efficiency; }});

  Table t(header);
  std::size_t p = 0;
  for (int jobs : sizes) {
    t.row().add(jobs);
    for ([[maybe_unused]] auto kind : core::all_strategies()) {
      t.add(grid[p++].front().mean, 3);
    }
  }
  bench::emit(t, env,
              "R-F3: scheduling efficiency by strategy vs campaign size",
              "Trinity campaign on " + std::to_string(env.nodes) +
                  " nodes, mean over " + std::to_string(env.seeds) +
                  " seeds. Expected shape: cobackfill > easy, cofirstfit > "
                  "firstfit, fcfs worst; the co strategies exceed 1.0 "
                  "because SMT sharing packs more work than exclusive "
                  "machine-time allows.");
  bench::finish(env, flags);
  return 0;
}
