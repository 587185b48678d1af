// R-A1 ablation: the pairing threshold theta. How picky should the
// co-allocation gate be? theta = 0 admits any non-losing pair; large theta
// forfeits sharing opportunities.
#include "bench_common.hpp"

int bench_main(const cosched::Flags& flags) {
  using namespace cosched;
  const auto env = bench::BenchEnv::from_flags(flags);
  const auto catalog = apps::Catalog::trinity();
  const std::vector<double> thetas{0.0,  0.10, 0.30, 0.43,
                                   0.50, 0.60, 0.70, 0.80};

  runner::ParallelRunner pool(env.threads);
  std::vector<slurmlite::SimulationSpec> protos;
  for (double theta : thetas) {
    slurmlite::SimulationSpec spec;
    spec.controller.nodes = env.nodes;
    spec.controller.strategy = core::StrategyKind::kCoBackfill;
    spec.controller.scheduler_options.co.pairing_threshold = theta;
    spec.workload = workload::trinity_campaign(env.nodes, env.jobs);
    protos.push_back(std::move(spec));
  }
  const auto grid = bench::sweep_grid(
      pool, protos, catalog, env,
      {[](const auto& r) { return r.metrics.scheduling_efficiency; },
       [](const auto& r) { return r.metrics.computational_efficiency; },
       [](const auto& r) {
         return static_cast<double>(r.stats.secondary_starts);
       },
       [](const auto& r) { return r.metrics.mean_dilation; },
       [](const auto& r) { return r.metrics.shared_node_s / 3600.0; }});

  Table t({"theta", "sched eff", "comp eff", "co-starts", "mean dilation",
           "shared node-h"});
  for (std::size_t i = 0; i < thetas.size(); ++i) {
    const auto& points = grid[i];
    t.row()
        .add(thetas[i], 2)
        .add(points[0].mean, 3)
        .add(points[1].mean, 3)
        .add(points[2].mean, 1)
        .add(points[3].mean, 3)
        .add(points[4].mean, 1);
  }
  bench::emit(
      t, env, "R-A1 ablation: pairing threshold theta (CoBackfill)",
      "Expected shape: flat below theta ~= 0.43, then decaying toward the "
      "EASY baseline as theta forbids more pairings (co-starts -> 0). The "
      "flat region is itself a finding: the safety cap (max dilation 1.4 "
      "per side) already implies combined throughput >= 2/1.4 ~= 1.43, so "
      "the benefit gate only binds when asked for more than the safety "
      "gate guarantees.");
  bench::finish(env, flags);
  return 0;
}
