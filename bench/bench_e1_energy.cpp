// R-E1 (extension, not in the paper): energy accounting. Node sharing
// raises per-node power (all SMT threads active) but shortens the
// schedule; this bench reports machine energy and useful work per kWh for
// every strategy, quantifying whether the efficiency gains survive the
// power premium.
#include "bench_common.hpp"

int bench_main(const cosched::Flags& flags) {
  using namespace cosched;
  const auto env = bench::BenchEnv::from_flags(flags);
  const auto catalog = apps::Catalog::trinity();
  const auto strategies = core::all_strategies();

  runner::ParallelRunner pool(env.threads);
  std::vector<slurmlite::SimulationSpec> protos;
  for (auto kind : strategies) {
    slurmlite::SimulationSpec spec;
    spec.controller.nodes = env.nodes;
    spec.controller.strategy = kind;
    spec.workload = workload::trinity_campaign(env.nodes, env.jobs);
    protos.push_back(std::move(spec));
  }
  const auto grid = bench::sweep_grid(
      pool, protos, catalog, env,
      {[](const auto& r) { return r.metrics.energy_kwh; },
       [](const auto& r) { return r.metrics.work_node_h_per_kwh; }});

  Table t({"strategy", "energy (kWh)", "work/kWh (node-h)", "vs easy"});
  double easy_work_per_kwh = 0;
  for (std::size_t i = 0; i < strategies.size(); ++i) {
    const auto& points = grid[i];
    if (strategies[i] == core::StrategyKind::kEasyBackfill) {
      easy_work_per_kwh = points[1].mean;
    }
    char delta[32] = "-";
    if (easy_work_per_kwh > 0) {
      std::snprintf(delta, sizeof(delta), "%+.1f%%",
                    (points[1].mean / easy_work_per_kwh - 1.0) * 100.0);
    }
    t.row()
        .add(core::to_string(strategies[i]))
        .add(points[0].mean, 1)
        .add(points[1].mean, 3)
        .add(std::string(delta));
  }
  bench::emit(
      t, env, "R-E1 (extension): energy and work-per-energy by strategy",
      "Power model: idle 100 W, one job 220 W, shared 280 W per node. "
      "Expected shape: the co strategies spend more watts per busy node "
      "but finish the campaign sooner and waste less idle power, so work "
      "per kWh improves over their baselines. ('vs easy' compares rows "
      "after the easy row; earlier rows show '-'.)");
  bench::finish(env, flags);
  return 0;
}
