// R-F7 (extension): placement locality under a switched topology.
// Compares topology-blind (lowest-id) against compact placement on a
// fat-tree-like two-level topology, with and without node sharing —
// checking that the co-allocation gains survive locality penalties.
#include "bench_common.hpp"

int bench_main(const cosched::Flags& flags) {
  using namespace cosched;
  const auto env = bench::BenchEnv::from_flags(flags);
  const auto catalog = apps::Catalog::trinity();
  const std::vector<cluster::PlacementPolicy> placements{
      cluster::PlacementPolicy::kLowestId, cluster::PlacementPolicy::kCompact};
  const std::vector<core::StrategyKind> strategies{
      core::StrategyKind::kEasyBackfill, core::StrategyKind::kCoBackfill};

  runner::ParallelRunner pool(env.threads);
  std::vector<slurmlite::SimulationSpec> protos;
  for (auto placement : placements) {
    for (auto kind : strategies) {
      slurmlite::SimulationSpec spec;
      spec.controller.nodes = env.nodes;
      spec.controller.topology =
          cluster::TopologyParams{.switch_size = 8,
                                  .penalty_per_extra_switch = 0.05};
      spec.controller.placement = placement;
      spec.controller.strategy = kind;
      spec.workload = workload::trinity_campaign(env.nodes, env.jobs);
      protos.push_back(std::move(spec));
    }
  }
  const auto grid = bench::sweep_grid(
      pool, protos, catalog, env,
      {[](const auto& r) { return r.metrics.scheduling_efficiency; },
       [](const auto& r) { return r.metrics.mean_dilation; },
       [](const auto& r) { return r.metrics.mean_wait_s / 60.0; }});

  Table t({"placement", "strategy", "sched eff", "mean dilation",
           "mean wait (min)"});
  std::size_t p = 0;
  for (auto placement : placements) {
    for (auto kind : strategies) {
      const auto& points = grid[p++];
      t.row()
          .add(cluster::to_string(placement))
          .add(core::to_string(kind))
          .add(points[0].mean, 3)
          .add(points[1].mean, 3)
          .add(points[2].mean, 1);
    }
  }
  bench::emit(
      t, env, "R-F7 (extension): placement policy under a switched topology",
      "Two-level tree, 8 nodes per leaf switch, 5% dilation per extra "
      "switch (scaled by each app's network pressure). Expected shape: "
      "compact placement trims mean dilation for both strategies, and the "
      "co-allocation advantage persists — locality penalties and SMT "
      "sharing compose rather than cancel.");
  bench::finish(env, flags);
  return 0;
}
