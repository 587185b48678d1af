// R-A3 ablation: SMT (oversubscription) degree. 2-way is the paper's
// hyper-threading setting; 1-way disables sharing entirely and 4-way
// explores deeper oversubscription as a future-work direction.
#include "bench_common.hpp"

int bench_main(const cosched::Flags& flags) {
  using namespace cosched;
  const auto env = bench::BenchEnv::from_flags(flags);
  const auto catalog = apps::Catalog::trinity();

  struct Point {
    int smt;
    double cap;
  };
  // The 1.8-cap rows ask "is deeper SMT blocked by physics or by the
  // safety gate?" — they trade the no-overhead guarantee for insight, so
  // the workload's estimate floor (1.5) no longer covers the cap and a few
  // timeouts may appear.
  const std::vector<Point> grid_points{Point{1, 1.4}, Point{2, 1.4},
                                       Point{4, 1.4}, Point{2, 1.8},
                                       Point{4, 1.8}};

  runner::ParallelRunner pool(env.threads);
  std::vector<slurmlite::SimulationSpec> protos;
  for (const Point& p : grid_points) {
    slurmlite::SimulationSpec spec;
    spec.controller.nodes = env.nodes;
    spec.controller.node_config.smt_per_core = p.smt;
    spec.controller.strategy = core::StrategyKind::kCoBackfill;
    spec.controller.scheduler_options.co.max_dilation = p.cap;
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
       [](const auto& r) {
         return static_cast<double>(r.metrics.jobs_timeout);
       }});

  Table t({"SMT degree", "dilation cap", "sched eff", "comp eff",
           "co-starts", "mean dilation", "timeouts"});
  for (std::size_t i = 0; i < grid_points.size(); ++i) {
    const auto& points = grid[i];
    t.row()
        .add(grid_points[i].smt)
        .add(grid_points[i].cap, 1)
        .add(points[0].mean, 3)
        .add(points[1].mean, 3)
        .add(points[2].mean, 1)
        .add(points[3].mean, 3)
        .add(points[4].mean, 1);
  }
  bench::emit(t, env, "R-A3 ablation: oversubscription (SMT) degree",
              "Expected shape: degree 1 equals the EASY baseline (sharing "
              "impossible); degree 2 gives the paper's gains. Under the "
              "default 1.4 cap, degree 4 adds nothing — every 3+-way "
              "bundle is rejected because contention grows faster than "
              "issue capacity. Relaxing the cap to 1.8 shows how much "
              "sharing the safety gate was holding back, and at what cost "
              "(dilation, possible timeouts).");
  bench::finish(env, flags);
  return 0;
}
