// R-A5 ablation (deployment realism): what the co-allocation gate may know.
//
//   oracle     — offline-profiled stress vectors (the simulator's ground
//                truth): the upper bound the paper's evaluation enjoys.
//   class-rule — admit exactly compute x non-compute pairings; deployable
//                day one, but blind to magnitudes.
//   learned    — runtime-observed pair history (EWMA of dilations),
//                class-rule fallback for unseen pairs.
//
// This is the bridge the repro band flags ("faithful eval needs cluster"):
// it quantifies how much of the oracle gate's benefit survives when the
// scheduler can only learn from the runtimes a real cluster would give it.
#include "bench_common.hpp"

int bench_main(const cosched::Flags& flags) {
  using namespace cosched;
  const auto env = bench::BenchEnv::from_flags(flags);
  const auto catalog = apps::Catalog::trinity();
  const std::vector<core::GateMode> modes{core::GateMode::kOracle,
                                          core::GateMode::kClassRule,
                                          core::GateMode::kLearned};

  runner::ParallelRunner pool(env.threads);
  std::vector<slurmlite::SimulationSpec> protos;
  for (core::GateMode mode : modes) {
    slurmlite::SimulationSpec spec;
    spec.controller.nodes = env.nodes;
    spec.controller.strategy = core::StrategyKind::kCoBackfill;
    spec.controller.scheduler_options.co.gate_mode = mode;
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
       [](const auto& r) {
         return static_cast<double>(r.metrics.jobs_timeout);
       },
       [](const auto& r) { return r.metrics.lost_work_node_s / 3600.0; }});

  Table t({"gate", "sched eff", "comp eff", "co-starts", "timeouts",
           "lost work (node-h)"});
  for (std::size_t i = 0; i < modes.size(); ++i) {
    const auto& points = grid[i];
    t.row()
        .add(core::to_string(modes[i]))
        .add(points[0].mean, 3)
        .add(points[1].mean, 3)
        .add(points[2].mean, 1)
        .add(points[3].mean, 1)
        .add(points[4].mean, 1);
  }
  bench::emit(
      t, env, "R-A5 ablation: gate knowledge (oracle / class rule / learned)",
      "Expected shape: oracle best; class-rule captures a large share of "
      "the gain but, lacking dilation prediction, may admit pairs that "
      "push jobs past tight walltimes (timeouts/lost work > 0); learned "
      "sits between them and converges toward oracle as the campaign "
      "progresses and pair history accumulates.");
  bench::finish(env, flags);
  return 0;
}
