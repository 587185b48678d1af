// R-A2 ablation: user walltime-estimate quality. Backfill (and the
// deadline-gated co-allocation pass) depends on walltime requests;
// this sweep varies the over-estimation factor range from clairvoyant
// (exactly 1x) to sloppy (up to 6x).
#include "bench_common.hpp"

int bench_main(const cosched::Flags& flags) {
  using namespace cosched;
  const auto env = bench::BenchEnv::from_flags(flags);
  const auto catalog = apps::Catalog::trinity();

  struct Band {
    const char* label;
    double lo, hi;
  };
  // The dilation cap (1.4) exceeds the 'clairvoyant+' floor, so that row
  // also shows the safety interlock: pairs are admitted only when the gate
  // cannot push a job past its (tight) limit.
  const Band bands[] = {{"clairvoyant (1.0-1.0)", 1.0, 1.0},
                        {"tight (1.1-1.3)", 1.1, 1.3},
                        {"default (1.5-3.0)", 1.5, 3.0},
                        {"sloppy (2.0-6.0)", 2.0, 6.0}};
  const std::vector<core::StrategyKind> strategies{
      core::StrategyKind::kEasyBackfill, core::StrategyKind::kCoBackfill};

  runner::ParallelRunner pool(env.threads);
  std::vector<slurmlite::SimulationSpec> protos;
  for (const auto& band : bands) {
    for (auto kind : strategies) {
      slurmlite::SimulationSpec spec;
      spec.controller.nodes = env.nodes;
      spec.controller.strategy = kind;
      spec.workload = workload::trinity_campaign(env.nodes, env.jobs);
      spec.workload.est_factor_min = band.lo;
      spec.workload.est_factor_max = band.hi;
      // Keep the no-overhead guarantee: cap dilation at the band floor.
      spec.controller.scheduler_options.co.max_dilation =
          std::min(1.40, band.lo);
      protos.push_back(std::move(spec));
    }
  }
  const auto grid = bench::sweep_grid(
      pool, protos, catalog, env,
      {[](const auto& r) { return r.metrics.scheduling_efficiency; },
       [](const auto& r) { return r.metrics.mean_wait_s / 60.0; },
       [](const auto& r) {
         return static_cast<double>(r.stats.secondary_starts);
       },
       [](const auto& r) {
         return static_cast<double>(r.metrics.jobs_timeout);
       }});

  Table t({"estimate band", "strategy", "sched eff", "mean wait (min)",
           "co-starts", "timeouts"});
  std::size_t p = 0;
  for (const auto& band : bands) {
    for (auto kind : strategies) {
      const auto& points = grid[p++];
      t.row()
          .add(band.label)
          .add(core::to_string(kind))
          .add(points[0].mean, 3)
          .add(points[1].mean, 1)
          .add(points[2].mean, 1)
          .add(points[3].mean, 1);
    }
  }
  bench::emit(t, env, "R-A2 ablation: walltime-estimate quality",
              "Expected shape: with clairvoyant estimates the dilation cap "
              "collapses to 1.0 and co-allocation shuts itself off (zero "
              "co-starts, zero timeouts) — the no-overhead interlock. "
              "Looser estimates admit more sharing; timeouts stay at zero "
              "in every band because the cap never exceeds the estimate "
              "floor.");
  bench::finish(env, flags);
  return 0;
}
