// R-A6 ablation (extension): walltime prediction for backfill.
// Users over-request; prediction learns per-user request/actual ratios and
// lets backfill use realistic runtimes. The sweep crosses estimate quality
// with prediction on/off for EASY and CoBackfill.
#include "bench_common.hpp"

int bench_main(const cosched::Flags& flags) {
  using namespace cosched;
  const auto env = bench::BenchEnv::from_flags(flags);
  const auto catalog = apps::Catalog::trinity();

  struct Band {
    const char* label;
    double lo, hi;
  };
  const Band bands[] = {{"mild (1.5-3.0)", 1.5, 3.0},
                        {"heavy (3.0-5.0)", 3.0, 5.0}};
  const std::vector<core::StrategyKind> strategies{
      core::StrategyKind::kEasyBackfill, core::StrategyKind::kCoBackfill};

  runner::ParallelRunner pool(env.threads);
  std::vector<slurmlite::SimulationSpec> protos;
  for (const auto& band : bands) {
    for (auto kind : strategies) {
      for (bool predict : {false, true}) {
        slurmlite::SimulationSpec spec;
        spec.controller.nodes = env.nodes;
        spec.controller.strategy = kind;
        spec.controller.scheduler_options.use_walltime_prediction = predict;
        spec.workload = workload::trinity_stream(env.nodes, env.jobs, 1.1);
        spec.workload.est_factor_min = band.lo;
        spec.workload.est_factor_max = band.hi;
        protos.push_back(std::move(spec));
      }
    }
  }
  const auto grid = bench::sweep_grid(
      pool, protos, catalog, env,
      {[](const auto& r) { return r.metrics.mean_wait_s / 60.0; },
       [](const auto& r) { return r.metrics.p95_wait_s / 60.0; },
       [](const auto& r) { return r.metrics.scheduling_efficiency; },
       [](const auto& r) {
         return static_cast<double>(r.metrics.jobs_timeout);
       }});

  Table t({"estimates", "strategy", "prediction", "mean wait (min)",
           "p95 wait (min)", "sched eff", "timeouts"});
  std::size_t p = 0;
  for (const auto& band : bands) {
    for (auto kind : strategies) {
      for (bool predict : {false, true}) {
        const auto& points = grid[p++];
        t.row()
            .add(band.label)
            .add(core::to_string(kind))
            .add(predict ? "on" : "off")
            .add(points[0].mean, 1)
            .add(points[1].mean, 1)
            .add(points[2].mean, 3)
            .add(points[3].mean, 1);
      }
    }
  }
  bench::emit(t, env,
              "R-A6 ablation (extension): walltime prediction for backfill",
              "Poisson stream at rho = 1.1 (saturated: deep queues are "
              "where backfill decisions matter). Expected shape: "
              "prediction cuts mean waits under heavy over-estimation, "
              "while p95 can rise — aggressively backfilled work delays "
              "heads, the known fairness trade-off. Timeouts stay zero "
              "because reservations and kills still use the full request.");
  bench::finish(env, flags);
  return 0;
}
