// R-F6: bounded-slowdown distribution per strategy — the fairness/
// responsiveness figure (CDF summarized at standard percentiles).
#include "bench_common.hpp"

#include "metrics/metrics.hpp"

int bench_main(const cosched::Flags& flags) {
  using namespace cosched;
  const auto env = bench::BenchEnv::from_flags(flags);
  const auto catalog = apps::Catalog::trinity();

  Table t({"strategy", "p50", "p75", "p90", "p95", "p99", "max", "mean"});
  for (auto kind : core::all_strategies()) {
    // Pool per-job slowdowns across seeds for distribution estimates.
    std::vector<double> slowdowns;
    for (int seed = 1; seed <= env.seeds; ++seed) {
      slurmlite::SimulationSpec spec;
      spec.controller.nodes = env.nodes;
      spec.controller.strategy = kind;
      spec.workload = workload::trinity_campaign(env.nodes, env.jobs);
      spec.seed = static_cast<std::uint64_t>(seed);
      const auto result = slurmlite::run_simulation(spec, catalog);
      for (const auto& job : result.jobs) {
        if (job.finished()) {
          slowdowns.push_back(metrics::bounded_slowdown(job));
        }
      }
    }
    t.row().add(core::to_string(kind));
    for (double q : {0.50, 0.75, 0.90, 0.95, 0.99}) {
      t.add(quantile(slowdowns, q), 2);
    }
    t.add(quantile(slowdowns, 1.0), 1);
    t.add(mean_of(slowdowns), 2);
  }
  bench::emit(t, env, "R-F6: bounded-slowdown distribution by strategy",
              "Bounded slowdown = max(1, turnaround / max(runtime, 10s)); "
              "pooled over " + std::to_string(env.seeds) +
                  " seeds of the Trinity campaign. Expected shape: fcfs has "
                  "the heaviest tail; the co strategies dominate their "
                  "baselines at every percentile because queued jobs start "
                  "earlier on SMT slots.");
  bench::finish(env, flags);
  return 0;
}
