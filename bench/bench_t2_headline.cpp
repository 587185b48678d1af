// R-T2: the headline result — standard (exclusive) node allocation vs the
// node-sharing strategies on the Trinity campaign. The paper reports, for
// its co-allocation strategies vs standard allocation:
//   * no overhead from co-allocation (zero induced timeouts),
//   * +19%   computational efficiency,
//   * +25.2% scheduling efficiency.
// This bench regenerates those three rows (shape, not exact values).
#include "bench_common.hpp"

int bench_main(const cosched::Flags& flags) {
  using namespace cosched;
  const auto env = bench::BenchEnv::from_flags(flags);
  const auto catalog = apps::Catalog::trinity();

  slurmlite::SimulationSpec spec;
  spec.controller.nodes = env.nodes;
  spec.workload = workload::trinity_campaign(env.nodes, env.jobs);

  struct Row {
    const char* label;
    core::StrategyKind standard;
    core::StrategyKind sharing;
  };
  const Row rows[] = {
      {"backfill (EASY -> CoBackfill)", core::StrategyKind::kEasyBackfill,
       core::StrategyKind::kCoBackfill},
      {"first fit (FirstFit -> CoFirstFit)", core::StrategyKind::kFirstFit,
       core::StrategyKind::kCoFirstFit},
  };

  // One batch: (standard, sharing) per row, each swept over all seeds.
  runner::ParallelRunner pool(env.threads);
  std::vector<slurmlite::SimulationSpec> protos;
  for (const auto& row : rows) {
    auto s = spec;
    s.controller.strategy = row.standard;
    protos.push_back(s);
    s.controller.strategy = row.sharing;
    protos.push_back(s);
  }
  const std::vector<bench::MetricFn> metrics{
      [](const auto& r) { return r.metrics.computational_efficiency; },
      [](const auto& r) { return r.metrics.scheduling_efficiency; },
      [](const auto& r) {
        return static_cast<double>(r.metrics.jobs_timeout);
      }};
  const auto grid = bench::sweep_grid(pool, protos, catalog, env, metrics);

  Table t({"strategy pair", "metric", "standard", "node sharing",
           "improvement", "paper"});
  std::size_t p = 0;
  for (const auto& row : rows) {
    const auto& base = grid[p++];
    const auto& co = grid[p++];
    const auto &ce_base = base[0], &ce_co = co[0];
    const auto &se_base = base[1], &se_co = co[1];
    const auto &to_base = base[2], &to_co = co[2];

    auto pct = [](const bench::SweepPoint& lhs, const bench::SweepPoint& rhs) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%+.1f%%",
                    (rhs.mean / lhs.mean - 1.0) * 100.0);
      return std::string(buf);
    };

    t.row()
        .add(row.label)
        .add("computational efficiency")
        .add(bench::fmt_ci(ce_base))
        .add(bench::fmt_ci(ce_co))
        .add(pct(ce_base, ce_co))
        .add("+19%");
    t.row()
        .add(row.label)
        .add("scheduling efficiency")
        .add(bench::fmt_ci(se_base))
        .add(bench::fmt_ci(se_co))
        .add(pct(se_base, se_co))
        .add("+25.2%");
    t.row()
        .add(row.label)
        .add("co-allocation timeouts (overhead)")
        .add(to_base.mean, 1)
        .add(to_co.mean, 1)
        .add(to_co.mean == to_base.mean ? "none" : "changed")
        .add("none");
  }

  bench::emit(
      t, env, "R-T2: headline — standard vs node-sharing allocation",
      "Trinity campaign, " + std::to_string(env.jobs) + " jobs on " +
          std::to_string(env.nodes) + " nodes, " +
          std::to_string(env.seeds) +
          " seeds (mean [95% bootstrap CI]). The acceptance band is the "
          "paper's +19% / +25.2% / no-overhead result, to hold in shape: "
          "both efficiencies up by roughly 15-35%, timeouts unchanged.");
  bench::finish(env, flags);
  return 0;
}
