// R-F2: the pairwise co-run matrix — combined throughput for every app
// pair under 2-way SMT node sharing. Reproduces the co-run
// characterization figure that motivates co-allocation-aware gating.
#include "bench_common.hpp"

int bench_main(const cosched::Flags& flags) {
  using namespace cosched;
  auto env = bench::BenchEnv::from_flags(flags);
  const bool show_dilations = flags.get_bool("dilations", false);
  const auto catalog = apps::Catalog::trinity();
  const interference::CorunModel corun;

  std::vector<std::string> header{"primary \\ secondary"};
  for (const auto& app : catalog.all()) header.push_back(app.name);
  Table t(header);
  for (const auto& a : catalog.all()) {
    t.row().add(a.name);
    for (const auto& b : catalog.all()) {
      if (show_dilations) {
        const auto [sa, sb] = corun.pair_slowdowns(a.stress, b.stress);
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.2f/%.2f", sa, sb);
        t.add(std::string(buf));
      } else {
        t.add(corun.combined_throughput(a.stress, b.stress), 2);
      }
    }
  }
  bench::emit(t, env,
              show_dilations
                  ? "R-F2b: pairwise dilations (primary/secondary)"
                  : "R-F2: pairwise combined throughput under 2-way SMT",
              "Values > 1.0: the node does more work shared than running "
              "the two jobs back to back (sharing wins). Compute x "
              "memory-bandwidth pairs peak; bandwidth x bandwidth pairs "
              "lose. Run with --dilations for the per-side slowdowns.");

  // Summary row: best/worst/mean off-diagonal pair.
  double best = 0, worst = 10, sum = 0;
  int count = 0;
  std::string best_pair, worst_pair;
  for (const auto& a : catalog.all()) {
    for (const auto& b : catalog.all()) {
      const double tput = corun.combined_throughput(a.stress, b.stress);
      sum += tput;
      ++count;
      if (tput > best) {
        best = tput;
        best_pair = a.name + "+" + b.name;
      }
      if (tput < worst) {
        worst = tput;
        worst_pair = a.name + "+" + b.name;
      }
    }
  }
  if (!env.csv) {
    std::printf("\nbest pair: %s (%.2fx)   worst pair: %s (%.2fx)   "
                "matrix mean: %.2fx\n",
                best_pair.c_str(), best, worst_pair.c_str(), worst,
                sum / count);
  }
  bench::finish(env, flags);
  return 0;
}
