// R-T1: the mini-app catalog table — per-application characterization
// (class, stress profile, scaling behaviour) that stands in for the paper's
// "evaluation applications" table.
#include "bench_common.hpp"

int bench_main(const cosched::Flags& flags) {
  using namespace cosched;
  const auto env = bench::BenchEnv::from_flags(flags);
  const auto catalog = apps::Catalog::trinity();
  const interference::CorunModel corun;

  Table t({"app", "class", "issue", "membw", "cache", "network",
           "eff@16nodes", "self-pair tput"});
  for (const auto& app : catalog.all()) {
    t.row()
        .add(app.name)
        .add(apps::to_string(app.app_class))
        .add(app.stress.issue, 2)
        .add(app.stress.membw, 2)
        .add(app.stress.cache, 2)
        .add(app.stress.network, 2)
        .add(app.parallel_efficiency(16), 3)
        .add(corun.combined_throughput(app.stress, app.stress), 3);
  }
  bench::emit(t, env, "R-T1: Trinity mini-app catalog",
              "'self-pair tput' is the combined throughput of the app "
              "co-located with itself under 2-way SMT (< 1 means sharing "
              "with itself loses; the scheduler avoids such pairings).");
  bench::finish(env, flags);
  return 0;
}
