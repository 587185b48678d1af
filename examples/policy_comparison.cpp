// Side-by-side comparison of all six scheduling strategies on one
// workload: the decision table an administrator would want before turning
// node sharing on.
//
//   ./policy_comparison [--nodes=32] [--jobs=300] [--seed=1] [--csv]
//                       [--mix=trinity|membound|compute]
//                       [--stream-load=0]  # > 0 switches to Poisson arrivals
#include <iostream>

#include "slurmlite/simulation.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"
#include "workload/campaign.hpp"

int main(int argc, char** argv) {
  using namespace cosched;
  try {
    const Flags flags(argc, argv);
    const int nodes = flags.get_int_in("nodes", 32, 1, kMaxNodes);
    const int jobs = flags.get_int_in("jobs", 300, 1);
    const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
    const bool csv = flags.get_bool("csv", false);
    const std::string mix = flags.get_string("mix", "trinity");
    const double stream_load = flags.get_double("stream-load", 0.0);
    for (const auto& unknown : flags.unused()) {
      std::cerr << "unknown flag --" << unknown << "\n";
      return 2;
    }

    const auto catalog = apps::Catalog::trinity();
    workload::GeneratorParams params;
    if (mix == "trinity") {
      params = workload::trinity_campaign(nodes, jobs);
    } else if (mix == "membound") {
      params = workload::memory_bound_campaign(nodes, jobs);
    } else if (mix == "compute") {
      params = workload::compute_bound_campaign(nodes, jobs);
    } else {
      std::cerr << "unknown --mix '" << mix
                << "' (want trinity|membound|compute)\n";
      return 2;
    }
    if (stream_load > 0) {
      params.arrival = workload::ArrivalMode::kStream;
      params.offered_load = stream_load;
    }

    Table t({"strategy", "makespan (h)", "sched eff", "comp eff",
             "mean wait (min)", "p95 slowdown", "co-starts", "timeouts",
             "sched cpu (ms)"});
    for (auto kind : core::all_strategies()) {
      slurmlite::SimulationSpec spec;
      spec.controller.nodes = nodes;
      spec.controller.strategy = kind;
      spec.workload = params;
      spec.seed = seed;
      const auto r = slurmlite::run_simulation(spec, catalog);
      t.row()
          .add(core::to_string(kind))
          .add(r.metrics.makespan_s / 3600.0, 2)
          .add(r.metrics.scheduling_efficiency, 3)
          .add(r.metrics.computational_efficiency, 3)
          .add(r.metrics.mean_wait_s / 60.0, 1)
          .add(r.metrics.p95_bounded_slowdown, 1)
          .add(static_cast<std::int64_t>(r.stats.secondary_starts))
          .add(r.metrics.jobs_timeout)
          .add(static_cast<double>(r.stats.scheduler_cpu.count()) / 1e6, 2);
    }
    if (!csv) {
      std::cout << "Strategy comparison — " << mix << " mix, " << jobs
                << " jobs on " << nodes << " nodes, seed " << seed
                << (stream_load > 0
                        ? ", Poisson arrivals at rho=" +
                              std::to_string(stream_load)
                        : std::string(", burst campaign"))
                << "\n\n";
    }
    t.print(std::cout, csv);
    return 0;
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
