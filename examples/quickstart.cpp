// Quickstart: submit a handful of Trinity mini-app jobs to a small cluster
// under the co-allocation-aware backfill strategy and print the resulting
// schedule, accounting, and metrics.
//
//   ./quickstart [--strategy=cobackfill] [--nodes=8] [--jobs=12]
//                [--seed=1] [--verbose]
#include <iostream>

#include "apps/catalog.hpp"
#include "slurmlite/formatters.hpp"
#include "slurmlite/simulation.hpp"
#include "trace/gantt.hpp"
#include "util/flags.hpp"
#include "util/log.hpp"
#include "workload/campaign.hpp"

int main(int argc, char** argv) {
  using namespace cosched;
  try {
    const Flags flags(argc, argv);
    if (flags.get_bool("verbose", false)) {
      set_log_level(LogLevel::kDebug);
    }
    const auto strategy =
        core::parse_strategy(flags.get_string("strategy", "cobackfill"));
    const int nodes = flags.get_int_in("nodes", 8, 1, kMaxNodes);
    const int jobs = flags.get_int_in("jobs", 12, 1);
    const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
    for (const auto& unknown : flags.unused()) {
      std::cerr << "unknown flag --" << unknown << "\n";
      return 2;
    }

    const apps::Catalog catalog = apps::Catalog::trinity();

    slurmlite::SimulationSpec spec;
    spec.controller.nodes = nodes;
    spec.controller.strategy = strategy;
    spec.workload = workload::trinity_campaign(nodes, jobs);
    spec.seed = seed;

    std::cout << "CoSched quickstart — " << jobs << " Trinity jobs on "
              << nodes << " nodes, strategy '" << core::to_string(strategy)
              << "'\n\n";
    const auto result = slurmlite::run_simulation(spec, catalog);

    std::cout << "=== sacct ===\n"
              << slurmlite::sacct(result.jobs, catalog) << "\n";
    std::cout << "=== schedule (rows = nodes, time left to right; '.' idle, "
                 "'#' one job, '2' shared) ===\n"
              << trace::ascii_gantt(result.jobs, nodes, 72) << "\n";
    std::cout << "=== metrics ===\n"
              << slurmlite::metrics_summary(result.metrics);
    std::cout << "\nscheduler passes: " << result.stats.scheduler_passes
              << ", co-allocated starts: " << result.stats.secondary_starts
              << ", simulated events: " << result.events_executed << "\n";
    return 0;
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
