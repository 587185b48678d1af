// The paper's evaluation campaign: a burst of NERSC Trinity mini-app jobs
// scheduled once with standard (exclusive) allocation and once with
// node-sharing co-allocation, reporting the headline efficiency deltas and
// optionally exporting the schedules for plotting.
//
//   ./trinity_campaign [--nodes=32] [--jobs=500] [--seed=1]
//                      [--standard=easy] [--sharing=cobackfill]
//                      [--gantt-prefix=/tmp/trinity]   # write CSV gantts
//                      [--swf=/tmp/trinity.swf]        # archive the workload
#include <iostream>

#include "slurmlite/formatters.hpp"
#include "slurmlite/simulation.hpp"
#include "trace/gantt.hpp"
#include "trace/swf.hpp"
#include "util/flags.hpp"
#include "workload/campaign.hpp"

int main(int argc, char** argv) {
  using namespace cosched;
  try {
    const Flags flags(argc, argv);
    const int nodes = flags.get_int_in("nodes", 32, 1, kMaxNodes);
    const int jobs = flags.get_int_in("jobs", 500, 1);
    const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
    const auto standard =
        core::parse_strategy(flags.get_string("standard", "easy"));
    const auto sharing =
        core::parse_strategy(flags.get_string("sharing", "cobackfill"));
    const std::string gantt_prefix = flags.get_string("gantt-prefix", "");
    const std::string swf_path = flags.get_string("swf", "");
    for (const auto& unknown : flags.unused()) {
      std::cerr << "unknown flag --" << unknown << "\n";
      return 2;
    }

    const auto catalog = apps::Catalog::trinity();
    slurmlite::SimulationSpec spec;
    spec.controller.nodes = nodes;
    spec.workload = workload::trinity_campaign(nodes, jobs);
    spec.seed = seed;

    // Same workload, two allocation regimes.
    spec.controller.strategy = standard;
    const auto base = slurmlite::run_simulation(spec, catalog);
    spec.controller.strategy = sharing;
    const auto co = slurmlite::run_simulation(spec, catalog);

    std::cout << "Trinity campaign: " << jobs << " jobs, " << nodes
              << " nodes, seed " << seed << "\n\n";
    std::cout << "--- standard allocation (" << core::to_string(standard)
              << ") ---\n"
              << slurmlite::metrics_summary(base.metrics) << "\n";
    std::cout << "--- node sharing (" << core::to_string(sharing)
              << ") ---\n"
              << slurmlite::metrics_summary(co.metrics) << "\n";

    const double comp_gain = (co.metrics.computational_efficiency /
                                  base.metrics.computational_efficiency -
                              1.0) * 100.0;
    const double sched_gain = (co.metrics.scheduling_efficiency /
                                   base.metrics.scheduling_efficiency -
                               1.0) * 100.0;
    std::printf(
        "headline: computational efficiency %+.1f%% (paper: +19%%), "
        "scheduling efficiency %+.1f%% (paper: +25.2%%), "
        "co-allocation timeouts %d (paper: none)\n",
        comp_gain, sched_gain, co.metrics.jobs_timeout);

    if (!gantt_prefix.empty()) {
      trace::write_gantt_csv_file(gantt_prefix + "_standard.csv", base.jobs,
                                  catalog);
      trace::write_gantt_csv_file(gantt_prefix + "_sharing.csv", co.jobs,
                                  catalog);
      std::cout << "\nwrote " << gantt_prefix << "_{standard,sharing}.csv\n";
    }
    if (!swf_path.empty()) {
      trace::write_swf_file(swf_path, trace::jobs_to_swf(co.jobs),
                            "Trinity campaign, node-sharing schedule");
      std::cout << "wrote " << swf_path << "\n";
    }
    return 0;
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
