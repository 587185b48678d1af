// A day in the life of a shared cluster: diurnal Poisson arrivals, the
// multifactor priority queue with fair share, the learned co-allocation
// gate (no offline profiles), walltime prediction, a checkpointed node
// failure at noon — everything the deployment-facing features do,
// composed in one run.
//
//   ./operations_day [--nodes=32] [--jobs=400] [--seed=1] [--verbose]
#include <iostream>

#include "slurmlite/formatters.hpp"
#include "slurmlite/simulation.hpp"
#include "util/flags.hpp"
#include "util/log.hpp"
#include "workload/campaign.hpp"

int main(int argc, char** argv) {
  using namespace cosched;
  try {
    const Flags flags(argc, argv);
    const int nodes = flags.get_int_in("nodes", 32, 1, kMaxNodes);
    const int jobs = flags.get_int_in("jobs", 400, 1);
    const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
    if (flags.get_bool("verbose", false)) set_log_level(LogLevel::kInfo);
    for (const auto& unknown : flags.unused()) {
      std::cerr << "unknown flag --" << unknown << "\n";
      return 2;
    }

    const auto catalog = apps::Catalog::trinity();

    slurmlite::SimulationSpec spec;
    spec.seed = seed;
    spec.controller.nodes = nodes;
    spec.controller.strategy = core::StrategyKind::kCoBackfill;
    // Deployment-realistic gate: no offline stress profiles, learn from
    // observed runtimes, explore via the class rule.
    spec.controller.scheduler_options.co.gate_mode = core::GateMode::kLearned;
    spec.controller.scheduler_options.use_walltime_prediction = true;
    spec.controller.queue_policy = slurmlite::QueuePolicy::kPriority;
    // Switched network with compact placement.
    spec.controller.topology = cluster::TopologyParams{.switch_size = 8};
    spec.controller.placement = cluster::PlacementPolicy::kCompact;
    // A node dies at noon for two hours; jobs checkpoint every 30 min.
    spec.controller.failures = {
        {.node = 3, .at = 12 * kHour, .duration = 2 * kHour}};
    spec.controller.checkpoint_interval = 30 * kMinute;
    // Day/night arrival pattern at high load.
    spec.workload = workload::trinity_stream(nodes, jobs, 1.0);
    spec.workload.diurnal_amplitude = 0.6;

    std::cout << "Operations day: " << jobs << " jobs on " << nodes
              << " nodes — learned gate, priority queue, prediction, "
                 "compact placement, noon outage with checkpointing\n\n";
    const auto result = slurmlite::run_simulation(spec, catalog);

    std::cout << slurmlite::metrics_summary(result.metrics) << "\n";
    std::cout << "operational counters:\n"
              << "  scheduler passes:   " << result.stats.scheduler_passes
              << " (" << result.stats.scheduler_cpu.count() / 1'000'000
              << " ms total decision time)\n"
              << "  co-allocated starts: " << result.stats.secondary_starts
              << "\n"
              << "  node failures:      " << result.stats.node_failures
              << ", requeues after failure: " << result.stats.requeues
              << "\n"
              << "  walltime kills:     " << result.stats.timeouts << "\n";

    int requeued_jobs = 0;
    for (const auto& job : result.jobs) requeued_jobs += job.requeues > 0;
    std::cout << "  jobs that survived the outage via checkpoint restart: "
              << requeued_jobs << "\n";
    return 0;
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
