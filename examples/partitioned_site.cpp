// A two-partition site, the deployment pattern the paper's node-sharing
// strategies suggest: an "exclusive" partition for sharing-averse users
// (OverSubscribe=NO, conservative backfill) next to a "shared" partition
// running co-allocation-aware backfill. Jobs route by preference; the
// example compares how each partition serves its share of one campaign.
//
//   ./partitioned_site [--nodes-each=16] [--jobs=300] [--seed=1]
//                      [--shared-fraction=0.7]
#include <iostream>

#include "metrics/metrics.hpp"
#include "slurmlite/formatters.hpp"
#include "slurmlite/partitions.hpp"
#include "util/flags.hpp"
#include "workload/campaign.hpp"

int main(int argc, char** argv) {
  using namespace cosched;
  try {
    const Flags flags(argc, argv);
    const int nodes_each = flags.get_int_in("nodes-each", 16, 1, kMaxNodes);
    const int jobs = flags.get_int_in("jobs", 300, 1);
    const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
    const double shared_fraction =
        flags.get_double("shared-fraction", 0.7);
    for (const auto& unknown : flags.unused()) {
      std::cerr << "unknown flag --" << unknown << "\n";
      return 2;
    }

    const auto catalog = apps::Catalog::trinity();

    slurmlite::PartitionConfig shared;
    shared.name = "shared";
    shared.controller.nodes = nodes_each;
    shared.controller.strategy = core::StrategyKind::kCoBackfill;

    slurmlite::PartitionConfig exclusive;
    exclusive.name = "exclusive";
    exclusive.controller.nodes = nodes_each;
    exclusive.controller.node_config.smt_per_core = 1;  // OverSubscribe=NO
    exclusive.controller.strategy =
        core::StrategyKind::kConservativeBackfill;

    sim::Engine engine;
    slurmlite::PartitionedSystem site(engine, {shared, exclusive}, catalog);

    // One campaign, split by user preference.
    workload::Generator generator(
        workload::trinity_campaign(nodes_each, jobs), catalog);
    Pcg32 rng(seed, 0x9a27);
    auto workload_jobs = generator.generate(rng);
    for (auto& job : workload_jobs) {
      job.partition = rng.bernoulli(shared_fraction) ? "shared" : "exclusive";
    }
    for (const auto& job : workload_jobs) site.submit(job);
    engine.run();

    for (const auto& name : site.partition_names()) {
      const auto& controller = site.partition(name);
      const auto records = controller.job_records();
      const auto m = metrics::compute(
          records, controller.machine_state().node_count());
      std::cout << "=== partition '" << name << "' ("
                << controller.machine_state().node_count() << " nodes, "
                << records.size() << " jobs) ===\n"
                << slurmlite::sinfo(controller.machine_state())
                << slurmlite::metrics_summary(m) << "\n";
    }
    const auto stats = site.combined_stats();
    std::cout << "site totals: " << stats.completions << " completed, "
              << stats.secondary_starts << " co-allocated starts, "
              << stats.timeouts << " timeouts\n";
    return 0;
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
