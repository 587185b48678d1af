// R-A11: node-width sweep — pass cost as a function of machine width at a
// fixed trace length, exercising the width-sublinear hot path (flat
// free-capacity bitmaps, Fenwick busy-ends order statistics, reused staging
// buffers; DESIGN.md "Node-width sublinear indexes"). Each cell runs the
// production configuration (streaming ingestion, finished-job retirement)
// once, with a private registry attached so the table can count passes.
//
// Peak RSS is process-cumulative, so this sweep reports time and registry
// quantities only; for honest per-configuration RSS use
// `bench_a8_scale --single` (one process per cell), which is how
// BENCH_pr10.json's headline records were produced.
#include <chrono>

#include "bench_common.hpp"

namespace {

using namespace cosched;

// Wall-clock timing is this bench's entire purpose; decision code stays
// on sim::Engine virtual time.
using Clock = std::chrono::steady_clock;  // cosched-lint: allow(no-wallclock)

std::vector<int> parse_list(const std::string& csv) {
  std::vector<int> out;
  std::stringstream in(csv);
  std::string item;
  while (std::getline(in, item, ',')) {
    if (!item.empty()) out.push_back(std::stoi(item));
  }
  if (out.empty()) throw Error("empty list flag: '" + csv + "'");
  return out;
}

}  // namespace

int bench_main(const Flags& flags) {
  const auto env = bench::BenchEnv::from_flags(flags, "bench_a10_width");
  const auto catalog = apps::Catalog::trinity();
  const auto strategy =
      core::parse_strategy(flags.get_string("strategy", "cobackfill"));
  const double load = flags.get_double("load", 1.1);
  const auto node_list =
      parse_list(flags.get_string("nodes-list", "1024,4096,16384,32768"));
  const int jobs = flags.get_int_in("jobs", 100000, 1);

  Table t({"nodes", "jobs", "wall (s)", "sched (s)", "passes", "events",
           "makespan (h)"});
  for (const int nodes : node_list) {
    slurmlite::SimulationSpec spec;
    spec.controller.nodes = nodes;
    spec.controller.strategy = strategy;
    spec.controller.retire_finished = true;
    spec.workload = workload::trinity_stream(nodes, jobs, load);
    spec.seed = env.base_seed;
    spec.audit = slurmlite::AuditMode::kOff;
    obs::Registry registry;
    spec.controller.registry = &registry;

    const workload::Generator generator(spec.workload, catalog);
    workload::GeneratorJobSource source(generator, Pcg32(spec.seed, 0x5eed));
    const auto start = Clock::now();
    const auto result = slurmlite::run_stream(spec, catalog, source);
    const std::chrono::duration<double> wall = Clock::now() - start;

    t.row()
        .add(nodes)
        .add(jobs)
        .add(wall.count(), 2)
        .add(std::chrono::duration<double>(result.stats.scheduler_cpu).count(),
             2)
        .add(static_cast<std::int64_t>(
            registry.counter("scheduler_passes").value()))
        .add(static_cast<std::int64_t>(result.events_executed))
        .add(result.metrics.makespan_s / 3600.0, 2);
  }
  bench::emit(t, env,
              "R-A11: node-width sweep (production fast path, " +
                  std::to_string(jobs) + " jobs/cell)",
              "Each cell is one streamed, retiring simulation. Pass cost "
              "should grow far slower than node count. RSS comparisons "
              "need bench_a8_scale --single.");
  bench::finish(env, flags);
  return 0;
}
