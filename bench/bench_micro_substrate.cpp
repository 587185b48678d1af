// Micro-benchmarks of the substrate data structures (google-benchmark):
// event engine throughput, availability-profile operations, interference
// evaluations, and whole-simulation cost per job. These bound how large a
// machine/workload the simulator handles interactively.
#include <benchmark/benchmark.h>

#include "core/profile.hpp"
#include "interference/corun_model.hpp"
#include "sim/engine.hpp"
#include "slurmlite/simulation.hpp"
#include "util/rng.hpp"
#include "workload/campaign.hpp"

namespace {

using namespace cosched;

void BM_EngineScheduleRun(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine engine;
    for (int i = 0; i < n; ++i) {
      engine.schedule_at((i * 7919) % 100000, sim::EventPriority::kTimer,
                         "bench", [] {});
    }
    benchmark::DoNotOptimize(engine.run());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EngineScheduleRun)->Arg(1000)->Arg(10000);

void BM_ProfileReserveFindStart(benchmark::State& state) {
  const auto reservations = static_cast<int>(state.range(0));
  Pcg32 rng(1);
  for (auto _ : state) {
    core::AvailabilityProfile profile(64, 0);
    for (int i = 0; i < reservations; ++i) {
      const SimTime from = rng.uniform_int(0, 1000000);
      profile.reserve(from, from + rng.uniform_int(1000, 100000),
                      static_cast<int>(rng.uniform_int(1, 16)));
    }
    benchmark::DoNotOptimize(profile.find_start(0, 50000, 32));
  }
}
BENCHMARK(BM_ProfileReserveFindStart)->Arg(64)->Arg(512);

void BM_CorunPairSlowdowns(benchmark::State& state) {
  const auto catalog = apps::Catalog::trinity();
  const interference::CorunModel model;
  std::size_t i = 0;
  const auto& apps = catalog.all();
  for (auto _ : state) {
    const auto& a = apps[i % apps.size()];
    const auto& b = apps[(i / apps.size()) % apps.size()];
    benchmark::DoNotOptimize(model.pair_slowdowns(a.stress, b.stress));
    ++i;
  }
}
BENCHMARK(BM_CorunPairSlowdowns);

void BM_FullSimulationPerJob(benchmark::State& state) {
  const auto jobs = static_cast<int>(state.range(0));
  const auto catalog = apps::Catalog::trinity();
  std::uint64_t seed = 1;
  for (auto _ : state) {
    slurmlite::SimulationSpec spec;
    spec.controller.nodes = 32;
    spec.controller.strategy = core::StrategyKind::kCoBackfill;
    spec.workload = workload::trinity_campaign(32, jobs);
    spec.seed = seed++;
    benchmark::DoNotOptimize(slurmlite::run_simulation(spec, catalog));
  }
  state.SetItemsProcessed(state.iterations() * jobs);
}
BENCHMARK(BM_FullSimulationPerJob)->Arg(100)->Arg(400)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
