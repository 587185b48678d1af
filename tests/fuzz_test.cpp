// Randomized property tests: fast pseudo-fuzzing of the foundational data
// structures against naive reference implementations, plus randomized
// whole-simulation sweeps checking global invariants. All deterministic
// (seeded PCG), so failures reproduce.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "core/profile.hpp"
#include "sim/engine.hpp"
#include "slurmlite/simulation.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"
#include "workload/campaign.hpp"
#include "workload/generator.hpp"

namespace cosched {
namespace {

// --- AvailabilityProfile vs a naive per-tick reference ---------------------------------

/// Naive reference: explicit free counts at integer ticks.
class NaiveProfile {
 public:
  NaiveProfile(int total, SimTime horizon)
      : free_(static_cast<std::size_t>(horizon), total) {}

  void reserve(SimTime from, SimTime to, int count) {
    for (SimTime t = from; t < to && t < horizon(); ++t) {
      free_[static_cast<std::size_t>(t)] -= count;
    }
  }
  int free_at(SimTime t) const {
    return t < horizon() ? free_[static_cast<std::size_t>(t)] : free_.back();
  }
  SimTime find_start(SimTime earliest, SimDuration duration,
                     int count) const {
    for (SimTime t = earliest; t < horizon(); ++t) {
      bool ok = true;
      for (SimTime u = t; u < t + duration; ++u) {
        if (free_at(u) < count) {
          ok = false;
          break;
        }
      }
      if (ok) return t;
    }
    return horizon();  // all reservations end before the horizon in tests
  }
  SimTime horizon() const { return static_cast<SimTime>(free_.size()); }

 private:
  std::vector<int> free_;
};

class ProfileFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ProfileFuzz, MatchesNaiveReference) {
  Pcg32 rng(static_cast<std::uint64_t>(GetParam()), 0xf022);
  const int total = 8;
  const SimTime horizon = 200;
  core::AvailabilityProfile profile(total, 0);
  NaiveProfile naive(total, horizon);

  // Random overlapping reservations (may drive free counts negative —
  // both implementations must agree anyway).
  for (int i = 0; i < 15; ++i) {
    const SimTime from = rng.uniform_int(0, 150);
    const SimTime to = from + rng.uniform_int(1, 40);
    const int count = static_cast<int>(rng.uniform_int(1, 4));
    profile.reserve(from, to, count);
    naive.reserve(from, to, count);
  }

  for (SimTime t = 0; t < 190; t += 7) {
    EXPECT_EQ(profile.free_at(t), naive.free_at(t)) << "t=" << t;
  }
  // The breakpoints ascend in time and each holds the naive count there.
  const auto& steps = profile.steps();
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const auto [at, free] = steps[i];
    EXPECT_EQ(free, naive.free_at(at)) << "step at t=" << at;
    if (i > 0) {
      EXPECT_LT(steps[i - 1].first, at);
    }
  }
  for (int i = 0; i < 30; ++i) {
    const SimTime earliest = rng.uniform_int(0, 100);
    const SimDuration duration = rng.uniform_int(1, 50);
    const int count = static_cast<int>(rng.uniform_int(1, total));
    EXPECT_EQ(profile.find_start(earliest, duration, count),
              naive.find_start(earliest, duration, count))
        << "earliest=" << earliest << " duration=" << duration
        << " count=" << count;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProfileFuzz, ::testing::Range(1, 9));

// --- Engine ordering under random schedules and cancellations ---------------------------

class EngineFuzz : public ::testing::TestWithParam<int> {};

TEST_P(EngineFuzz, OrderAndCancellationInvariants) {
  Pcg32 rng(static_cast<std::uint64_t>(GetParam()), 0xe471);
  sim::Engine engine;
  std::vector<sim::EventId> ids;
  std::vector<SimTime> fired;
  for (int i = 0; i < 300; ++i) {
    const SimTime t = rng.uniform_int(0, 1000);
    ids.push_back(engine.schedule_at(t, sim::EventPriority::kTimer, "test",
                                     [&fired, &engine] {
                                       fired.push_back(engine.now());
                                     }));
  }
  // Cancel a random third.
  std::size_t cancelled = 0;
  for (const sim::EventId id : ids) {
    if (rng.bernoulli(0.33) && engine.cancel(id)) ++cancelled;
  }
  const std::size_t executed = engine.run();
  EXPECT_EQ(executed, ids.size() - cancelled);
  EXPECT_EQ(fired.size(), executed);
  for (std::size_t i = 1; i < fired.size(); ++i) {
    EXPECT_LE(fired[i - 1], fired[i]);
  }
  EXPECT_TRUE(engine.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineFuzz, ::testing::Range(1, 9));

// --- Random machine allocation/release sequences ----------------------------------------

class MachineFuzz : public ::testing::TestWithParam<int> {};

TEST_P(MachineFuzz, InvariantsUnderRandomOperations) {
  Pcg32 rng(static_cast<std::uint64_t>(GetParam()), 0x3ac1);
  cluster::Machine machine(8, cluster::NodeConfig{.cores = 4,
                                                  .smt_per_core = 2});
  std::vector<JobId> primaries, secondaries;
  JobId next = 1;
  for (int step = 0; step < 400; ++step) {
    const double roll = rng.next_double();
    if (roll < 0.4) {  // try primary allocation
      const int want = static_cast<int>(rng.uniform_int(1, 4));
      if (auto nodes = machine.find_free_nodes(want)) {
        machine.allocate_primary(next, *nodes);
        primaries.push_back(next++);
      }
    } else if (roll < 0.6) {  // try secondary allocation
      const int want = static_cast<int>(rng.uniform_int(1, 3));
      if (auto nodes = testing::first_shareable(machine, want)) {
        machine.allocate_secondary(next, *nodes);
        secondaries.push_back(next++);
      }
    } else {  // release something
      auto& pool = (rng.bernoulli(0.5) && !secondaries.empty())
                       ? secondaries
                       : primaries;
      if (!pool.empty()) {
        const std::size_t idx = rng.next_below(
            static_cast<std::uint32_t>(pool.size()));
        machine.release(pool[idx]);
        pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(idx));
      }
    }
    machine.check_invariants();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MachineFuzz, ::testing::Range(1, 9));

// --- Randomized end-to-end simulations ---------------------------------------------------

class SimulationFuzz : public ::testing::TestWithParam<int> {};

TEST_P(SimulationFuzz, GlobalInvariantsUnderRandomConfigs) {
  const auto catalog = apps::Catalog::trinity();
  Pcg32 rng(static_cast<std::uint64_t>(GetParam()), 0x51f2);

  slurmlite::SimulationSpec spec;
  // Every fourth seed runs a one-node machine, the smallest edge.
  spec.controller.nodes = GetParam() % 4 == 0
                              ? 1
                              : static_cast<int>(rng.uniform_int(4, 24));
  const auto strategies = core::all_strategies();
  spec.controller.strategy =
      strategies[rng.next_below(static_cast<std::uint32_t>(
          strategies.size()))];
  spec.controller.queue_policy = rng.bernoulli(0.5)
                                     ? slurmlite::QueuePolicy::kPriority
                                     : slurmlite::QueuePolicy::kFifo;
  // At 3 and 4 threads per core a secondary start changes a node's
  // resident signature mid-pass and leaves it free-secondary.
  spec.controller.node_config.smt_per_core =
      static_cast<int>(rng.uniform_int(1, 4));
  spec.workload = rng.bernoulli(0.5)
                      ? workload::trinity_campaign(spec.controller.nodes, 80)
                      : workload::trinity_stream(spec.controller.nodes, 80,
                                                 rng.uniform(0.4, 1.2));
  spec.seed = static_cast<std::uint64_t>(GetParam()) * 977;
  spec.audit = slurmlite::AuditMode::kOn;

  Pcg32 workload_rng(spec.seed, /*stream=*/0x5eed);
  workload::JobList jobs =
      workload::Generator(spec.workload, catalog).generate(workload_rng);
  JobId next_id = jobs.back().id + 1;
  // A few jobs with one microsecond of work, the least a job may have,
  // each arriving with a generated job; about half may run 2 us at most.
  const int tiny = 1 + static_cast<int>(rng.next_below(4));
  for (int i = 0; i < tiny; ++i) {
    const auto at = static_cast<std::ptrdiff_t>(
        rng.next_below(static_cast<std::uint32_t>(jobs.size())));
    workload::Job job = jobs[static_cast<std::size_t>(at)];
    job.id = next_id++;
    job.base_runtime = 1;
    if (rng.bernoulli(0.5)) job.walltime_limit = 2;
    jobs.insert(jobs.begin() + at + 1, job);
  }
  // A few jobs wider than the machine, arriving with the last one: each
  // must be cancelled on entry and counted, and must hold up nothing.
  std::vector<JobId> too_wide;
  const int wide = 1 + static_cast<int>(rng.next_below(3));
  for (int i = 0; i < wide; ++i) {
    workload::Job job = jobs.back();
    job.id = next_id++;
    job.nodes = spec.controller.nodes + 1 + static_cast<int>(rng.next_below(8));
    too_wide.push_back(job.id);
    jobs.push_back(job);
  }

  const auto result = slurmlite::run_jobs(spec, catalog, jobs);

  // Everything else completes; the co gate keeps timeouts at zero.
  EXPECT_EQ(result.metrics.jobs_total, 80 + tiny + wide);
  EXPECT_EQ(result.metrics.jobs_completed, 80 + tiny);
  EXPECT_EQ(result.metrics.jobs_timeout, 0);
  for (const auto& job : result.jobs) {
    const bool is_wide = std::find(too_wide.begin(), too_wide.end(),
                                   job.id) != too_wide.end();
    EXPECT_EQ(job.state, is_wide ? workload::JobState::kCancelled
                                 : workload::JobState::kCompleted)
        << "job " << job.id << " (" << job.nodes << " nodes)";
  }
  // Per-node occupancy never exceeds the slot count.
  std::map<NodeId, std::vector<std::pair<SimTime, int>>> events;
  for (const auto& job : result.jobs) {
    if (!job.finished()) continue;
    for (NodeId n : job.alloc_nodes) {
      events[n].emplace_back(job.start_time, +1);
      events[n].emplace_back(job.end_time, -1);
    }
  }
  for (auto& [node, evs] : events) {
    (void)node;
    std::sort(evs.begin(), evs.end());
    int depth = 0;
    for (const auto& [t, d] : evs) {
      (void)t;
      depth += d;
      EXPECT_LE(depth, spec.controller.node_config.smt_per_core);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimulationFuzz, ::testing::Range(1, 25));

}  // namespace
}  // namespace cosched
