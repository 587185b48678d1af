// Differential tests for the incremental scheduler state (PR 4).
//
// Three families:
//   1. Machine free-time index fuzz: after every randomized mutation
//      (allocate primary/secondary, release, node down/up), the
//      incremental per-node free times, order statistics, and sorted busy
//      ends must equal a from-scratch recompute.
//   2. Shadow/profile differential: compute_shadow (served from the
//      index) must agree exactly with compute_shadow_reference (the
//      node_free_times + nth_element rebuild in shadow_reference.hpp) on
//      randomized hosts.
//   3. Early-exit invisibility: a run with observers attached (which
//      disables pass skipping) and a run without (which skips provably
//      no-op passes) must produce byte-identical event-stream digests,
//      job records, and pass counts — for every strategy, on a batch and
//      on a saturated SMT stream where primary-only strategies must skip.
// Plus engine slab-pool coverage: ordering, cancellation, payload reuse,
// and the oversized-callable heap fallback.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "cluster/machine.hpp"
#include "core/strategy_common.hpp"
#include "obs/profiler.hpp"
#include "shadow_reference.hpp"
#include "sim/engine.hpp"
#include "slurmlite/simulation.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"
#include "workload/campaign.hpp"

namespace cosched {
namespace {

// --- 1. Free-time index fuzz -------------------------------------------------

/// Checks every index query against the from-scratch rebuild.
void expect_index_matches(const cluster::Machine& m, SimTime now) {
  std::vector<SimTime> reference;
  std::vector<SimTime> busy_ends;
  reference.reserve(static_cast<std::size_t>(m.node_count()));
  for (NodeId id = 0; id < m.node_count(); ++id) {
    const cluster::Node& n = m.node(id);
    SimTime ft = 0;
    if (n.is_down()) {
      ft = kTimeInfinity;
    } else if (n.primary_free()) {
      ft = now;
    } else {
      SimTime raw = 0;
      for (JobId job : n.jobs()) {
        const cluster::Allocation* alloc = m.allocation(job);
        ASSERT_NE(alloc, nullptr);
        raw = std::max(raw, alloc->walltime_end);
      }
      ft = std::max(now, raw);
      busy_ends.push_back(raw);  // unclamped, as the index caches them
    }
    reference.push_back(ft);
    EXPECT_EQ(m.node_free_time(id, now), ft) << "node " << id;
  }
  std::sort(busy_ends.begin(), busy_ends.end());
  EXPECT_EQ(m.sorted_busy_ends(), busy_ends);
  EXPECT_EQ(m.busy_tracked_count(), static_cast<int>(busy_ends.size()));

  std::vector<SimTime> sorted = reference;
  std::sort(sorted.begin(), sorted.end());
  for (int k = 0; k < m.node_count(); ++k) {
    EXPECT_EQ(m.kth_free_time(k, now),
              sorted[static_cast<std::size_t>(k)])
        << "k=" << k;
  }
  // free_count_at at every distinct free time plus points just off them.
  for (SimTime t : sorted) {
    if (t == kTimeInfinity) continue;
    const auto leq = [&](SimTime bound) {
      return static_cast<int>(std::count_if(
          reference.begin(), reference.end(),
          [&](SimTime ft) { return ft <= bound; }));
    };
    EXPECT_EQ(m.free_count_at(t, now), leq(t)) << "t=" << t;
    EXPECT_EQ(m.free_count_at(t + 1, now), leq(t + 1));
    if (t > 0) {
      EXPECT_EQ(m.free_count_at(t - 1, now), leq(t - 1));
    }
  }
}

TEST(FreeTimeIndex, FuzzAgainstFromScratchRebuild) {
  Pcg32 rng(0xfeedu);
  const int kNodes = 12;
  cluster::Machine m(kNodes,
                     cluster::NodeConfig{.cores = 8, .smt_per_core = 2});
  SimTime now = 0;
  JobId next_job = 1;
  std::vector<JobId> live;

  for (int step = 0; step < 600; ++step) {
    now += rng.uniform_int(0, 50);
    const int op = static_cast<int>(rng.uniform_int(0, 9));
    if (op <= 3) {  // allocate primary
      const int want = static_cast<int>(rng.uniform_int(1, 4));
      const auto nodes = m.find_free_nodes(want);
      if (nodes.has_value()) {
        const SimTime end = now + rng.uniform_int(1, 500);
        m.allocate_primary(next_job, *nodes, end);
        live.push_back(next_job++);
      }
    } else if (op == 4) {  // allocate secondary on shareable nodes
      const int want = static_cast<int>(rng.uniform_int(1, 3));
      const auto nodes = testing::first_shareable(m, want);
      if (nodes.has_value()) {
        const SimTime end = now + rng.uniform_int(1, 500);
        m.allocate_secondary(next_job, *nodes, end);
        live.push_back(next_job++);
      }
    } else if (op <= 6 && !live.empty()) {  // release
      const std::size_t pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      m.release(live[pick]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    } else {  // toggle an empty node down/up
      const NodeId id =
          static_cast<NodeId>(rng.uniform_int(0, kNodes - 1));
      const cluster::Node& n = m.node(id);
      if (n.is_down()) {
        m.set_node_down(id, false);
      } else if (n.is_idle()) {
        m.set_node_down(id, true);
      }
    }
    m.check_invariants();
    expect_index_matches(m, now);
  }
}

TEST(FreeTimeIndex, GenerationStampsAreGloballyMonotone) {
  // The per-node stamps must move the max over ANY node subset on every
  // mutation — this is what the execution model's rate memoization keys
  // on. Independent per-node counters would fail this: a bump on a
  // low-counter node can hide under a sibling's higher value.
  cluster::Machine m(4, cluster::NodeConfig{.cores = 8, .smt_per_core = 2});
  m.allocate_primary(1, {0, 1}, 100);
  m.allocate_primary(2, {2, 3}, 100);
  const auto max_gen = [&](std::vector<NodeId> nodes) {
    std::uint64_t g = 0;
    for (NodeId id : nodes) g = std::max(g, m.node_generation(id));
    return g;
  };
  // Job 3 spans nodes {1, 2}; node 2 was resynced more recently (job 2's
  // allocation came later), so it holds the higher stamp.
  const std::uint64_t before = max_gen({1, 2});
  m.release(1);  // mutates node 1, the LOWER-stamped of the pair
  EXPECT_GT(max_gen({1, 2}), before)
      << "mutating the lower-stamped node must still move the max";
}

// --- 2. Shadow / profile differential ---------------------------------------

apps::Catalog test_catalog() { return apps::Catalog::trinity(); }

TEST(ShadowDifferential, MatchesReferenceOnRandomHosts) {
  const auto catalog = test_catalog();
  Pcg32 rng(0xabcdu);
  for (int trial = 0; trial < 200; ++trial) {
    const int nodes = static_cast<int>(rng.uniform_int(4, 24));
    testing::FakeHost host(nodes, catalog);
    const SimTime now = rng.uniform_int(0, 10'000);
    host.set_now(now);
    // Fill a random subset of the machine with running jobs whose
    // walltime ends straddle `now` (some already past it).
    JobId id = 1;
    int node = 0;
    while (node < nodes) {
      const int width =
          static_cast<int>(rng.uniform_int(1, 4));
      if (rng.uniform(0.0, 1.0) < 0.3) {  // leave a gap of free nodes
        node += width;
        continue;
      }
      std::vector<NodeId> placement;
      for (int k = 0; k < width && node < nodes; ++k) {
        placement.push_back(node++);
      }
      const SimTime started = now - rng.uniform_int(0, 2'000);
      const SimDuration limit = rng.uniform_int(1, 4'000);
      auto job = testing::make_job(id, static_cast<int>(placement.size()),
                                   limit, limit);
      job.submit_time = started;
      host.add_running_primary(std::move(job), placement, started);
      ++id;
    }
    if (host.machine().free_node_count() == nodes) continue;
    for (int head = 1; head <= nodes; ++head) {
      if (host.machine().free_node_count() >= head) continue;  // fits now
      const auto fast = core::compute_shadow(host, head);
      const auto ref = testing::compute_shadow_reference(host, head);
      ASSERT_EQ(fast.shadow_time, ref.shadow_time)
          << "trial " << trial << " head " << head;
      ASSERT_EQ(fast.extra_nodes, ref.extra_nodes)
          << "trial " << trial << " head " << head;
    }
  }
}

TEST(ShadowDifferential, ProfileMatchesPerNodeWalk) {
  // build_profile from sorted_busy_ends() must equal the profile built by
  // reserving each node's free window individually (reserve order is
  // immaterial: breakpoint insertion + summation commute).
  const auto catalog = test_catalog();
  Pcg32 rng(0x77u);
  for (int trial = 0; trial < 100; ++trial) {
    const int nodes = static_cast<int>(rng.uniform_int(4, 16));
    testing::FakeHost host(nodes, catalog);
    const SimTime now = rng.uniform_int(0, 5'000);
    host.set_now(now);
    JobId id = 1;
    for (int n = 0; n < nodes; ++n) {
      if (rng.uniform(0.0, 1.0) < 0.4) continue;
      const SimTime started = now - rng.uniform_int(0, 1'000);
      const SimDuration limit = rng.uniform_int(1, 2'000);
      auto job = testing::make_job(id, 1, limit, limit);
      host.add_running_primary(std::move(job), {n}, started);
      ++id;
    }
    const auto fast = core::build_profile(host);
    core::AvailabilityProfile ref(host.machine().node_count(), now);
    const auto free_times = testing::node_free_times(host);
    for (SimTime ft : free_times) {
      if (ft <= now) continue;
      const SimTime until =
          ft == kTimeInfinity ? kTimeInfinity / 2 : ft;
      ref.reserve(now, until, 1);
    }
    // reserve() commutes, so the step functions must be identical, not
    // merely equivalent at sampled points.
    ASSERT_EQ(fast.steps(), ref.steps()) << "trial " << trial;
  }
}

// --- 3. Early-exit invisibility ----------------------------------------------

struct ObservedRun {
  std::uint64_t digest = 0;
  std::size_t passes = 0;
  std::size_t events = 0;
  double makespan = 0;
  double mean_wait = 0;
  double sched_eff = 0;
  double comp_eff = 0;
  /// Passes skipped by the early exit: profiler calls of schedule_pass
  /// minus pass_strategy (runs without a tracer or registry only; those
  /// forbid skipping).
  std::uint64_t skipped = 0;
  /// The span ledger's JSON, when one was attached.
  std::string spans;
};

/// What a run attaches: nothing; only a span ledger; or a tracer, a
/// registry and a span ledger.
enum class Observers { kNone, kSpans, kFull };

struct EarlyExitCell {
  slurmlite::QueuePolicy policy;
  /// Stream load 2.5 on 2-way SMT nodes instead of the batch campaign:
  /// queues build and many passes open on a machine with no free node
  /// while every busy node still has a free secondary slot.
  bool saturated;
};

std::uint64_t profiled_calls(const char* phase) {
  std::uint64_t calls = 0;
  for (const auto& thread : obs::profiler_snapshot()) {
    for (const auto& [name, stats] : thread.phases) {
      if (name == phase) calls += stats.calls;
    }
  }
  return calls;
}

ObservedRun run_once(core::StrategyKind kind, Observers observers,
                     const EarlyExitCell& cell) {
  const auto catalog = test_catalog();
  obs::Tracer tracer;
  obs::Registry registry;
  obs::SpanLedger spans;
  slurmlite::SimulationSpec spec;
  spec.controller.nodes = 16;
  spec.controller.strategy = kind;
  spec.controller.queue_policy = cell.policy;
  if (observers == Observers::kFull) {
    spec.controller.tracer = &tracer;
    spec.controller.registry = &registry;
  }
  if (observers != Observers::kNone) spec.controller.spans = &spans;
  if (cell.saturated) {
    spec.controller.node_config.smt_per_core = 2;
    spec.workload = workload::trinity_stream(16, 200, 2.5);
  } else {
    spec.workload = workload::trinity_campaign(16, 80);
  }
  spec.seed = 7;
  spec.hash_events = true;
  const bool profiled = observers != Observers::kFull;
  obs::profiler_reset();
  obs::set_profiling_enabled(profiled);
  const auto result = slurmlite::run_simulation(spec, catalog);
  obs::set_profiling_enabled(false);
  ObservedRun run{result.event_stream_hash,
                  result.stats.scheduler_passes,
                  result.events_executed,
                  result.metrics.makespan_s,
                  result.metrics.mean_wait_s,
                  result.metrics.scheduling_efficiency,
                  result.metrics.computational_efficiency,
                  0,
                  {}};
  if (profiled) {
    run.skipped =
        profiled_calls("schedule_pass") - profiled_calls("pass_strategy");
  }
  if (observers != Observers::kNone) run.spans = spans.to_json();
  obs::profiler_reset();
  return run;
}

class EarlyExitInvisibility
    : public ::testing::TestWithParam<core::StrategyKind> {};

TEST_P(EarlyExitInvisibility, ObserversDoNotChangeOneByte) {
  for (const bool saturated : {false, true}) {
    for (const auto policy : {slurmlite::QueuePolicy::kFifo,
                              slurmlite::QueuePolicy::kPriority}) {
      SCOPED_TRACE(std::string(saturated ? "saturated " : "batch ") +
                   (policy == slurmlite::QueuePolicy::kFifo ? "fifo"
                                                            : "priority"));
      const EarlyExitCell cell{policy, saturated};
      const ObservedRun skipping = run_once(GetParam(), Observers::kNone, cell);
      const ObservedRun spans_only =
          run_once(GetParam(), Observers::kSpans, cell);
      const ObservedRun traced = run_once(GetParam(), Observers::kFull, cell);
      // Early-exit fires only in the runs without a tracer or registry;
      // every observable must still match exactly, including the pass
      // count (skipped passes are counted) and the bit-exact FNV digest.
      for (const ObservedRun* run : {&skipping, &spans_only}) {
        EXPECT_EQ(run->digest, traced.digest);
        EXPECT_EQ(run->passes, traced.passes);
        EXPECT_EQ(run->events, traced.events);
        EXPECT_EQ(run->makespan, traced.makespan);
        EXPECT_EQ(run->mean_wait, traced.mean_wait);
        EXPECT_EQ(run->sched_eff, traced.sched_eff);
        EXPECT_EQ(run->comp_eff, traced.comp_eff);
        EXPECT_LE(run->skipped, run->passes);
      }
      // A span ledger reads no pass, so it neither stops the skip nor
      // sees it: the same passes skip, and the ledger folds the same
      // bytes as one riding along with the tracer and registry.
      EXPECT_EQ(spans_only.skipped, skipping.skipped);
      EXPECT_EQ(spans_only.spans, traced.spans);
      // A full machine stops a primary-only strategy even though every
      // busy node has a free secondary slot, so its passes there skip.
      if (saturated && !core::is_co_strategy(GetParam())) {
        EXPECT_GT(skipping.skipped, 0u);
        EXPECT_GT(spans_only.skipped, 0u);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, EarlyExitInvisibility,
                         ::testing::ValuesIn(core::all_strategies()),
                         [](const auto& param_info) {
                           return std::string(
                               core::to_string(param_info.param));
                         });

// --- Engine slab pool --------------------------------------------------------

TEST(EnginePool, SlotReuseKeepsIdsSequential) {
  sim::Engine engine;
  std::vector<int> order;
  // Two waves through the pool: ids keep counting 1, 2, 3, ... even
  // though payload slots are recycled between waves.
  for (int wave = 0; wave < 2; ++wave) {
    for (int i = 0; i < 300; ++i) {  // > one 256-slot chunk
      const sim::EventId id = engine.schedule_at(
          wave * 1000 + i, sim::EventPriority::kTimer,
          [&order, wave, i] { order.push_back(wave * 1000 + i); });
      EXPECT_EQ(id, static_cast<sim::EventId>(wave * 300 + i + 1));
    }
    engine.run();
  }
  ASSERT_EQ(order.size(), 600u);
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
}

TEST(EnginePool, CancelledEventsAreSkippedAndSlotsRecycled) {
  sim::Engine engine;
  int fired = 0;
  std::vector<sim::EventId> ids;
  for (int i = 0; i < 100; ++i) {
    ids.push_back(engine.schedule_at(i, sim::EventPriority::kTimer,
                                     [&fired] { ++fired; }));
  }
  for (std::size_t i = 0; i < 100; i += 2) {
    EXPECT_TRUE(engine.cancel(ids[i]));
  }
  EXPECT_FALSE(engine.cancel(ids[0]));            // double cancel
  EXPECT_FALSE(engine.cancel(9999));              // never existed
  EXPECT_EQ(engine.pending(), 50u);
  engine.run();
  EXPECT_EQ(fired, 50);
  EXPECT_FALSE(engine.cancel(ids[1]));            // already executed
}

TEST(EnginePool, OversizedCallableFallsBackToHeap) {
  sim::Engine engine;
  std::array<std::uint64_t, 32> big{};  // 256 bytes: exceeds inline buffer
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = i * 3 + 1;
  std::uint64_t sum = 0;
  engine.schedule_at(5, sim::EventPriority::kTimer, [big, &sum] {
    for (std::uint64_t v : big) sum += v;
  });
  engine.run();
  std::uint64_t expected = 0;
  for (std::size_t i = 0; i < big.size(); ++i) expected += i * 3 + 1;
  EXPECT_EQ(sum, expected);
}

TEST(EnginePool, RescheduleFromInsideCallbackIsSafe) {
  // A callback scheduling new work while its own slot is being invoked
  // must not corrupt the pool (slots are released only after invoke).
  sim::Engine engine;
  int depth = 0;
  std::vector<SimTime> fire_times;
  struct Chain {
    sim::Engine& engine;
    int& depth;
    std::vector<SimTime>& times;
    void operator()() const {
      times.push_back(engine.now());
      if (++depth < 50) {
        engine.schedule_after(10, sim::EventPriority::kTimer, *this);
      }
    }
  };
  engine.schedule_at(0, sim::EventPriority::kTimer,
                     Chain{engine, depth, fire_times});
  engine.run();
  ASSERT_EQ(fire_times.size(), 50u);
  for (std::size_t i = 0; i < fire_times.size(); ++i) {
    EXPECT_EQ(fire_times[i], static_cast<SimTime>(10 * i));
  }
}

}  // namespace
}  // namespace cosched
