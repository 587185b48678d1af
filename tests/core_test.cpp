#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/pairing.hpp"
#include "core/profile.hpp"
#include "core/strategies.hpp"
#include "core/strategy_common.hpp"
#include "shadow_reference.hpp"
#include "test_support.hpp"
#include "util/json.hpp"

namespace cosched::core {
namespace {

using cosched::testing::FakeHost;
using cosched::testing::make_job;

const apps::Catalog& trinity() {
  static const apps::Catalog c = apps::Catalog::trinity();
  return c;
}

AppId app_id(const char* name) { return trinity().by_name(name).id; }

// --- AvailabilityProfile -----------------------------------------------------------

TEST(Profile, InitiallyAllFree) {
  AvailabilityProfile p(8, 0);
  EXPECT_EQ(p.free_at(0), 8);
  EXPECT_EQ(p.free_at(1'000'000'000), 8);
  EXPECT_EQ(p.steps().size(), 1u);
}

TEST(Profile, ReserveCarvesWindow) {
  AvailabilityProfile p(8, 0);
  p.reserve(100, 200, 3);
  EXPECT_EQ(p.free_at(99), 8);
  EXPECT_EQ(p.free_at(100), 5);
  EXPECT_EQ(p.free_at(199), 5);
  EXPECT_EQ(p.free_at(200), 8);
}

TEST(Profile, OverlappingReservationsStack) {
  AvailabilityProfile p(8, 0);
  p.reserve(100, 300, 2);
  p.reserve(200, 400, 3);
  EXPECT_EQ(p.free_at(150), 6);
  EXPECT_EQ(p.free_at(250), 3);
  EXPECT_EQ(p.free_at(350), 5);
  EXPECT_EQ(p.steps(), (std::vector<std::pair<SimTime, int>>{
                           {0, 8}, {100, 6}, {200, 3}, {300, 5}, {400, 8}}));
}

TEST(Profile, FindStartImmediateWhenFree) {
  AvailabilityProfile p(4, 0);
  EXPECT_EQ(p.find_start(0, 100, 4), 0);
}

TEST(Profile, FindStartWaitsForRelease) {
  AvailabilityProfile p(4, 0);
  p.reserve(0, 500, 3);  // only 1 free until 500
  EXPECT_EQ(p.find_start(0, 100, 1), 0);
  EXPECT_EQ(p.find_start(0, 100, 2), 500);
}

TEST(Profile, FindStartSkipsShortGaps) {
  AvailabilityProfile p(4, 0);
  p.reserve(0, 100, 3);
  p.reserve(150, 400, 3);
  // A 100-long 2-node job does not fit in the [100, 150) gap.
  EXPECT_EQ(p.find_start(0, 100, 2), 400);
  // A 40-long job does.
  EXPECT_EQ(p.find_start(0, 40, 2), 100);
}

TEST(Profile, FindStartRespectsEarliestBound) {
  AvailabilityProfile p(4, 0);
  EXPECT_EQ(p.find_start(250, 100, 2), 250);
}

TEST(Profile, FindStartImpossibleRequest) {
  AvailabilityProfile p(4, 0);
  EXPECT_EQ(p.find_start(0, 100, 5), kTimeInfinity);
}

TEST(Profile, ZeroDurationAndZeroCount) {
  AvailabilityProfile p(4, 0);
  p.reserve(0, 100, 4);
  // Even a zero-duration request needs the nodes free at that instant.
  EXPECT_EQ(p.find_start(0, 0, 4), 100);
  p.reserve(10, 20, 0);  // no-op
  EXPECT_EQ(p.free_at(15), 0);
}

// --- Strategy scenario fixtures ------------------------------------------------------

// A 4-node machine with a 3-node job running until t=100min leaves one
// free node; the queue head needs 4 nodes. Classic backfill setup.
struct BackfillScenario {
  FakeHost host{4, trinity()};
  BackfillScenario() {
    auto running = make_job(1, 3, 200 * kMinute, 100 * kMinute,
                            app_id("GTC"));
    host.add_running_primary(running, {0, 1, 2});
    host.add_pending(make_job(2, 4, 50 * kMinute, 60 * kMinute,
                              app_id("miniFE")));  // blocked head
  }
};

TEST(Fcfs, HeadOfLineBlocks) {
  BackfillScenario s;
  s.host.add_pending(
      make_job(3, 1, 10 * kMinute, 20 * kMinute, app_id("UMT")));
  FcfsScheduler().schedule(s.host);
  EXPECT_TRUE(s.host.starts().empty());  // head blocked => nothing starts
}

TEST(Fcfs, StartsInOrderWhileFitting) {
  FakeHost host(4, trinity());
  host.add_pending(make_job(1, 2, kHour, 2 * kHour, 0));
  host.add_pending(make_job(2, 2, kHour, 2 * kHour, 1));
  host.add_pending(make_job(3, 2, kHour, 2 * kHour, 2));  // no room
  FcfsScheduler().schedule(host);
  ASSERT_EQ(host.starts().size(), 2u);
  EXPECT_EQ(host.starts()[0].id, 1);
  EXPECT_EQ(host.starts()[1].id, 2);
}

TEST(FirstFit, SkipsBlockedHead) {
  BackfillScenario s;
  s.host.add_pending(
      make_job(3, 1, 10 * kMinute, 20 * kMinute, app_id("UMT")));
  FirstFitScheduler().schedule(s.host);
  ASSERT_EQ(s.host.starts().size(), 1u);
  EXPECT_EQ(s.host.starts()[0].id, 3);
  EXPECT_EQ(s.host.starts()[0].kind, cluster::AllocationKind::kPrimary);
}

TEST(Easy, BackfillsShortJobOnly) {
  BackfillScenario s;
  // Shadow = t+100min (GTC's walltime end). Job 3 fits before it; job 4
  // would delay the head's reservation.
  s.host.add_pending(
      make_job(3, 1, 200 * kMinute, 150 * kMinute, app_id("UMT")));
  s.host.add_pending(
      make_job(4, 1, 10 * kMinute, 30 * kMinute, app_id("AMG")));
  EasyBackfillScheduler().schedule(s.host);
  ASSERT_EQ(s.host.starts().size(), 1u);
  EXPECT_EQ(s.host.starts()[0].id, 4);
}

TEST(Easy, ExtraNodesAdmitLongJobs) {
  // 2-node running job until 100min; head needs 3 of 4 nodes. At the
  // shadow all 4 free, so one extra node admits arbitrarily long 1-node
  // backfills.
  FakeHost host(4, trinity());
  host.add_running_primary(
      make_job(1, 2, 90 * kMinute, 100 * kMinute, app_id("GTC")), {0, 1});
  host.add_pending(make_job(2, 3, kHour, 2 * kHour, app_id("SNAP")));
  host.add_pending(
      make_job(3, 1, 500 * kMinute, 600 * kMinute, app_id("UMT")));
  EasyBackfillScheduler().schedule(host);
  ASSERT_EQ(host.starts().size(), 1u);
  EXPECT_EQ(host.starts()[0].id, 3);
}

TEST(Easy, StartsHeadRunWhenMachineFree) {
  FakeHost host(4, trinity());
  host.add_pending(make_job(1, 2, kHour, 2 * kHour, 0));
  host.add_pending(make_job(2, 2, kHour, 2 * kHour, 1));
  EasyBackfillScheduler().schedule(host);
  EXPECT_EQ(host.starts().size(), 2u);
}

TEST(Easy, BackfillRecomputesShadowAfterStart) {
  // Two 1-node backfill candidates but only one can run without risking
  // the head reservation: after the first start consumes the free node,
  // nothing is left.
  BackfillScenario s;
  s.host.add_pending(
      make_job(3, 1, 10 * kMinute, 30 * kMinute, app_id("UMT")));
  s.host.add_pending(
      make_job(4, 1, 10 * kMinute, 30 * kMinute, app_id("AMG")));
  EasyBackfillScheduler().schedule(s.host);
  ASSERT_EQ(s.host.starts().size(), 1u);
  EXPECT_EQ(s.host.starts()[0].id, 3);
}

// --- EASY phase 2 on a full machine ---------------------------------------------------

/// One line per decision record: "shadow <head> <t_us> <extra>",
/// "backfill_reject <job> <reason>" or "co_decision <job>".
std::vector<std::string> decision_records(const obs::Tracer& tracer) {
  const auto num = [](const JsonValue& v) {
    return std::to_string(static_cast<long long>(v.as_number()));
  };
  std::vector<std::string> out;
  for (const std::string& line : tracer.lines()) {
    const JsonValue r = parse_json(line);
    const std::string type = r.at("type").as_string();
    if (type == "shadow") {
      out.push_back(type + " " + num(r.at("head")) + " " +
                    num(r.at("shadow_t_us")) + " " +
                    num(r.at("extra_nodes")));
    } else if (type == "backfill_reject") {
      out.push_back(type + " " + num(r.at("job")) + " " +
                    r.at("reason").as_string());
    } else if (type == "co_decision") {
      out.push_back(type + " " + num(r.at("job")));
    }
  }
  return out;
}

/// The records CoBackfill adds to EASY's: one co_decision per leftover
/// job, in queue order.
std::vector<std::string> with_co_decisions(std::vector<std::string> easy,
                                           const std::vector<JobId>& left) {
  for (JobId id : left) easy.push_back("co_decision " + std::to_string(id));
  return easy;
}

TEST(EasyPass, FullMachineFilesTheRestOfTheQueue) {
  // Both node pairs busy (ends at 100 and 200 min), six 1-node jobs
  // queued, depth 3: the head reserves node 0 at 100 min with one extra
  // node, the three jobs inside the budget are rejected for capacity and
  // the two beyond it for depth, all without starting anything.
  const auto fill = [](FakeHost& host) {
    host.add_running_primary(
        make_job(1, 2, 90 * kMinute, 100 * kMinute, app_id("GTC")), {0, 1});
    host.add_running_primary(
        make_job(2, 2, 90 * kMinute, 200 * kMinute, app_id("GTC")), {2, 3});
    for (JobId id = 11; id <= 16; ++id) {
      host.add_pending(make_job(id, 1, kHour, 300 * kMinute, app_id("UMT")));
    }
  };
  const std::vector<std::string> easy = {
      "shadow 11 " + std::to_string(100 * kMinute) + " 1",
      "backfill_reject 12 capacity",
      "backfill_reject 13 capacity",
      "backfill_reject 14 capacity",
      "backfill_reject 15 beyond_depth",
      "backfill_reject 16 beyond_depth"};

  FakeHost easy_host(4, trinity());
  fill(easy_host);
  obs::Tracer easy_trace;
  easy_host.set_tracer(&easy_trace);
  EasyBackfillScheduler(false, 3).schedule(easy_host);
  EXPECT_TRUE(easy_host.starts().empty());
  EXPECT_EQ(decision_records(easy_trace), easy);

  FakeHost co_host(4, trinity());
  fill(co_host);
  obs::Tracer co_trace;
  co_host.set_tracer(&co_trace);
  CoBackfillScheduler(CoAllocationOptions{}, false, 3).schedule(co_host);
  EXPECT_EQ(decision_records(co_trace),
            with_co_decisions(easy, {11, 12, 13, 14, 15, 16}));
}

TEST(EasyPass, BackfillTakingTheLastNodeStopsTheScan) {
  // Job 3 backfills onto the one free node; the shadow is recomputed and
  // the machine is full, so jobs 4-6 are filed without a lookup: capacity
  // inside the depth budget, beyond_depth past it.
  const std::string shadow = "shadow 2 " + std::to_string(100 * kMinute) +
                             " 0";
  for (const int depth : {0, 2}) {
    const auto queue_behind_head = [](FakeHost& host) {
      for (JobId id = 3; id <= 6; ++id) {
        host.add_pending(
            make_job(id, 1, 10 * kMinute, 30 * kMinute, app_id("UMT")));
      }
    };
    const std::vector<std::string> easy = {
        shadow,
        shadow,
        "backfill_reject 4 capacity",
        depth == 0 ? "backfill_reject 5 capacity"
                   : "backfill_reject 5 beyond_depth",
        depth == 0 ? "backfill_reject 6 capacity"
                   : "backfill_reject 6 beyond_depth"};

    BackfillScenario e;
    queue_behind_head(e.host);
    obs::Tracer easy_trace;
    e.host.set_tracer(&easy_trace);
    EasyBackfillScheduler(false, depth).schedule(e.host);
    ASSERT_EQ(e.host.starts().size(), 1u) << "depth " << depth;
    EXPECT_EQ(e.host.starts()[0].id, 3);
    EXPECT_EQ(e.host.machine().free_node_count(), 0);
    EXPECT_EQ(decision_records(easy_trace), easy) << "depth " << depth;

    BackfillScenario c;
    queue_behind_head(c.host);
    obs::Tracer co_trace;
    c.host.set_tracer(&co_trace);
    CoBackfillScheduler(CoAllocationOptions{}, false, depth).schedule(c.host);
    ASSERT_FALSE(c.host.starts().empty());
    EXPECT_EQ(c.host.starts()[0].id, 3);
    EXPECT_EQ(decision_records(co_trace),
              with_co_decisions(easy, {2, 4, 5, 6}))
        << "depth " << depth;
  }
}

TEST(Conservative, SafeBackfillStarts) {
  BackfillScenario s;
  s.host.add_pending(
      make_job(3, 1, 10 * kMinute, 30 * kMinute, app_id("UMT")));
  ConservativeBackfillScheduler().schedule(s.host);
  ASSERT_EQ(s.host.starts().size(), 1u);
  EXPECT_EQ(s.host.starts()[0].id, 3);
}

TEST(Conservative, RefusesBackfillThatDelaysAnyReservation) {
  BackfillScenario s;
  // 150-min walltime crosses the head's reservation window [100, 160):
  // with the head holding all 4 nodes there, no node is free for job 3.
  s.host.add_pending(
      make_job(3, 1, 140 * kMinute, 150 * kMinute, app_id("UMT")));
  ConservativeBackfillScheduler().schedule(s.host);
  EXPECT_TRUE(s.host.starts().empty());
}

TEST(Conservative, EmptyMachineStartsEverythingThatFits) {
  FakeHost host(4, trinity());
  host.add_pending(make_job(1, 3, kHour, 2 * kHour, 0));
  host.add_pending(make_job(2, 1, kHour, 2 * kHour, 1));
  ConservativeBackfillScheduler().schedule(host);
  EXPECT_EQ(host.starts().size(), 2u);
}

// --- Co-allocation gate ------------------------------------------------------------

struct CoScenario {
  FakeHost host{4, trinity()};
  CoAllocationOptions options{};
  CoScenario() {
    // Compute-bound GTC running on all nodes; nothing free.
    host.add_running_primary(
        make_job(1, 4, 90 * kMinute, 100 * kMinute, app_id("GTC")),
        {0, 1, 2, 3});
  }
};

TEST(CoAllocator, CompatiblePairAdmitted) {
  CoScenario s;
  s.host.add_pending(
      make_job(2, 2, 30 * kMinute, 40 * kMinute, app_id("miniFE")));
  const CoAllocator co(s.options);
  const auto nodes = co.select_nodes(s.host, 2, /*respect_deadline=*/true);
  ASSERT_TRUE(nodes.has_value());
  EXPECT_EQ(nodes->size(), 2u);
}

TEST(CoAllocator, MemoryOnMemoryRejected) {
  FakeHost host(4, trinity());
  host.add_running_primary(
      make_job(1, 4, 90 * kMinute, 100 * kMinute, app_id("MILC")),
      {0, 1, 2, 3});
  host.add_pending(
      make_job(2, 2, 30 * kMinute, 40 * kMinute, app_id("miniFE")));
  const CoAllocator co(CoAllocationOptions{});
  EXPECT_FALSE(co.select_nodes(host, 2, true).has_value());
}

TEST(CoAllocator, DeadlineGateRejectsOutliving) {
  CoScenario s;
  // Candidate walltime 150 min > primary's remaining 100 min.
  s.host.add_pending(
      make_job(2, 1, 30 * kMinute, 150 * kMinute, app_id("miniFE")));
  const CoAllocator co(s.options);
  EXPECT_FALSE(co.select_nodes(s.host, 2, /*respect_deadline=*/true));
  // Without the deadline requirement the pair is fine.
  EXPECT_TRUE(co.select_nodes(s.host, 2, /*respect_deadline=*/false));
}

TEST(CoAllocator, NonShareableCandidateRejected) {
  CoScenario s;
  auto job = make_job(2, 1, 30 * kMinute, 40 * kMinute, app_id("miniFE"));
  job.shareable = false;
  s.host.add_pending(job);
  const CoAllocator co(s.options);
  EXPECT_FALSE(co.select_nodes(s.host, 2, true).has_value());
}

TEST(CoAllocator, NonShareableResidentRejected) {
  FakeHost host(4, trinity());
  auto primary = make_job(1, 4, 90 * kMinute, 100 * kMinute, app_id("GTC"));
  primary.shareable = false;
  host.add_running_primary(primary, {0, 1, 2, 3});
  host.add_pending(
      make_job(2, 1, 30 * kMinute, 40 * kMinute, app_id("miniFE")));
  const CoAllocator co(CoAllocationOptions{});
  EXPECT_FALSE(co.select_nodes(host, 2, true).has_value());
}

TEST(CoAllocator, MaxDilationGate) {
  CoScenario s;
  s.host.add_pending(
      make_job(2, 1, 30 * kMinute, 40 * kMinute, app_id("miniFE")));
  CoAllocationOptions strict;
  strict.max_dilation = 1.01;  // nothing passes a 1% dilation budget
  EXPECT_FALSE(
      CoAllocator(strict).select_nodes(s.host, 2, true).has_value());
}

TEST(CoAllocator, ThresholdGate) {
  CoScenario s;
  s.host.add_pending(
      make_job(2, 1, 30 * kMinute, 40 * kMinute, app_id("miniFE")));
  CoAllocationOptions greedy;
  greedy.pairing_threshold = 0.90;  // demand a 1.9x combined throughput
  EXPECT_FALSE(
      CoAllocator(greedy).select_nodes(s.host, 2, true).has_value());
}

TEST(CoAllocator, InsufficientAdmissibleNodes) {
  FakeHost host(4, trinity());
  host.add_running_primary(
      make_job(1, 2, 90 * kMinute, 100 * kMinute, app_id("GTC")), {0, 1});
  // Nodes 2, 3 are idle: idle nodes are not shareable targets.
  host.add_pending(
      make_job(2, 3, 30 * kMinute, 40 * kMinute, app_id("miniFE")));
  const CoAllocator co(CoAllocationOptions{});
  EXPECT_FALSE(co.select_nodes(host, 2, true).has_value());
}

TEST(CoAllocator, RanksByCombinedThroughput) {
  FakeHost host(4, trinity());
  // GTC (compute) on nodes 0-1 pairs better with miniFE than MILC does.
  host.add_running_primary(
      make_job(1, 2, 90 * kMinute, 100 * kMinute, app_id("GTC")), {0, 1});
  host.add_running_primary(
      make_job(2, 2, 90 * kMinute, 100 * kMinute, app_id("UMT")), {2, 3});
  host.add_pending(
      make_job(3, 1, 30 * kMinute, 40 * kMinute, app_id("miniFE")));
  const CoAllocator co(CoAllocationOptions{});
  const auto nodes = co.select_nodes(host, 3, true);
  ASSERT_TRUE(nodes.has_value());
  EXPECT_EQ(nodes->front(), 0);  // best partner first (GTC on node 0)
}

// --- Co strategies -------------------------------------------------------------------

TEST(CoFirstFit, FallsBackToSharing) {
  CoScenario s;
  s.host.add_pending(
      make_job(2, 2, 30 * kMinute, 40 * kMinute, app_id("miniFE")));
  CoFirstFitScheduler(s.options).schedule(s.host);
  ASSERT_EQ(s.host.starts().size(), 1u);
  EXPECT_EQ(s.host.starts()[0].kind, cluster::AllocationKind::kSecondary);
}

TEST(CoFirstFit, PrefersPrimaryWhenFree) {
  FakeHost host(4, trinity());
  host.add_running_primary(
      make_job(1, 2, 90 * kMinute, 100 * kMinute, app_id("GTC")), {0, 1});
  host.add_pending(
      make_job(2, 2, 30 * kMinute, 40 * kMinute, app_id("miniFE")));
  CoFirstFitScheduler(CoAllocationOptions{}).schedule(host);
  ASSERT_EQ(host.starts().size(), 1u);
  EXPECT_EQ(host.starts()[0].kind, cluster::AllocationKind::kPrimary);
  EXPECT_EQ(host.starts()[0].nodes, (std::vector<NodeId>{2, 3}));
}

TEST(CoBackfill, SharesAfterBackfillPass) {
  CoScenario s;
  s.host.add_pending(
      make_job(2, 2, 30 * kMinute, 40 * kMinute, app_id("miniFE")));
  CoBackfillScheduler(s.options).schedule(s.host);
  ASSERT_EQ(s.host.starts().size(), 1u);
  EXPECT_EQ(s.host.starts()[0].id, 2);
  EXPECT_EQ(s.host.starts()[0].kind, cluster::AllocationKind::kSecondary);
}

TEST(CoBackfill, DegradesToEasyWhenNothingPairs) {
  // All-memory mix: the co pass admits nothing, so behaviour equals EASY.
  FakeHost co_host(4, trinity());
  FakeHost easy_host(4, trinity());
  for (FakeHost* host : {&co_host, &easy_host}) {
    host->add_running_primary(
        make_job(1, 3, 90 * kMinute, 100 * kMinute, app_id("MILC")),
        {0, 1, 2});
    host->add_pending(
        make_job(2, 4, kHour, 2 * kHour, app_id("miniFE")));  // head
    host->add_pending(
        make_job(3, 1, 10 * kMinute, 30 * kMinute, app_id("SNAP")));
  }
  CoBackfillScheduler(CoAllocationOptions{}).schedule(co_host);
  EasyBackfillScheduler().schedule(easy_host);
  ASSERT_EQ(co_host.starts().size(), easy_host.starts().size());
  for (std::size_t i = 0; i < co_host.starts().size(); ++i) {
    EXPECT_EQ(co_host.starts()[i].id, easy_host.starts()[i].id);
    EXPECT_EQ(co_host.starts()[i].kind, easy_host.starts()[i].kind);
  }
}

TEST(CoBackfill, HeadMayStartAsSecondary) {
  CoScenario s;
  // The head itself is co-allocatable: better to start now than wait.
  s.host.add_pending(
      make_job(2, 4, 30 * kMinute, 40 * kMinute, app_id("miniFE")));
  CoBackfillScheduler(s.options).schedule(s.host);
  ASSERT_EQ(s.host.starts().size(), 1u);
  EXPECT_EQ(s.host.starts()[0].id, 2);
  EXPECT_EQ(s.host.starts()[0].kind, cluster::AllocationKind::kSecondary);
}

// --- Factory / names -------------------------------------------------------------------

TEST(Factory, RoundTripsNames) {
  for (StrategyKind kind : all_strategies()) {
    EXPECT_EQ(parse_strategy(to_string(kind)), kind);
    const auto scheduler = make_scheduler(kind);
    EXPECT_EQ(scheduler->name(), to_string(kind));
  }
}

TEST(Factory, ParseIsCaseInsensitive) {
  EXPECT_EQ(parse_strategy("CoBackfill"), StrategyKind::kCoBackfill);
  EXPECT_EQ(parse_strategy("EASY"), StrategyKind::kEasyBackfill);
}

TEST(Factory, RejectsUnknown) {
  EXPECT_THROW(parse_strategy("sjf"), Error);
}

TEST(Factory, CoStrategyPredicate) {
  EXPECT_TRUE(is_co_strategy(StrategyKind::kCoFirstFit));
  EXPECT_TRUE(is_co_strategy(StrategyKind::kCoBackfill));
  EXPECT_FALSE(is_co_strategy(StrategyKind::kEasyBackfill));
  EXPECT_FALSE(is_co_strategy(StrategyKind::kFcfs));
}

// --- strategy_common helpers -------------------------------------------------------------

TEST(StrategyCommon, NodeFreeTimes) {
  FakeHost host(3, trinity());
  host.add_running_primary(
      make_job(1, 1, 50 * kMinute, kHour, app_id("GTC")), {1});
  const auto times = cosched::testing::node_free_times(host);
  ASSERT_EQ(times.size(), 3u);
  EXPECT_EQ(times[0], 0);
  EXPECT_EQ(times[1], kHour);
  EXPECT_EQ(times[2], 0);
}

TEST(StrategyCommon, ShadowComputation) {
  FakeHost host(4, trinity());
  host.add_running_primary(
      make_job(1, 2, 50 * kMinute, kHour, app_id("GTC")), {0, 1});
  host.add_running_primary(
      make_job(2, 1, 50 * kMinute, 2 * kHour, app_id("UMT")), {2});
  // Free times: {now, hour, hour, 2h}. A 3-node head fits at `hour`,
  // with 3 nodes available then (extra = 0).
  const auto shadow = compute_shadow(host, 3);
  EXPECT_EQ(shadow.shadow_time, kHour);
  EXPECT_EQ(shadow.extra_nodes, 0);
  // A 1-node head fits now with zero extras beyond it... the only node
  // free at time now is node 3.
  const auto small = compute_shadow(host, 1);
  EXPECT_EQ(small.shadow_time, 0);
  EXPECT_EQ(small.extra_nodes, 0);
}

}  // namespace
}  // namespace cosched::core
