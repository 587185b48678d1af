#include <gtest/gtest.h>

#include <vector>

#include "sim/engine.hpp"

namespace cosched::sim {
namespace {

TEST(Engine, StartsAtZero) {
  Engine engine;
  EXPECT_EQ(engine.now(), 0);
  EXPECT_TRUE(engine.empty());
}

TEST(Engine, ExecutesInTimeOrder) {
  Engine engine;
  std::vector<int> order;
  engine.schedule_at(30, EventPriority::kTimer, "test",
                     [&] { order.push_back(3); });
  engine.schedule_at(10, EventPriority::kTimer, "test",
                     [&] { order.push_back(1); });
  engine.schedule_at(20, EventPriority::kTimer, "test",
                     [&] { order.push_back(2); });
  EXPECT_EQ(engine.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(engine.now(), 30);
}

TEST(Engine, PriorityBreaksTimeTies) {
  Engine engine;
  std::vector<int> order;
  engine.schedule_at(5, EventPriority::kSchedule, "test",
                     [&] { order.push_back(2); });
  engine.schedule_at(5, EventPriority::kJobEnd, "test",
                     [&] { order.push_back(1); });
  engine.schedule_at(5, EventPriority::kReport, "test",
                     [&] { order.push_back(3); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, InsertionOrderBreaksFullTies) {
  Engine engine;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    engine.schedule_at(7, EventPriority::kTimer, "test",
                       [&order, i] { order.push_back(i); });
  }
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Engine, EventsScheduledDuringRun) {
  Engine engine;
  std::vector<SimTime> times;
  engine.schedule_at(10, EventPriority::kTimer, "test", [&] {
    times.push_back(engine.now());
    engine.schedule_at(engine.now() + 5, EventPriority::kTimer, "test",
                       [&] { times.push_back(engine.now()); });
  });
  engine.run();
  EXPECT_EQ(times, (std::vector<SimTime>{10, 15}));
}

TEST(Engine, CancelPreventsExecution) {
  Engine engine;
  bool ran = false;
  const EventId id = engine.schedule_at(10, EventPriority::kTimer, "test",
                                        [&] { ran = true; });
  EXPECT_TRUE(engine.cancel(id));
  EXPECT_FALSE(engine.cancel(id));  // already cancelled
  engine.run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(engine.executed(), 0u);
}

TEST(Engine, CancelAfterExecutionFails) {
  Engine engine;
  const EventId id =
      engine.schedule_at(1, EventPriority::kTimer, "test", [] {});
  engine.run();
  EXPECT_FALSE(engine.cancel(id));
}

TEST(Engine, CancelInvalidIds) {
  Engine engine;
  EXPECT_FALSE(engine.cancel(kInvalidEvent));
  EXPECT_FALSE(engine.cancel(999));
}

TEST(Engine, RunUntilStopsAtBoundary) {
  Engine engine;
  std::vector<SimTime> times;
  for (SimTime t : {5, 10, 15, 20}) {
    engine.schedule_at(t, EventPriority::kTimer, "test",
                       [&times, &engine] { times.push_back(engine.now()); });
  }
  EXPECT_EQ(engine.run_until(12), 2u);
  EXPECT_EQ(engine.now(), 12);
  EXPECT_EQ(times, (std::vector<SimTime>{5, 10}));
  EXPECT_EQ(engine.pending(), 2u);
  engine.run();
  EXPECT_EQ(times.back(), 20);
}

TEST(Engine, RunUntilInclusiveOfBoundaryEvents) {
  Engine engine;
  int count = 0;
  engine.schedule_at(10, EventPriority::kTimer, "test", [&] { ++count; });
  engine.run_until(10);
  EXPECT_EQ(count, 1);
}

TEST(Engine, RunUntilAdvancesClockOnEmptyQueue) {
  Engine engine;
  engine.run_until(100);
  EXPECT_EQ(engine.now(), 100);
}

TEST(Engine, StepExecutesExactlyOne) {
  Engine engine;
  int count = 0;
  engine.schedule_at(1, EventPriority::kTimer, "test", [&] { ++count; });
  engine.schedule_at(2, EventPriority::kTimer, "test", [&] { ++count; });
  EXPECT_TRUE(engine.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(engine.step());
  EXPECT_FALSE(engine.step());
}

TEST(Engine, PendingCountsLiveEventsOnly) {
  Engine engine;
  const EventId a =
      engine.schedule_at(1, EventPriority::kTimer, "test", [] {});
  engine.schedule_at(2, EventPriority::kTimer, "test", [] {});
  EXPECT_EQ(engine.pending(), 2u);
  engine.cancel(a);
  EXPECT_EQ(engine.pending(), 1u);
}

TEST(Engine, SchedulingAtNowIsAllowed) {
  Engine engine;
  bool inner = false;
  engine.schedule_at(5, EventPriority::kTimer, "test", [&] {
    engine.schedule_at(engine.now(), EventPriority::kReport, "test",
                       [&] { inner = true; });
  });
  engine.run();
  EXPECT_TRUE(inner);
  EXPECT_EQ(engine.now(), 5);
}

TEST(Engine, ManyEventsStressAndDeterminism) {
  auto run_once = [] {
    Engine engine;
    std::vector<std::pair<SimTime, int>> log;
    // A deterministic pseudo-random-ish schedule using arithmetic.
    for (int i = 0; i < 2000; ++i) {
      const SimTime t = (i * 7919) % 1000;
      engine.schedule_at(t, EventPriority::kTimer, "test",
                         [&log, i, t] { log.emplace_back(t, i); });
    }
    engine.run();
    return log;
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a, b);
  for (std::size_t i = 1; i < a.size(); ++i) {
    EXPECT_LE(a[i - 1].first, a[i].first);
  }
}

}  // namespace
}  // namespace cosched::sim
