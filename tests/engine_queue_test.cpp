// Differential tests pinning the Engine's event heap to a plain reference:
// a std::map keyed by (time, priority, id). The engine must pop the exact
// same event sequence for any interleaving of schedules, cancels,
// reschedules, duplicate timestamps, far-future events and purge sweeps.
// End to end, the goldens pin the digests full simulations reach.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <tuple>
#include <vector>

#include "sim/engine.hpp"
#include "util/rng.hpp"

namespace cosched {
namespace {

/// One executed event, enough to compare pop order.
struct Executed {
  SimTime time;
  std::uint64_t tag;
  bool operator==(const Executed&) const = default;
};

/// The event queue the Engine must be indistinguishable from: an ordered
/// map from (time, priority, id) to the event's tag, plus id -> key for
/// cancel. Ids count up densely from 1, as the Engine numbers them.
class ReferenceQueue {
 public:
  sim::EventId schedule(SimTime when, sim::EventPriority priority,
                        std::uint64_t tag) {
    const sim::EventId id = next_id_++;
    const Key key{when, priority, id};
    queue_.emplace(key, tag);
    key_of_.emplace(id, key);
    return id;
  }

  bool cancel(sim::EventId id) {
    const auto it = key_of_.find(id);
    if (it == key_of_.end()) return false;
    queue_.erase(it->second);
    key_of_.erase(it);
    return true;
  }

  bool step() {
    if (queue_.empty()) return false;
    const auto top = queue_.begin();
    now_ = std::get<0>(top->first);
    log_.push_back(Executed{now_, top->second});
    key_of_.erase(std::get<2>(top->first));
    queue_.erase(top);
    return true;
  }

  /// Runs events with time <= `until`; the clock ends at `until`.
  std::size_t run_until(SimTime until) {
    std::size_t n = 0;
    while (!queue_.empty() && std::get<0>(queue_.begin()->first) <= until) {
      step();
      ++n;
    }
    now_ = until;
    return n;
  }

  std::size_t run() {
    std::size_t n = 0;
    while (step()) ++n;
    return n;
  }

  SimTime now() const { return now_; }
  bool empty() const { return queue_.empty(); }
  const std::vector<Executed>& log() const { return log_; }

 private:
  using Key = std::tuple<SimTime, sim::EventPriority, sim::EventId>;
  std::map<Key, std::uint64_t> queue_;
  std::map<sim::EventId, Key> key_of_;
  sim::EventId next_id_ = 1;
  SimTime now_ = 0;
  std::vector<Executed> log_;
};

/// Drives one Engine and the reference through an identical operation
/// sequence and asserts their executed streams match at every drain point.
class EnginePair {
 public:
  sim::EventId schedule(SimTime when, sim::EventPriority priority,
                        std::uint64_t tag) {
    const sim::EventId e =
        engine_.schedule_at(when, priority, "test", [this, tag] {
          engine_log_.push_back(Executed{engine_.now(), tag});
        });
    const sim::EventId r = reference_.schedule(when, priority, tag);
    EXPECT_EQ(e, r);  // ids are dense insertion counters in both
    live_.push_back(e);
    return e;
  }

  void cancel(sim::EventId id) {
    ASSERT_EQ(engine_.cancel(id), reference_.cancel(id)) << "id " << id;
  }

  void cancel_nth(std::size_t n) {
    if (live_.empty()) return;
    cancel(live_[n % live_.size()]);
  }

  void step_both() {
    ASSERT_EQ(engine_.step(), reference_.step());
    check_logs();
  }

  void run_until_both(SimTime until) {
    if (until < engine_.now()) return;
    ASSERT_EQ(engine_.run_until(until), reference_.run_until(until));
    check_logs();
  }

  void drain_both() {
    ASSERT_EQ(engine_.run(), reference_.run());
    check_logs();
    ASSERT_TRUE(engine_.empty());
    ASSERT_TRUE(reference_.empty());
  }

  SimTime now() const { return engine_.now(); }
  const sim::Engine& engine() const { return engine_; }

 private:
  void check_logs() {
    ASSERT_EQ(engine_.now(), reference_.now());
    const std::vector<Executed>& expected = reference_.log();
    ASSERT_EQ(engine_log_.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(engine_log_[i].time, expected[i].time) << "index " << i;
      ASSERT_EQ(engine_log_[i].tag, expected[i].tag) << "index " << i;
    }
  }

  sim::Engine engine_;
  ReferenceQueue reference_;
  std::vector<Executed> engine_log_;
  std::vector<sim::EventId> live_;
};

sim::EventPriority random_priority(Pcg32& rng) {
  return static_cast<sim::EventPriority>(rng.uniform_int(0, 4));
}

TEST(EngineQueueDifferential, RandomInterleavings) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Pcg32 rng(seed);
    EnginePair pair;
    std::uint64_t tag = 0;
    for (int op = 0; op < 600; ++op) {
      const auto kind = static_cast<int>(rng.uniform_int(0, 9));
      const SimTime base = pair.now();
      if (kind <= 4) {
        // Mostly near-future, frequently duplicate timestamps.
        const SimTime when =
            base + rng.uniform_int(0, 5) * (kSecond / 4);
        pair.schedule(when, random_priority(rng), tag++);
      } else if (kind == 5) {
        // Far-future event, hours to months beyond the near-future ones.
        const SimTime when =
            base + kSecond * rng.uniform_int(100'000, 10'000'000);
        pair.schedule(when, random_priority(rng), tag++);
      } else if (kind == 6) {
        pair.cancel_nth(static_cast<std::size_t>(rng.uniform_int(0, 1 << 20)));
      } else if (kind == 7) {
        // Reschedule: cancel one, schedule a replacement nearby.
        pair.cancel_nth(static_cast<std::size_t>(rng.uniform_int(0, 1 << 20)));
        pair.schedule(base + rng.uniform_int(0, 3) * kSecond,
                      random_priority(rng), tag++);
      } else if (kind == 8) {
        pair.step_both();
        if (::testing::Test::HasFatalFailure()) return;
      } else {
        pair.run_until_both(base + rng.uniform_int(0, 20) * kSecond);
        if (::testing::Test::HasFatalFailure()) return;
      }
      if (::testing::Test::HasFatalFailure()) return;
    }
    pair.drain_both();
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(EngineQueueDifferential, DuplicateTimestampBursts) {
  EnginePair pair;
  std::uint64_t tag = 0;
  // Many events at the same instants, mixed priorities: pop order must
  // fall back to priority then insertion id, as the reference's key does.
  for (int round = 0; round < 50; ++round) {
    const SimTime when = (round / 5) * kSecond;
    for (int i = 0; i < 8; ++i) {
      pair.schedule(when, static_cast<sim::EventPriority>(i % 5), tag++);
    }
  }
  pair.drain_both();
}

TEST(EngineQueueDifferential, RescheduleEarlierAcrossRunUntil) {
  // run_until stops the clock between two pending events, then a schedule
  // lands between `now` and the next pending one (a job-end moved
  // earlier): it must still pop first.
  EnginePair pair;
  std::uint64_t tag = 0;
  pair.schedule(100 * kSecond, sim::EventPriority::kJobEnd, tag++);
  pair.schedule(200 * kSecond, sim::EventPriority::kJobEnd, tag++);
  pair.run_until_both(150 * kSecond);
  if (::testing::Test::HasFatalFailure()) return;
  // Before the next pending event (200s), after now (150s).
  pair.schedule(160 * kSecond, sim::EventPriority::kJobEnd, tag++);
  pair.schedule(155 * kSecond, sim::EventPriority::kSubmit, tag++);
  pair.schedule(200 * kSecond, sim::EventPriority::kSubmit, tag++);
  pair.drain_both();
}

TEST(EngineQueueDifferential, PurgeSweepsKeepPopOrder) {
  // A purge sweeps the tombstones out of a heap that has already popped
  // and re-heaps what is left; the live pop order must not move.
  Pcg32 rng(0x9e7);
  EnginePair pair;
  std::uint64_t tag = 0;
  std::vector<sim::EventId> burst;
  for (int i = 0; i < 600; ++i) {
    burst.push_back(pair.schedule(rng.uniform_int(0, kSecond - 1),
                                  random_priority(rng), tag++));
  }
  pair.step_both();  // the heap has popped once before the purge
  if (::testing::Test::HasFatalFailure()) return;
  std::vector<sim::EventId> far;
  for (int i = 0; i < 6000; ++i) {
    far.push_back(pair.schedule(
        kSecond * rng.uniform_int(1'000'000, 2'000'000),
        random_priority(rng), tag++));
  }
  // Tombstones overtake the live events partway through the far-future
  // cancels, with half the near-future burst already dead.
  for (std::size_t i = 1; i < burst.size(); i += 2) pair.cancel(burst[i]);
  for (sim::EventId id : far) pair.cancel(id);
  if (::testing::Test::HasFatalFailure()) return;
  ASSERT_GT(pair.engine().purged_total(), 0u);
  pair.drain_both();
}

}  // namespace
}  // namespace cosched
