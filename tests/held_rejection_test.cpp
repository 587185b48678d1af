// Lockstep parity for held rejections. The same workload runs twice: once
// untraced, where CoAllocator::select_nodes may answer a candidate from a
// rejection held since the machine last changed, and once with a tracer
// streaming into a discarding sink, where every candidate walks the gate
// table. An event observer records the jobs each executed schedule_pass
// event started; the two runs must agree on every pass's start list, on
// the event-stream digest, on every metric bit for bit, and on every kept
// job record. Nothing but the tracer selects the path.
//
// Cells: all seven strategies x FIFO/priority queues x ThreadsPerCore 1-4
// x the three gate modes, on a saturated workload where a quarter of the
// jobs refuse sharing. The primary-only strategies and the learned gate
// never hold a rejection; their cells pin that the tracer alone changes
// nothing either.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <iterator>
#include <ostream>
#include <streambuf>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "apps/catalog.hpp"
#include "audit/determinism.hpp"
#include "metrics/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/engine.hpp"
#include "slurmlite/controller.hpp"
#include "util/rng.hpp"
#include "workload/campaign.hpp"
#include "workload/generator.hpp"

namespace cosched {
namespace {

constexpr int kNodes = 24;
constexpr int kJobs = 160;
constexpr double kLoad = 2.5;
constexpr double kShareableProb = 0.75;

/// Swallows every byte, so the traced run pays nothing to keep records.
class Discard final : public std::streambuf {
 protected:
  int_type overflow(int_type ch) override {
    return traits_type::not_eof(ch);
  }
  std::streamsize xsputn(const char*, std::streamsize n) override {
    return n;
  }
};

/// After every executed schedule_pass event, the jobs it started: those
/// running now that were not running after the previous event.
class PassStarts final : public sim::EventObserver {
 public:
  explicit PassStarts(const slurmlite::Controller& controller)
      : controller_(controller) {}

  void on_event_executed(SimTime, sim::EventPriority, sim::EventId,
                         const char* label) override {
    std::vector<JobId> running = controller_.running_ids();
    std::sort(running.begin(), running.end());
    if (std::string_view(label) == "schedule_pass") {
      std::vector<JobId>& started = passes.emplace_back();
      std::set_difference(running.begin(), running.end(), running_.begin(),
                          running_.end(), std::back_inserter(started));
    }
    running_ = std::move(running);
  }

  std::vector<std::vector<JobId>> passes;

 private:
  const slurmlite::Controller& controller_;
  std::vector<JobId> running_;
};

/// Every metric as its bit pattern, so equal means bit-identical.
std::vector<std::uint64_t> bits(const metrics::ScheduleMetrics& m) {
  std::vector<std::uint64_t> out = {
      static_cast<std::uint64_t>(m.jobs_total),
      static_cast<std::uint64_t>(m.jobs_completed),
      static_cast<std::uint64_t>(m.jobs_timeout)};
  for (const double d :
       {m.makespan_s, m.total_work_node_s, m.busy_node_s, m.lost_work_node_s,
        m.scheduling_efficiency, m.computational_efficiency, m.utilization,
        m.mean_wait_s, m.p95_wait_s, m.max_wait_s, m.mean_bounded_slowdown,
        m.p95_bounded_slowdown, m.mean_dilation, m.shared_node_s,
        m.throughput_jobs_per_h, m.energy_kwh, m.work_node_h_per_kwh}) {
    out.push_back(std::bit_cast<std::uint64_t>(d));
  }
  return out;
}

struct Outcome {
  std::vector<std::vector<JobId>> passes;
  std::uint64_t digest = 0;
  std::vector<std::uint64_t> metrics;
  workload::JobList jobs;
  std::size_t secondary_starts = 0;
};

using Cell = std::tuple<core::StrategyKind, slurmlite::QueuePolicy,
                        core::GateMode, int>;

Outcome run(const Cell& cell, const workload::JobList& jobs, bool traced) {
  const auto [kind, queue, gate, tpc] = cell;
  static const apps::Catalog catalog = apps::Catalog::trinity();
  slurmlite::ControllerConfig config;
  config.nodes = kNodes;
  config.node_config.smt_per_core = tpc;
  config.strategy = kind;
  config.queue_policy = queue;
  config.scheduler_options.co.gate_mode = gate;
  Discard discard;
  std::ostream sink(&discard);
  obs::Tracer tracer;
  tracer.stream_to(&sink);
  if (traced) config.tracer = &tracer;

  sim::Engine engine;
  slurmlite::Controller controller(engine, config, catalog);
  PassStarts starts(controller);
  audit::EventStreamHasher hasher;
  engine.add_observer(&starts);
  engine.add_observer(&hasher);
  controller.submit_all(jobs);
  engine.run();

  Outcome out;
  out.passes = std::move(starts.passes);
  controller.fold_retired_digests(hasher.hash());
  out.digest = hasher.digest();
  out.metrics = bits(controller.stream_metrics());
  out.jobs = controller.take_job_records();
  out.secondary_starts = controller.stats().secondary_starts;
  return out;
}

class HeldRejectionParity : public ::testing::TestWithParam<Cell> {};

TEST_P(HeldRejectionParity, UntracedRunMatchesTracedRunPassByPass) {
  workload::GeneratorParams params =
      workload::trinity_stream(kNodes, kJobs, kLoad);
  params.shareable_prob = kShareableProb;
  Pcg32 rng(derive_seed(31, 0), /*stream=*/0x5eed);
  const workload::JobList jobs =
      workload::Generator(params, apps::Catalog::trinity()).generate(rng);

  const Outcome held = run(GetParam(), jobs, /*traced=*/false);
  const Outcome walked = run(GetParam(), jobs, /*traced=*/true);

  ASSERT_EQ(held.passes.size(), walked.passes.size());
  for (std::size_t p = 0; p < held.passes.size(); ++p) {
    ASSERT_EQ(held.passes[p], walked.passes[p]) << "schedule_pass #" << p;
  }
  EXPECT_EQ(held.digest, walked.digest);
  EXPECT_EQ(held.metrics, walked.metrics);
  ASSERT_EQ(held.jobs.size(), walked.jobs.size());
  for (std::size_t i = 0; i < held.jobs.size(); ++i) {
    const workload::Job& a = held.jobs[i];
    const workload::Job& b = walked.jobs[i];
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.state, b.state) << "job " << a.id;
    EXPECT_EQ(a.start_time, b.start_time) << "job " << a.id;
    EXPECT_EQ(a.end_time, b.end_time) << "job " << a.id;
    EXPECT_EQ(a.alloc_kind, b.alloc_kind) << "job " << a.id;
    EXPECT_EQ(a.alloc_nodes, b.alloc_nodes) << "job " << a.id;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.observed_dilation),
              std::bit_cast<std::uint64_t>(b.observed_dilation))
        << "job " << a.id;
    EXPECT_EQ(a.requeues, b.requeues) << "job " << a.id;
  }
  // The cell must have been busy: passes ran, and a co strategy on a
  // node with secondary slots shared some nodes.
  EXPECT_GT(held.passes.size(), 100u);
  const auto [kind, queue, gate, tpc] = GetParam();
  if (core::is_co_strategy(kind) && tpc > 1) {
    EXPECT_GT(held.secondary_starts, 0u);
  }
}

std::string cell_name(const ::testing::TestParamInfo<Cell>& info) {
  const auto [kind, queue, gate, tpc] = info.param;
  std::string gate_name = core::to_string(gate);
  std::erase(gate_name, '-');
  return std::string(core::to_string(kind)) +
         (queue == slurmlite::QueuePolicy::kFifo ? "_fifo_" : "_prio_") +
         gate_name + "_tpc" + std::to_string(tpc);
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategiesQueuesGatesAndSmt, HeldRejectionParity,
    ::testing::Combine(::testing::ValuesIn(core::all_strategies()),
                       ::testing::Values(slurmlite::QueuePolicy::kFifo,
                                         slurmlite::QueuePolicy::kPriority),
                       ::testing::Values(core::GateMode::kOracle,
                                         core::GateMode::kClassRule,
                                         core::GateMode::kLearned),
                       ::testing::Values(1, 2, 3, 4)),
    cell_name);

}  // namespace
}  // namespace cosched
