// In-simulation parity: every co_decision the gate table makes inside a
// full controller run equals what the node-by-node reference scan
// (co_scan_reference.hpp) answers on the same machine at the same instant.
//
// The decision trace streams into a LineTap. A co_decision record is
// written from inside CoAllocator::select_nodes, before the strategy acts
// on it, so when the tap sees one the controller still holds the state the
// table answered from. The tap then asks the reference about the same
// candidate through a host view that forwards every query to the
// controller but traces into a private tracer, and the two records must
// match byte for byte: chosen nodes, scanned/admissible counts and every
// per-reason tally. Where the fuzz (co_scan_fuzz_test.cpp) builds machine
// states at random, this suite meets the states real strategies produce:
// EASY and conservative reservations, secondaries promoted when primaries
// end, and a pair estimator that learns from finished co-runs.
//
// Cells: every co strategy x queue policy x gate mode x SMT degree 2-4 on
// a saturated workload where a quarter of the jobs refuse sharing.
#include <gtest/gtest.h>

#include <ostream>
#include <streambuf>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "apps/catalog.hpp"
#include "co_scan_reference.hpp"
#include "obs/trace.hpp"
#include "sim/engine.hpp"
#include "slurmlite/controller.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "workload/campaign.hpp"
#include "workload/generator.hpp"

namespace cosched {
namespace {

constexpr int kNodes = 24;
constexpr int kJobs = 160;
constexpr double kLoad = 2.5;
constexpr double kShareableProb = 0.75;
/// Above 0.43, so the oracle also rejects below_threshold (see the
/// co-decision golden in golden_test.cpp).
constexpr double kPairingThreshold = 0.45;

/// A streambuf that hands each complete line to `on_line`.
template <typename OnLine>
class LineTap final : public std::streambuf {
 public:
  explicit LineTap(OnLine on_line) : on_line_(std::move(on_line)) {}

 protected:
  int_type overflow(int_type ch) override {
    if (traits_type::eq_int_type(ch, traits_type::eof())) return 0;
    const char c = traits_type::to_char_type(ch);
    if (c == '\n') {
      on_line_(line_);
      line_.clear();
    } else {
      line_.push_back(c);
    }
    return ch;
  }

 private:
  OnLine on_line_;
  std::string line_;
};

/// Read-only view of a live host whose decision records go to a private
/// tracer. The reference scan only queries; acting through it is a bug.
class ReferenceView final : public core::SchedulerHost {
 public:
  ReferenceView(const core::SchedulerHost& host, obs::Tracer& tracer)
      : host_(host), tracer_(tracer) {}

  SimTime now() const override { return host_.now(); }
  const cluster::Machine& machine() const override { return host_.machine(); }
  const std::vector<JobId>& pending() const override {
    return host_.pending();
  }
  const workload::Job& job(JobId id) const override { return host_.job(id); }
  const apps::AppModel& app_of(JobId id) const override {
    return host_.app_of(id);
  }
  const interference::CorunModel& corun() const override {
    return host_.corun();
  }
  SimTime walltime_end(JobId running) const override {
    return host_.walltime_end(running);
  }
  const interference::PairEstimator* pair_estimator() const override {
    return host_.pair_estimator();
  }
  SimDuration predicted_runtime(JobId pending) const override {
    return host_.predicted_runtime(pending);
  }
  obs::Tracer* tracer() const override { return &tracer_; }
  void start_primary(JobId id, const std::vector<NodeId>&) override {
    ADD_FAILURE() << "reference scan started job " << id;
  }
  void start_secondary(JobId id, const std::vector<NodeId>&) override {
    ADD_FAILURE() << "reference scan started job " << id;
  }

 private:
  const core::SchedulerHost& host_;
  obs::Tracer& tracer_;
};

using Cell =
    std::tuple<core::StrategyKind, slurmlite::QueuePolicy, core::GateMode,
               int>;

class CoScanParity : public ::testing::TestWithParam<Cell> {};

TEST_P(CoScanParity, EveryDecisionMatchesTheNodeByNodeScan) {
  const auto [kind, queue, gate, tpc] = GetParam();
  const auto catalog = apps::Catalog::trinity();
  slurmlite::ControllerConfig config;
  config.nodes = kNodes;
  config.node_config.smt_per_core = tpc;
  config.strategy = kind;
  config.queue_policy = queue;
  config.scheduler_options.co.gate_mode = gate;
  config.scheduler_options.co.pairing_threshold = kPairingThreshold;
  workload::GeneratorParams params =
      workload::trinity_stream(kNodes, kJobs, kLoad);
  params.shareable_prob = kShareableProb;
  Pcg32 rng(derive_seed(29, 0), /*stream=*/0x5eed);
  const workload::JobList jobs =
      workload::Generator(params, catalog).generate(rng);

  const testing::ReferenceCoScan reference(config.scheduler_options.co);
  // Only CoFirstFit shares past a primary's walltime end.
  const bool respect_deadline = kind != core::StrategyKind::kCoFirstFit;
  sim::Engine engine;
  slurmlite::Controller* controller = nullptr;
  int decisions = 0;
  int accepted = 0;
  std::string mismatch;
  LineTap tap([&](const std::string& line) {
    if (line.find("\"type\":\"co_decision\"") == std::string::npos) return;
    ++decisions;
    if (line.find("\"accepted\":true") != std::string::npos) ++accepted;
    if (!mismatch.empty()) return;  // report the first divergence only
    const auto cand =
        static_cast<JobId>(parse_json(line).at("job").as_number());
    obs::Tracer want;
    want.bind(engine);
    ReferenceView view(*controller, want);
    (void)reference.select_nodes(view, cand, respect_deadline);
    if (want.lines().size() != 1 || want.lines().front() != line) {
      mismatch = "table:     " + line + "\nreference: " +
                 (want.lines().empty() ? "(none)" : want.lines().front());
    }
  });
  std::ostream sink(&tap);
  obs::Tracer tracer;
  tracer.stream_to(&sink);
  config.tracer = &tracer;
  slurmlite::Controller live(engine, config, catalog);
  controller = &live;
  live.submit_all(jobs);
  engine.run();

  EXPECT_TRUE(mismatch.empty()) << mismatch;
  // The cell must have exercised the scan, admits included.
  EXPECT_GT(decisions, 20);
  EXPECT_GT(accepted, 0);
  EXPECT_EQ(static_cast<std::size_t>(accepted),
            live.stats().secondary_starts);
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
    AllCoStrategiesQueuesGatesAndSmt, CoScanParity,
    ::testing::Combine(
        ::testing::Values(core::StrategyKind::kCoBackfill,
                          core::StrategyKind::kCoFirstFit,
                          core::StrategyKind::kCoConservative),
        ::testing::Values(slurmlite::QueuePolicy::kFifo,
                          slurmlite::QueuePolicy::kPriority),
        ::testing::Values(core::GateMode::kOracle, core::GateMode::kClassRule,
                          core::GateMode::kLearned),
        ::testing::Values(2, 3, 4)),
    cell_name);

}  // namespace
}  // namespace cosched
