// Golden-metrics regression suite.
//
// For every strategy, a small pinned experiment (16 nodes, 120-job Trinity
// campaign, 3 cells seeded with derive_seed(1, cell)) is run through the
// ParallelRunner and compared against a committed baseline in
// tests/golden/<strategy>.json: scheduling efficiency, computational
// efficiency, makespan, mean wait, secondary starts, executed events, and
// the FNV-1a event-stream digest per cell. Any drift — a behaviour change
// in the scheduler, workload generation, seed derivation, or the event
// engine — fails the suite. GoldenCoDecisions (below) additionally pins
// the bytes of the co-allocation decision trace in
// tests/golden/co_decisions.json, GoldenEasyTraces those of the EASY
// family's whole decision trace in tests/golden/easy_traces.json, and
// GoldenLifecycle the controller's failure, checkpoint, dependency and
// cancel paths in tests/golden/lifecycle.json.
//
// Refreshing the baselines after an INTENDED behaviour change:
//
//   ./build/tests/cosched_tests --update-golden --gtest_filter='Golden*'
//
// (or set COSCHED_UPDATE_GOLDEN=1). Commit the rewritten tests/golden/
// files together with the change that moved the numbers, and say why in
// the commit message. Digests are compared exactly; floating-point
// metrics at 1e-9 relative tolerance (the files store 10 significant
// digits).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "audit/auditor.hpp"
#include "audit/determinism.hpp"
#include "audit/fnv.hpp"
#include "obs/trace.hpp"
#include "runner/runner.hpp"
#include "sim/engine.hpp"
#include "slurmlite/controller.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "workload/campaign.hpp"
#include "workload/generator.hpp"

namespace cosched {
namespace {

constexpr int kNodes = 16;
constexpr int kJobs = 120;
constexpr int kCells = 3;
constexpr std::uint64_t kBaseSeed = 1;

bool update_mode() {
  const char* v = std::getenv("COSCHED_UPDATE_GOLDEN");
  return v != nullptr && *v != '\0' && std::string(v) != "0";
}

std::string golden_path(core::StrategyKind kind) {
  return std::string(COSCHED_GOLDEN_DIR) + "/" + core::to_string(kind) +
         ".json";
}

std::string hex64(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::vector<slurmlite::SimulationResult> run_pinned_experiment(
    core::StrategyKind kind) {
  const auto catalog = apps::Catalog::trinity();
  slurmlite::SimulationSpec proto;
  proto.controller.nodes = kNodes;
  proto.controller.strategy = kind;
  proto.workload = workload::trinity_campaign(kNodes, kJobs);
  proto.hash_events = true;
  runner::ParallelRunner pool(1);  // 1 vs N is pinned by runner_test
  return runner::run_seed_sweep(pool, proto, catalog, kBaseSeed, kCells);
}

std::string to_golden_json(
    const std::vector<slurmlite::SimulationResult>& cells) {
  JsonWriter w;
  w.begin_object();
  w.begin_object("config")
      .value("nodes", kNodes)
      .value("jobs", kJobs)
      .value("cells", kCells)
      .value("base_seed", static_cast<std::int64_t>(kBaseSeed))
      .end_object();
  w.begin_array("cells");
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const auto& r = cells[c];
    w.begin_object()
        .value("seed", hex64(derive_seed(kBaseSeed, c)))
        .value("digest", hex64(r.event_stream_hash))
        .value("events", static_cast<std::int64_t>(r.events_executed))
        .value("sched_eff", r.metrics.scheduling_efficiency)
        .value("comp_eff", r.metrics.computational_efficiency)
        .value("makespan_s", r.metrics.makespan_s)
        .value("mean_wait_s", r.metrics.mean_wait_s)
        .value("secondary_starts",
               static_cast<std::int64_t>(r.stats.secondary_starts))
        .end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

void expect_near_rel(double expect, double actual, const char* what,
                     std::size_t cell) {
  const double tol = 1e-9 * std::max({std::fabs(expect), std::fabs(actual),
                                      1.0});
  EXPECT_NEAR(actual, expect, tol) << what << " drifted in cell " << cell;
}

class Golden : public ::testing::TestWithParam<core::StrategyKind> {};

TEST_P(Golden, MetricsMatchPinnedBaseline) {
  const auto kind = GetParam();
  const auto cells = run_pinned_experiment(kind);
  const std::string path = golden_path(kind);

  if (update_mode()) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << to_golden_json(cells) << "\n";
    SUCCEED() << "rewrote " << path;
    return;
  }

  std::ifstream in(path);
  ASSERT_TRUE(in.good())
      << "missing golden baseline " << path
      << " — run cosched_tests --update-golden to create it";
  std::stringstream buf;
  buf << in.rdbuf();
  const JsonValue golden = parse_json(buf.str());

  const auto& config = golden.at("config");
  ASSERT_EQ(static_cast<int>(config.at("nodes").as_number()), kNodes);
  ASSERT_EQ(static_cast<int>(config.at("jobs").as_number()), kJobs);
  ASSERT_EQ(static_cast<int>(config.at("cells").as_number()), kCells);

  const auto& want = golden.at("cells").as_array();
  ASSERT_EQ(want.size(), cells.size());
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const auto& w = want[c];
    const auto& r = cells[c];
    EXPECT_EQ(w.at("seed").as_string(), hex64(derive_seed(kBaseSeed, c)))
        << "seed derivation changed (cell " << c << ")";
    EXPECT_EQ(w.at("digest").as_string(), hex64(r.event_stream_hash))
        << "event-stream digest drifted in cell " << c
        << " — scheduler behaviour changed; if intended, refresh with "
           "--update-golden";
    EXPECT_EQ(static_cast<std::size_t>(w.at("events").as_number()),
              r.events_executed)
        << "cell " << c;
    expect_near_rel(w.at("sched_eff").as_number(),
                    r.metrics.scheduling_efficiency, "sched_eff", c);
    expect_near_rel(w.at("comp_eff").as_number(),
                    r.metrics.computational_efficiency, "comp_eff", c);
    expect_near_rel(w.at("makespan_s").as_number(), r.metrics.makespan_s,
                    "makespan_s", c);
    expect_near_rel(w.at("mean_wait_s").as_number(), r.metrics.mean_wait_s,
                    "mean_wait_s", c);
    EXPECT_EQ(static_cast<std::int64_t>(
                  w.at("secondary_starts").as_number()),
              static_cast<std::int64_t>(r.stats.secondary_starts))
        << "cell " << c;
  }
}

std::string golden_name(
    const ::testing::TestParamInfo<core::StrategyKind>& info) {
  return core::to_string(info.param);
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, Golden,
                         ::testing::ValuesIn(core::all_strategies()),
                         golden_name);

// --- Co-allocation decision-trace digests ------------------------------------
//
// The metrics baselines above pin outcomes; this one pins how the
// co-allocation scan explains them. For every co strategy x gate mode x
// SMT degree, one saturated run (queues build, a quarter of the jobs
// refuse sharing so resident_not_shareable tallies appear) is traced, and
// tests/golden/co_decisions.json pins the FNV-1a digest, record count and
// byte count of its co_decision records — scanned/admissible counts,
// every per-reason tally, the chosen nodes — and of the whole decision
// trace. Any change to the scan's cost model that moves one byte of its
// explanation fails here. Refreshed with --update-golden like the rest.

constexpr int kCoNodes = 24;
constexpr int kCoJobs = 160;
constexpr double kCoLoad = 2.5;
constexpr double kCoShareableProb = 0.75;
/// Every pair inside the default 1.4 dilation cap already promises a
/// combined throughput of at least 2/1.4, so below_threshold only shows
/// up once theta exceeds 0.43.
constexpr double kCoPairingThreshold = 0.45;
/// A dilation cap loose enough for a third job to join a node at
/// ThreadsPerCore 4: under the default 1.4 no pair of residents leaves
/// room for another, so the tpc4 cells repeat the tpc2 decisions.
constexpr double kLooseDilation = 3.0;

struct StreamDigest {
  std::int64_t records = 0;
  std::int64_t bytes = 0;
  audit::Fnv64 fnv;

  void add(const std::string& line) {
    ++records;
    bytes += static_cast<std::int64_t>(line.size()) + 1;
    for (char c : line) fnv.mix_byte(static_cast<std::uint8_t>(c));
    fnv.mix_byte('\n');
  }
};

struct CoCell {
  core::StrategyKind strategy;
  core::GateMode gate;
  int threads_per_core;
  double pairing_threshold = kCoPairingThreshold;
  double max_dilation = core::CoAllocationOptions{}.max_dilation;
};

std::vector<CoCell> co_cells() {
  std::vector<CoCell> cells;
  for (const core::StrategyKind kind :
       {core::StrategyKind::kCoBackfill, core::StrategyKind::kCoFirstFit,
        core::StrategyKind::kCoConservative}) {
    for (const core::GateMode gate :
         {core::GateMode::kOracle, core::GateMode::kClassRule,
          core::GateMode::kLearned}) {
      for (const int tpc : {2, 4}) cells.push_back({kind, gate, tpc});
    }
  }
  // The default threshold: at 0.45 a third job must promise a combined
  // throughput of 1.9, which no trio in the catalog reaches.
  cells.push_back({core::StrategyKind::kCoBackfill, core::GateMode::kOracle,
                   4, core::CoAllocationOptions{}.pairing_threshold,
                   kLooseDilation});
  return cells;
}

bool loose(double max_dilation) {
  return max_dilation != core::CoAllocationOptions{}.max_dilation;
}

std::string co_cell_name(const CoCell& cell) {
  return std::string(core::to_string(cell.strategy)) + "/" +
         core::to_string(cell.gate) + "/tpc" +
         std::to_string(cell.threads_per_core) +
         (loose(cell.max_dilation) ? "/dil3" : "") +
         (cell.pairing_threshold != kCoPairingThreshold ? "/theta-default"
                                                        : "");
}

/// Runs one cell with a buffering tracer and returns its decision trace.
std::vector<std::string> trace_co_cell(const CoCell& cell) {
  const auto catalog = apps::Catalog::trinity();
  obs::Tracer tracer;
  slurmlite::SimulationSpec spec;
  spec.controller.nodes = kCoNodes;
  spec.controller.node_config.smt_per_core = cell.threads_per_core;
  spec.controller.strategy = cell.strategy;
  spec.controller.scheduler_options.co.gate_mode = cell.gate;
  spec.controller.scheduler_options.co.pairing_threshold =
      cell.pairing_threshold;
  spec.controller.scheduler_options.co.max_dilation = cell.max_dilation;
  spec.controller.tracer = &tracer;
  spec.workload = workload::trinity_stream(kCoNodes, kCoJobs, kCoLoad);
  spec.workload.shareable_prob = kCoShareableProb;
  spec.seed = derive_seed(kBaseSeed, 0);
  (void)slurmlite::run_simulation(spec, catalog);
  return tracer.lines();
}

/// Rewrites `path` as a JSON array holding `rows`, one per line.
void write_golden_rows(const std::string& path,
                       const std::vector<std::string>& rows) {
  std::ofstream out(path);
  ASSERT_TRUE(out.good()) << "cannot write " << path;
  out << "[\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    out << rows[i] << (i + 1 < rows.size() ? ",\n" : "\n");
  }
  out << "]\n";
}

bool is_co_decision(const std::string& line) {
  return line.find("\"type\":\"co_decision\"") != std::string::npos;
}

/// The most jobs any node held at once, replayed from the trace's
/// alloc_primary, alloc_secondary and release records.
int peak_node_jobs(const std::vector<std::string>& lines) {
  std::map<NodeId, int> held;
  int peak = 0;
  for (const std::string& line : lines) {
    const bool alloc =
        line.find("\"type\":\"alloc_") != std::string::npos;
    if (!alloc && line.find("\"type\":\"release\"") == std::string::npos) {
      continue;
    }
    const JsonValue record = parse_json(line);
    for (const JsonValue& node : record.at("nodes").as_array()) {
      int& jobs = held[static_cast<NodeId>(node.as_number())];
      jobs += alloc ? 1 : -1;
      peak = std::max(peak, jobs);
    }
  }
  return peak;
}

std::string co_cell_json(const CoCell& cell,
                         const std::vector<std::string>& lines) {
  StreamDigest all;
  StreamDigest co;
  for (const std::string& line : lines) {
    all.add(line);
    if (is_co_decision(line)) co.add(line);
  }
  JsonWriter w;
  w.begin_object()
      .value("cell", co_cell_name(cell))
      .value("co_records", co.records)
      .value("co_bytes", co.bytes)
      .value("co_fnv", hex64(co.fnv.digest()))
      .value("trace_records", all.records)
      .value("trace_bytes", all.bytes)
      .value("trace_fnv", hex64(all.fnv.digest()))
      .end_object();
  return w.str();
}

TEST(GoldenCoDecisions, TraceDigestsMatchPinnedBaseline) {
  const std::string path =
      std::string(COSCHED_GOLDEN_DIR) + "/co_decisions.json";
  std::vector<std::string> got;
  // The fixture must exercise what the golden claims to pin: every
  // verdict the scan can tally appears in some cell's co_decision records.
  std::vector<std::string> unseen = {
      "\"resident_not_shareable\":", "\"walltime_fence\":",
      "\"dilation_cap\":",           "\"below_threshold\":",
      "\"class_mismatch\":",         "\"candidate_not_shareable\"",
      "\"accepted\":true"};
  for (const CoCell& cell : co_cells()) {
    const std::vector<std::string> lines = trace_co_cell(cell);
    got.push_back(co_cell_json(cell, lines));
    if (loose(cell.max_dilation)) {
      EXPECT_GE(peak_node_jobs(lines), 3)
          << co_cell_name(cell) << " never put a third job on a node";
    }
    for (const std::string& line : lines) {
      if (!is_co_decision(line)) continue;
      std::erase_if(unseen, [&](const std::string& needle) {
        return line.find(needle) != std::string::npos;
      });
    }
  }
  EXPECT_TRUE(unseen.empty()) << "fixture never produced " << unseen.front();

  if (update_mode()) {
    write_golden_rows(path, got);
    SUCCEED() << "rewrote " << path;
    return;
  }

  std::ifstream in(path);
  ASSERT_TRUE(in.good())
      << "missing golden baseline " << path
      << " — run cosched_tests --update-golden to create it";
  std::stringstream buf;
  buf << in.rdbuf();
  const JsonValue golden = parse_json(buf.str());
  const auto& want = golden.as_array();
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    const JsonValue g = parse_json(got[i]);
    const std::string cell = g.at("cell").as_string();
    ASSERT_EQ(want[i].at("cell").as_string(), cell);
    for (const char* key :
         {"co_records", "co_bytes", "trace_records", "trace_bytes"}) {
      EXPECT_EQ(want[i].at(key).as_number(), g.at(key).as_number())
          << key << " drifted in " << cell;
    }
    for (const char* key : {"co_fnv", "trace_fnv"}) {
      EXPECT_EQ(want[i].at(key).as_string(), g.at(key).as_string())
          << key << " drifted in " << cell
          << " — co-allocation decisions or their explanation changed; if "
             "intended, refresh with --update-golden";
    }
  }
}

// --- EASY-family decision-trace digests --------------------------------------
//
// Pins the whole decision trace of EASY and CoBackfill (FNV-1a, record and
// byte counts) plus the backfill_reject tally by reason, over depth 0 and
// 4, FIFO and priority queues, and ThreadsPerCore 1 and 2. The load lets
// queues build, so every cell sees passes on a full machine with jobs
// waiting behind the head: the records a pass emits there (capacity and
// beyond_depth rejects, and CoBackfill's co_decision order over the
// leftovers) are what any shortcut through phase 2 must reproduce.

constexpr int kEasyNodes = 16;
constexpr int kEasyJobs = 200;
constexpr double kEasyLoad = 2.5;

struct EasyCell {
  core::StrategyKind strategy;
  int depth;
  slurmlite::QueuePolicy policy;
  int threads_per_core;
};

std::vector<EasyCell> easy_cells() {
  std::vector<EasyCell> cells;
  for (const core::StrategyKind kind :
       {core::StrategyKind::kEasyBackfill, core::StrategyKind::kCoBackfill}) {
    for (const int depth : {0, 4}) {
      for (const slurmlite::QueuePolicy policy :
           {slurmlite::QueuePolicy::kFifo,
            slurmlite::QueuePolicy::kPriority}) {
        for (const int tpc : {1, 2}) {
          cells.push_back({kind, depth, policy, tpc});
        }
      }
    }
  }
  return cells;
}

std::string easy_cell_name(const EasyCell& cell) {
  return std::string(core::to_string(cell.strategy)) + "/depth" +
         std::to_string(cell.depth) + "/" +
         (cell.policy == slurmlite::QueuePolicy::kFifo ? "fifo"
                                                       : "priority") +
         "/tpc" + std::to_string(cell.threads_per_core);
}

std::vector<std::string> trace_easy_cell(const EasyCell& cell) {
  const auto catalog = apps::Catalog::trinity();
  obs::Tracer tracer;
  slurmlite::SimulationSpec spec;
  spec.controller.nodes = kEasyNodes;
  spec.controller.node_config.smt_per_core = cell.threads_per_core;
  spec.controller.strategy = cell.strategy;
  spec.controller.scheduler_options.backfill_depth = cell.depth;
  spec.controller.queue_policy = cell.policy;
  spec.controller.tracer = &tracer;
  spec.workload = workload::trinity_stream(kEasyNodes, kEasyJobs, kEasyLoad);
  spec.seed = derive_seed(kBaseSeed, 0);
  (void)slurmlite::run_simulation(spec, catalog);
  return tracer.lines();
}

constexpr obs::ReasonCode kBackfillReasons[] = {
    obs::ReasonCode::kCapacity, obs::ReasonCode::kBackfillWindow,
    obs::ReasonCode::kBeyondDepth};

TEST(GoldenEasyTraces, TraceDigestsMatchPinnedBaseline) {
  const std::string path =
      std::string(COSCHED_GOLDEN_DIR) + "/easy_traces.json";
  std::vector<std::string> got;
  for (const EasyCell& cell : easy_cells()) {
    const std::string name = easy_cell_name(cell);
    StreamDigest all;
    std::int64_t rejects[obs::kReasonCodeCount] = {};
    bool full_with_queue = false;
    for (const std::string& line : trace_easy_cell(cell)) {
      all.add(line);
      if (line.find("\"type\":\"pass_begin\"") != std::string::npos) {
        const JsonValue pass = parse_json(line);
        full_with_queue |= pass.at("free_primary").as_number() == 0 &&
                           pass.at("pending").as_number() > 1;
      } else if (line.find("\"type\":\"backfill_reject\"") !=
                 std::string::npos) {
        for (const obs::ReasonCode reason : kBackfillReasons) {
          const std::string needle =
              std::string("\"reason\":\"") + obs::to_string(reason) + "\"";
          if (line.find(needle) != std::string::npos) {
            ++rejects[static_cast<int>(reason)];
          }
        }
      }
    }
    // The fixture must reach what the golden claims to pin.
    const auto count = [&](obs::ReasonCode reason) {
      return rejects[static_cast<int>(reason)];
    };
    EXPECT_GT(count(obs::ReasonCode::kCapacity), 0) << name;
    EXPECT_GT(count(obs::ReasonCode::kBackfillWindow), 0) << name;
    if (cell.depth > 0) {
      EXPECT_GT(count(obs::ReasonCode::kBeyondDepth), 0) << name;
    }
    EXPECT_TRUE(full_with_queue)
        << name << " never opened a pass on a full machine with a queue";

    JsonWriter w;
    w.begin_object()
        .value("cell", name)
        .value("trace_records", all.records)
        .value("trace_bytes", all.bytes)
        .value("trace_fnv", hex64(all.fnv.digest()));
    w.begin_object("backfill_rejects");
    for (const obs::ReasonCode reason : kBackfillReasons) {
      w.value(obs::to_string(reason), count(reason));
    }
    w.end_object();
    w.end_object();
    got.push_back(w.str());
  }

  if (update_mode()) {
    write_golden_rows(path, got);
    SUCCEED() << "rewrote " << path;
    return;
  }

  std::ifstream in(path);
  ASSERT_TRUE(in.good())
      << "missing golden baseline " << path
      << " — run cosched_tests --update-golden to create it";
  std::stringstream buf;
  buf << in.rdbuf();
  const JsonValue golden = parse_json(buf.str());
  const auto& want = golden.as_array();
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    const JsonValue g = parse_json(got[i]);
    const std::string cell = g.at("cell").as_string();
    ASSERT_EQ(want[i].at("cell").as_string(), cell);
    for (const char* key : {"trace_records", "trace_bytes"}) {
      EXPECT_EQ(want[i].at(key).as_number(), g.at(key).as_number())
          << key << " drifted in " << cell;
    }
    for (const obs::ReasonCode reason : kBackfillReasons) {
      const char* key = obs::to_string(reason);
      EXPECT_EQ(want[i].at("backfill_rejects").at(key).as_number(),
                g.at("backfill_rejects").at(key).as_number())
          << "backfill_reject " << key << " count drifted in " << cell;
    }
    EXPECT_EQ(want[i].at("trace_fnv").as_string(),
              g.at("trace_fnv").as_string())
        << "trace_fnv drifted in " << cell
        << " — EASY decisions or their explanation changed; if intended, "
           "refresh with --update-golden";
  }
}

// --- Job lifecycle paths -----------------------------------------------------
//
// The goldens above replay plain campaigns, so none of their jobs is
// requeued, held or cancelled. This one drives the controller's other
// paths: cobackfill on 16 nodes at ThreadsPerCore 2 and 4 under the oracle
// and learned gates (ThreadsPerCore 4 and the oracle also under a dilation
// cap loose enough to put a third job on a node), with four scripted node
// failures that kill their jobs, requeue them from scratch, or requeue them
// from 30-minute checkpoints; afterok chains whose parents complete, time
// out or are cancelled; and cancels of pending, held and running jobs fired
// from scheduled events. Each cell pins the event-stream digest, the events
// executed, every ControllerStats count, how many cancels of each kind
// landed, and every metric.

constexpr int kLifeNodes = 16;
constexpr int kLifeJobs = 200;
constexpr double kLifeLoad = 1.5;

struct LifecycleCell {
  int threads_per_core;
  double max_dilation;
  core::GateMode gate;
  bool requeue;
  SimDuration checkpoint;
};

std::vector<LifecycleCell> lifecycle_cells() {
  std::vector<LifecycleCell> cells;
  const auto add = [&cells](int tpc, double dilation, core::GateMode gate) {
    cells.push_back({tpc, dilation, gate, /*requeue=*/false, 0});
    cells.push_back({tpc, dilation, gate, /*requeue=*/true, 0});
    cells.push_back({tpc, dilation, gate, /*requeue=*/true, 30 * kMinute});
  };
  for (const int tpc : {2, 4}) {
    for (const core::GateMode gate :
         {core::GateMode::kOracle, core::GateMode::kLearned}) {
      add(tpc, core::CoAllocationOptions{}.max_dilation, gate);
    }
  }
  // Only the oracle gate puts a third job on a node: the class rule the
  // learned gate falls back to finds no class complementary to both
  // residents, so learned cells under the loose cap repeat the capped ones.
  add(4, kLooseDilation, core::GateMode::kOracle);
  return cells;
}

std::string lifecycle_cell_name(const LifecycleCell& cell) {
  std::string name = "tpc" + std::to_string(cell.threads_per_core) +
                     (loose(cell.max_dilation) ? "/dil3/" : "/") +
                     core::to_string(cell.gate) + "/";
  if (!cell.requeue) return name + "kill";
  return name + "requeue/ckpt" + std::to_string(cell.checkpoint / kMinute) +
         "m";
}

/// What a cell must reach for its golden row to pin anything.
struct LifecycleCoverage {
  bool child_released = false;   ///< a child ran after its parent completed
  bool child_cascaded = false;   ///< a child was cancelled with its parent
  int peak_node_jobs = 0;        ///< the most jobs a node held at once
};

/// Tracks the most jobs any node held after any event.
class NodeJobsProbe final : public sim::EventObserver {
 public:
  NodeJobsProbe(const cluster::Machine& machine, int& peak)
      : machine_(machine), peak_(peak) {}
  void on_event_executed(SimTime /*when*/, sim::EventPriority /*priority*/,
                         sim::EventId /*id*/, const char* /*label*/) override {
    for (NodeId n = 0; n < machine_.node_count(); ++n) {
      peak_ = std::max(peak_, machine_.node(n).job_count());
    }
  }

 private:
  const cluster::Machine& machine_;
  int& peak_;
};

enum CancelKind { kCancelPending, kCancelHeld, kCancelRunning, kCancelKinds };

/// Runs one cell and returns its golden row.
std::string lifecycle_cell_json(const LifecycleCell& cell,
                                LifecycleCoverage& coverage) {
  static const apps::Catalog catalog = apps::Catalog::trinity();
  slurmlite::ControllerConfig config;
  config.nodes = kLifeNodes;
  config.node_config.smt_per_core = cell.threads_per_core;
  config.strategy = core::StrategyKind::kCoBackfill;
  config.scheduler_options.co.gate_mode = cell.gate;
  config.scheduler_options.co.max_dilation = cell.max_dilation;
  config.requeue_on_failure = cell.requeue;
  config.checkpoint_interval = cell.checkpoint;
  for (int i = 0; i < 4; ++i) {
    config.failures.push_back({.node = static_cast<NodeId>(2 + 4 * i),
                               .at = (2 + 3 * i) * 30 * kMinute,
                               .duration = kHour});
  }

  // Every tenth job waits (afterok) on the job two places before it. The
  // parents take turns: left alone, made to outrun their walltime, or
  // cancelled ten minutes after they are submitted.
  const workload::Generator generator(
      workload::trinity_stream(kLifeNodes, kLifeJobs, kLifeLoad), catalog);
  Pcg32 rng(derive_seed(kBaseSeed, 0), /*stream=*/0x5eed);
  workload::JobList jobs = generator.generate(rng);
  std::vector<JobId> children;
  std::vector<std::pair<SimTime, JobId>> parent_cancels;
  for (std::size_t i = 10; i < jobs.size(); i += 10) {
    workload::Job& parent = jobs[i - 2];
    jobs[i].depends_on = parent.id;
    children.push_back(jobs[i].id);
    if ((i / 10) % 3 == 1) {
      parent.base_runtime = 2 * parent.walltime_limit;
    } else if ((i / 10) % 3 == 2) {
      parent_cancels.emplace_back(parent.submit_time + 10 * kMinute,
                                  parent.id);
    }
  }

  sim::Engine engine;
  slurmlite::Controller controller(engine, config, catalog);
  audit::StateAuditor auditor(controller);
  engine.add_observer(&auditor);
  audit::EventStreamHasher hasher;
  engine.add_observer(&hasher);
  NodeJobsProbe probe(controller.machine_state(), coverage.peak_node_jobs);
  engine.add_observer(&probe);
  controller.submit_all(jobs);

  for (const auto& [at, parent] : parent_cancels) {
    engine.schedule_at(at, sim::EventPriority::kTimer, "test_cancel",
                       [&controller, parent = parent] {
                         (void)controller.cancel(parent);
                       });
  }
  // The other cancels pick their victim when they fire: the queue's tail,
  // the first held child, or the first running job in submit order.
  std::int64_t landed[kCancelKinds] = {};
  for (int k = 1; k <= 12; ++k) {
    const int kind = k % kCancelKinds;
    engine.schedule_at(
        k * 45 * kMinute, sim::EventPriority::kTimer, "test_cancel",
        [&controller, &children, &landed, kind] {
          JobId victim = kInvalidJob;
          if (kind == kCancelPending) {
            const std::vector<JobId> pending = controller.pending_ids();
            if (!pending.empty()) victim = pending.back();
          } else if (kind == kCancelHeld) {
            for (JobId child : children) {
              // Ids count up in submit order; later children are not
              // pulled yet.
              if (static_cast<std::size_t>(child) >
                  controller.submitted_total()) {
                break;
              }
              if (controller.job(child).state == workload::JobState::kHeld) {
                victim = child;
                break;
              }
            }
          } else {
            const std::vector<JobId> running = controller.running_ids();
            if (!running.empty()) victim = running.front();
          }
          if (victim != kInvalidJob && controller.cancel(victim)) {
            ++landed[kind];
          }
        });
  }
  engine.run();

  controller.fold_retired_digests(hasher.hash());
  const workload::JobList records = controller.job_records();
  for (JobId child : children) {
    const workload::Job& c = records[static_cast<std::size_t>(child - 1)];
    const workload::Job& p =
        records[static_cast<std::size_t>(c.depends_on - 1)];
    coverage.child_released |= p.state == workload::JobState::kCompleted &&
                               c.start_time >= p.end_time;
    coverage.child_cascaded |= p.state != workload::JobState::kCompleted &&
                               c.state == workload::JobState::kCancelled;
  }

  const slurmlite::ControllerStats& s = controller.stats();
  const metrics::ScheduleMetrics m = controller.stream_metrics();
  const auto count = [](std::size_t n) { return static_cast<std::int64_t>(n); };
  JsonWriter w;
  w.begin_object()
      .value("cell", lifecycle_cell_name(cell))
      .value("digest", hex64(hasher.digest()))
      .value("events", count(engine.executed()));
  w.begin_object("stats")
      .value("scheduler_passes", count(s.scheduler_passes))
      .value("primary_starts", count(s.primary_starts))
      .value("secondary_starts", count(s.secondary_starts))
      .value("completions", count(s.completions))
      .value("timeouts", count(s.timeouts))
      .value("requeues", count(s.requeues))
      .value("node_failures", count(s.node_failures))
      .value("dependency_cancellations", count(s.dependency_cancellations))
      .end_object();
  w.begin_object("cancels")
      .value("pending", landed[kCancelPending])
      .value("held", landed[kCancelHeld])
      .value("running", landed[kCancelRunning])
      .end_object();
  w.begin_object("metrics")
      .value("jobs_total", m.jobs_total)
      .value("jobs_completed", m.jobs_completed)
      .value("jobs_timeout", m.jobs_timeout)
      .value("makespan_s", m.makespan_s)
      .value("total_work_node_s", m.total_work_node_s)
      .value("busy_node_s", m.busy_node_s)
      .value("lost_work_node_s", m.lost_work_node_s)
      .value("scheduling_efficiency", m.scheduling_efficiency)
      .value("computational_efficiency", m.computational_efficiency)
      .value("utilization", m.utilization)
      .value("mean_wait_s", m.mean_wait_s)
      .value("p95_wait_s", m.p95_wait_s)
      .value("max_wait_s", m.max_wait_s)
      .value("mean_bounded_slowdown", m.mean_bounded_slowdown)
      .value("p95_bounded_slowdown", m.p95_bounded_slowdown)
      .value("mean_dilation", m.mean_dilation)
      .value("shared_node_s", m.shared_node_s)
      .value("throughput_jobs_per_h", m.throughput_jobs_per_h)
      .value("energy_kwh", m.energy_kwh)
      .value("work_node_h_per_kwh", m.work_node_h_per_kwh)
      .end_object();
  w.end_object();
  return w.str();
}

TEST(GoldenLifecycle, DigestsStatsAndMetricsMatchPinnedBaseline) {
  const std::string path = std::string(COSCHED_GOLDEN_DIR) + "/lifecycle.json";
  const std::vector<LifecycleCell> cells = lifecycle_cells();
  std::vector<std::string> got;
  for (const LifecycleCell& cell : cells) {
    LifecycleCoverage coverage;
    got.push_back(lifecycle_cell_json(cell, coverage));
    // The fixture must reach what the golden claims to pin, in every cell.
    const std::string name = lifecycle_cell_name(cell);
    const JsonValue row = parse_json(got.back());
    const JsonValue& stats = row.at("stats");
    EXPECT_GT(stats.at("secondary_starts").as_number(), 0) << name;
    EXPECT_EQ(stats.at("node_failures").as_number(), 4) << name;
    if (cell.requeue) {
      EXPECT_GT(stats.at("requeues").as_number(), 0) << name;
    } else {
      EXPECT_EQ(stats.at("requeues").as_number(), 0) << name;
    }
    EXPECT_GT(stats.at("dependency_cancellations").as_number(), 0) << name;
    for (const char* kind : {"pending", "held", "running"}) {
      EXPECT_GT(row.at("cancels").at(kind).as_number(), 0)
          << name << " never cancelled a " << kind << " job";
    }
    EXPECT_TRUE(coverage.child_released) << name;
    EXPECT_TRUE(coverage.child_cascaded) << name;
    if (loose(cell.max_dilation)) {
      EXPECT_GE(coverage.peak_node_jobs, 3)
          << name << " never put a third job on a node";
    }
  }
  // A 30-minute checkpoint credit must move the run it restores into.
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (cells[i].checkpoint == 0) continue;
    EXPECT_NE(parse_json(got[i]).at("digest").as_string(),
              parse_json(got[i - 1]).at("digest").as_string())
        << lifecycle_cell_name(cells[i]);
  }

  if (update_mode()) {
    write_golden_rows(path, got);
    SUCCEED() << "rewrote " << path;
    return;
  }

  std::ifstream in(path);
  ASSERT_TRUE(in.good())
      << "missing golden baseline " << path
      << " — run cosched_tests --update-golden to create it";
  std::stringstream buf;
  buf << in.rdbuf();
  const JsonValue golden = parse_json(buf.str());
  const auto& want = golden.as_array();
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    const JsonValue g = parse_json(got[i]);
    const std::string cell = g.at("cell").as_string();
    ASSERT_EQ(want[i].at("cell").as_string(), cell);
    EXPECT_EQ(want[i].at("digest").as_string(), g.at("digest").as_string())
        << "event-stream digest drifted in " << cell
        << " — a lifecycle decision changed; if intended, refresh with "
           "--update-golden";
    EXPECT_EQ(want[i].at("events").as_number(), g.at("events").as_number())
        << cell;
    for (const char* group : {"stats", "cancels"}) {
      ASSERT_EQ(want[i].at(group).keys(), g.at(group).keys()) << cell;
      for (const std::string& key : g.at(group).keys()) {
        EXPECT_EQ(want[i].at(group).at(key).as_number(),
                  g.at(group).at(key).as_number())
            << group << "." << key << " drifted in " << cell;
      }
    }
    ASSERT_EQ(want[i].at("metrics").keys(), g.at("metrics").keys()) << cell;
    for (const std::string& key : g.at("metrics").keys()) {
      expect_near_rel(want[i].at("metrics").at(key).as_number(),
                      g.at("metrics").at(key).as_number(), key.c_str(), i);
    }
  }
}

}  // namespace
}  // namespace cosched
