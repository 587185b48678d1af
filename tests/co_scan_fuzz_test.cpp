// Differential fuzz: CoAllocator::select_nodes, which answers from per-pass
// gate tables, against the node-by-node reference scan it replaced
// (co_scan_reference.hpp). Seeded machines of 1-64 nodes at 2-4 threads
// per core are filled with primaries and secondaries — some refusing to
// share, in any slot — whose walltime ends tie often and are sometimes
// infinite. Each machine then runs a pass-like script: several candidates
// per machine state, secondary and primary starts and releases between
// them (so the table refreshes mid-pass), idle nodes going down and up,
// clock moves, and, in learned mode, a pair estimator that learns between
// calls. Every call must choose the same nodes and emit the same
// co_decision bytes as the reference. Each step also asks once with
// nothing attached, the one call a held rejection may answer; the fuzzer
// keeps its own record of the rejections the table holds and checks the
// reference rejects wherever one applies. One CoAllocator per
// configuration serves every machine, so switching machines is exercised
// too.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "apps/catalog.hpp"
#include "co_scan_reference.hpp"
#include "core/pairing.hpp"
#include "interference/estimator.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "test_support.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace cosched {
namespace {

const apps::Catalog& trinity() {
  static const apps::Catalog c = apps::Catalog::trinity();
  return c;
}

/// A FakeHost with a pair estimator the learned gate can read (and the
/// fuzz can teach between calls). It counts job and app lookups: a walk
/// of the table looks up the candidate's app, while a held rejection
/// answers from the candidate's job record alone.
class FuzzHost final : public testing::FakeHost {
 public:
  FuzzHost(int nodes, int threads_per_core)
      : FakeHost(nodes, trinity(),
                 cluster::NodeConfig{32, threads_per_core, 128}) {}
  interference::PairEstimator estimator{trinity().size()};
  const interference::PairEstimator* pair_estimator() const override {
    return &estimator;
  }
  const workload::Job& job(JobId id) const override {
    ++job_lookups;
    return FakeHost::job(id);
  }
  const apps::AppModel& app_of(JobId id) const override {
    ++app_lookups;
    return FakeHost::app_of(id);
  }
  mutable int job_lookups = 0;
  mutable int app_lookups = 0;
};

/// What the fuzz saw, so it can prove it covered the interesting cases.
struct Coverage {
  int calls = 0;
  int accepted = 0;
  int fence_ties = 0;  ///< candidate walltime end == a resident's end
  int infinite_fences = 0;
  int mid_pass_starts = 0;
  int node_toggles = 0;
  int held = 0;  ///< unobserved calls a held rejection answers
  std::string reasons;  ///< every co_decision line, concatenated
};

class Fuzzer {
 public:
  Fuzzer(std::uint64_t seed, core::GateMode gate)
      : rng_(seed, 0xf022), gate_(gate) {}

  void run(const core::CoAllocator& table, Coverage& cov) {
    const int nodes = static_cast<int>(rng_.uniform_int(1, 64));
    const int tpc = static_cast<int>(rng_.uniform_int(2, 4));
    FuzzHost host(nodes, tpc);
    obs::Registry registry;
    host.set_registry(&registry);
    const core::CoAllocationOptions options = table.options();
    const testing::ReferenceCoScan reference(options);
    host.set_now(rng_.uniform_int(0, 3) * kHour);
    populate(host);

    const int steps = static_cast<int>(rng_.uniform_int(4, 40));
    for (int step = 0; step < steps; ++step) {
      const JobId cand = add_candidate(host, cov);
      const bool respect_deadline = rng_.next_below(4) != 0;
      // The same state may be asked more than once (table and memo reuse).
      const int repeats = rng_.next_below(3) == 0 ? 2 : 1;
      std::optional<std::vector<NodeId>> got;
      std::optional<std::vector<NodeId>> want;
      std::string record;
      for (int r = 0; r < repeats; ++r) {
        obs::Tracer got_trace;
        obs::Tracer want_trace;
        host.set_tracer(&got_trace);
        got = table.select_nodes(host, cand, respect_deadline);
        host.set_tracer(&want_trace);
        want = reference.select_nodes(host, cand, respect_deadline);
        host.set_tracer(nullptr);
        ++cov.calls;
        ASSERT_EQ(got, want) << context(host, cand, respect_deadline);
        ASSERT_EQ(got_trace.str(), want_trace.str())
            << context(host, cand, respect_deadline);
        cov.reasons += got_trace.str();
        record = got_trace.lines().front();
      }
      // Once more with nothing attached: the only call a held rejection
      // may answer.
      host.set_registry(nullptr);
      const bool held = holds(host, cand, respect_deadline);
      const auto unobserved = table.select_nodes(host, cand, respect_deadline);
      host.set_registry(&registry);
      ++cov.calls;
      ASSERT_EQ(unobserved, want) << context(host, cand, respect_deadline);
      if (held) {
        ++cov.held;
        ASSERT_EQ(want, std::nullopt)
            << "a held rejection covers an admitted candidate\n"
            << context(host, cand, respect_deadline);
      } else if (record.find("\"insufficient_nodes\"") != std::string::npos) {
        file(host, cand, respect_deadline,
             static_cast<int>(parse_json(record).at("admissible").as_number()));
      }
      if (got) ++cov.accepted;
      mutate(host, got, cand, cov);
    }
  }

 private:
  /// A resident's walltime end: few distinct values, so fence ends tie
  /// across nodes and with candidates; some infinite.
  SimTime pick_end(const FuzzHost& host) {
    if (rng_.next_below(8) == 0) return kTimeInfinity;
    return std::max<SimTime>(
        30 * kMinute, host.now() + rng_.uniform_int(-1, 6) * 30 * kMinute);
  }

  AppId pick_app() {
    return static_cast<AppId>(rng_.next_below(
        static_cast<std::uint32_t>(trinity().size())));
  }

  /// A job that started at 0 and ends at `end` (its walltime limit).
  workload::Job resident(int nodes, SimTime end) {
    workload::Job job = testing::make_job(next_id_++, nodes, kHour, end,
                                          pick_app());
    job.shareable = rng_.next_below(5) != 0;
    running_.push_back(job.id);
    return job;
  }

  void start_primary(FuzzHost& host) {
    std::vector<NodeId> free;
    for (NodeId n = 0; n < host.machine().node_count(); ++n) {
      if (host.machine().node(n).primary_free()) free.push_back(n);
    }
    if (free.empty()) return;
    const auto width = static_cast<std::size_t>(std::min<std::int64_t>(
        rng_.uniform_int(1, 4), static_cast<std::int64_t>(free.size())));
    const auto from = static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(free.size() - width)));
    const std::vector<NodeId> nodes(
        free.begin() + static_cast<std::ptrdiff_t>(from),
        free.begin() + static_cast<std::ptrdiff_t>(from + width));
    host.add_running_primary(resident(static_cast<int>(width), pick_end(host)),
                             nodes);
  }

  void start_secondary(FuzzHost& host) {
    std::vector<NodeId> open;
    for (NodeId n : host.machine().free_secondary_nodes()) open.push_back(n);
    if (open.empty()) return;
    const NodeId node = open[rng_.next_below(
        static_cast<std::uint32_t>(open.size()))];
    host.add_running_secondary(resident(1, pick_end(host)), {node});
  }

  void populate(FuzzHost& host) {
    const int primaries = static_cast<int>(
        rng_.uniform_int(0, host.machine().node_count()));
    for (int i = 0; i < primaries; ++i) start_primary(host);
    const int secondaries = static_cast<int>(
        rng_.uniform_int(0, 2 * host.machine().node_count()));
    for (int i = 0; i < secondaries; ++i) start_secondary(host);
  }

  JobId pick_running() {
    return running_[rng_.next_below(
        static_cast<std::uint32_t>(running_.size()))];
  }

  JobId add_candidate(FuzzHost& host, Coverage& cov) {
    SimDuration walltime = rng_.uniform_int(1, 6) * 30 * kMinute;
    // A third of the candidates end exactly when some resident does.
    if (rng_.next_below(3) == 0 && !running_.empty()) {
      const SimTime end = host.walltime_end(pick_running());
      if (end == kTimeInfinity) {
        ++cov.infinite_fences;
      } else if (end > host.now()) {
        walltime = end - host.now();
        ++cov.fence_ties;
      }
    }
    workload::Job job = testing::make_job(
        next_id_++, static_cast<int>(rng_.uniform_int(1, 3)), kHour, walltime,
        pick_app());
    job.shareable = rng_.next_below(8) != 0;
    host.add_pending(job);
    return job.id;
  }

  void mutate(FuzzHost& host, const std::optional<std::vector<NodeId>>& got,
              JobId cand, Coverage& cov) {
    if (got && rng_.next_below(2) == 0) {
      host.start_secondary(cand, *got);
      running_.push_back(cand);
      ++cov.mid_pass_starts;
    }
    if (rng_.next_below(5) == 0) {
      start_primary(host);
      ++cov.mid_pass_starts;
    }
    if (rng_.next_below(6) == 0) start_secondary(host);
    if (rng_.next_below(6) == 0 && !running_.empty()) {
      const JobId done = pick_running();
      host.release(done);
      std::erase(running_, done);
    }
    if (rng_.next_below(6) == 0) {
      // Stamps move on a node that has no row to file, down or back up.
      const auto n = static_cast<NodeId>(rng_.next_below(
          static_cast<std::uint32_t>(host.machine().node_count())));
      const cluster::Node& node = host.machine().node(n);
      if (node.is_down() || node.job_count() == 0) {
        host.set_node_down(n, !node.is_down());
        ++cov.node_toggles;
      }
    }
    if (rng_.next_below(5) == 0) {
      host.set_now(host.now() + rng_.uniform_int(1, 3) * 30 * kMinute);
    }
    if (gate_ == core::GateMode::kLearned && rng_.next_below(2) == 0) {
      // Learns without touching the machine: the table stays valid, but
      // learned verdicts must not be served from it.
      const AppId a = pick_app();
      const AppId b = pick_app();
      host.estimator.observe(a, b, rng_.uniform(1.0, 1.8));
      host.estimator.observe(b, a, rng_.uniform(1.0, 1.8));
    }
  }

  /// The walltime end a rejection is held under: none without the fence.
  static SimTime held_end(const FuzzHost& host, JobId cand,
                          bool respect_deadline) {
    return respect_deadline ? host.now() + host.job(cand).walltime_limit
                            : std::numeric_limits<SimTime>::min();
  }

  /// Whether a rejection the table holds answers an unobserved call now:
  /// one of the candidate's app with no more nodes and an end no later,
  /// filed on this machine state with the clock not run backwards.
  /// Learned verdicts are never held.
  bool holds(const FuzzHost& host, JobId cand, bool respect_deadline) {
    const cluster::Machine& machine = host.machine();
    if (held_machine_ != machine.instance_id() ||
        held_gen_ != machine.generation() || host.now() < held_now_) {
      held_.clear();
      held_machine_ = machine.instance_id();
      held_gen_ = machine.generation();
    }
    held_now_ = host.now();
    if (gate_ == core::GateMode::kLearned) return false;
    const workload::Job& job = host.job(cand);
    const SimTime end = held_end(host, cand, respect_deadline);
    return std::any_of(held_.begin(), held_.end(), [&](const Held& h) {
      return h.app == job.app && h.nodes <= job.nodes && h.end <= end;
    });
  }

  /// Records a walked rejection that found `admissible` rows: every
  /// candidate of the app wanting more is rejected until the machine moves.
  void file(const FuzzHost& host, JobId cand, bool respect_deadline,
            int admissible) {
    held_.push_back(Held{host.job(cand).app, admissible + 1,
                         held_end(host, cand, respect_deadline)});
  }

  static std::string context(const FuzzHost& host, JobId cand,
                             bool respect_deadline) {
    std::string s = "candidate " + std::to_string(cand) + " app " +
                    std::to_string(host.job(cand).app) + " deadline " +
                    (respect_deadline ? "on" : "off") + "\n";
    for (NodeId n : host.machine().free_secondary_nodes()) {
      s += "  node " + std::to_string(n) + ":";
      for (JobId j : host.machine().node(n).slot_jobs()) {
        if (j == kInvalidJob) continue;
        s += " job " + std::to_string(j) + "(app " +
             std::to_string(host.job(j).app) +
             (host.job(j).shareable ? "" : ", private") + ", end " +
             std::to_string(host.walltime_end(j)) + ")";
      }
      s += "\n";
    }
    return s;
  }

  struct Held {
    AppId app;
    int nodes;
    SimTime end;
  };

  Pcg32 rng_;
  core::GateMode gate_;
  JobId next_id_ = 1;
  std::vector<JobId> running_;
  /// The rejections the table holds, by this fuzzer's own account.
  std::vector<Held> held_;
  std::uint64_t held_machine_ = 0;
  std::uint64_t held_gen_ = 0;
  SimTime held_now_ = 0;
};

core::CoAllocationOptions options_for(core::GateMode gate, int variant) {
  core::CoAllocationOptions options;
  options.gate_mode = gate;
  // Variant 1 moves the oracle's fences so below_threshold and dilation
  // rejections trade places with admits.
  if (variant == 1) {
    options.pairing_threshold = 0.45;
    options.max_dilation = 1.8;
    options.min_samples = 1;
  }
  return options;
}

class CoScanFuzz : public ::testing::TestWithParam<core::GateMode> {};

TEST_P(CoScanFuzz, GateTableMatchesNodeByNodeScan) {
  const core::GateMode gate = GetParam();
  Coverage cov;
  for (int variant = 0; variant < 2; ++variant) {
    const core::CoAllocator table(options_for(gate, variant));
    for (std::uint64_t seed = 1; seed <= 150; ++seed) {
      Fuzzer(seed * 7919 + static_cast<std::uint64_t>(variant), gate)
          .run(table, cov);
      if (::testing::Test::HasFatalFailure()) {
        FAIL() << "seed " << seed << " variant " << variant;
      }
    }
  }
  // The script must have reached what it claims to cover.
  EXPECT_GT(cov.calls, 3000);
  EXPECT_GT(cov.accepted, 100);
  EXPECT_GT(cov.fence_ties, 100);
  EXPECT_GT(cov.infinite_fences, 10);
  EXPECT_GT(cov.mid_pass_starts, 500);
  EXPECT_GT(cov.node_toggles, 100);
  if (gate != core::GateMode::kLearned) {
    EXPECT_GT(cov.held, 200);
  }
  for (const char* reason :
       {"\"resident_not_shareable\":", "\"walltime_fence\":",
        "\"candidate_not_shareable\"", "\"insufficient_nodes\""}) {
    EXPECT_NE(cov.reasons.find(reason), std::string::npos) << reason;
  }
  if (gate == core::GateMode::kOracle) {
    EXPECT_NE(cov.reasons.find("\"below_threshold\":"), std::string::npos);
    EXPECT_NE(cov.reasons.find("\"dilation_cap\":"), std::string::npos);
  } else {
    EXPECT_NE(cov.reasons.find("\"class_mismatch\":"), std::string::npos);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllGateModes, CoScanFuzz,
    ::testing::Values(core::GateMode::kOracle, core::GateMode::kClassRule,
                      core::GateMode::kLearned),
    [](const ::testing::TestParamInfo<core::GateMode>& param) {
      std::string name = core::to_string(param.param);
      name.erase(std::remove(name.begin(), name.end(), '-'), name.end());
      return name;
    });

// The oracle gate stages a node's residents and the candidate on the
// stack, kMaxThreadsPerCore of them at most. On nodes with every slot but
// one taken it decides and traces exactly as the reference does: a roomy
// corun model dilates all eight jobs by about 1.56, which a 2.0 cap admits
// and the default 1.4 cap rejects.
TEST(CoScanAtThreadBound, FullestNodesMatchTheReference) {
  interference::CorunParams roomy;
  roomy.smt_issue_gain = 1.0;
  roomy.membw_capacity = kMaxThreadsPerCore;
  roomy.network_capacity = kMaxThreadsPerCore;
  for (const double cap : {1.4, 2.0}) {
    core::CoAllocationOptions options;
    options.gate_mode = core::GateMode::kOracle;
    options.max_dilation = cap;
    const core::CoAllocator table(options);
    const testing::ReferenceCoScan reference(options);
    testing::FakeHost host(
        2, trinity(), cluster::NodeConfig{32, kMaxThreadsPerCore, 128},
        roomy);
    JobId next = 1;
    for (NodeId n = 0; n < 2; ++n) {
      host.add_running_primary(
          testing::make_job(next++, 1, kHour, 4 * kHour, 0), {n});
      for (int slot = 2; slot < kMaxThreadsPerCore; ++slot) {
        const auto app = static_cast<AppId>((next + n) % trinity().size());
        host.add_running_secondary(
            testing::make_job(next++, 1, kHour, 4 * kHour, app), {n});
      }
    }
    int accepted = 0;
    for (const apps::AppModel& app : trinity().all()) {
      const JobId cand = next++;
      host.add_pending(testing::make_job(cand, 2, kHour, kHour, app.id));
      obs::Tracer got_trace;
      obs::Tracer want_trace;
      host.set_tracer(&got_trace);
      const auto got = table.select_nodes(host, cand, true);
      host.set_tracer(&want_trace);
      const auto want = reference.select_nodes(host, cand, true);
      host.set_tracer(nullptr);
      EXPECT_EQ(got, want) << app.name << " under cap " << cap;
      EXPECT_EQ(got_trace.str(), want_trace.str())
          << app.name << " under cap " << cap;
      if (got) ++accepted;
    }
    EXPECT_EQ(accepted, cap > 1.5 ? trinity().size() : 0) << "cap " << cap;
  }
}

// The table is only refreshed when the machine moves, and oracle/class-rule
// verdicts are memoized: asking about an unchanged machine again costs no
// gate evaluation, while learned verdicts are worked out on every call.
TEST(CoScanCost, GateEvaluationsFollowTheMemoRule) {
  const AppId gtc = trinity().by_name("GTC").id;
  const AppId minife = trinity().by_name("miniFE").id;
  for (const core::GateMode gate :
       {core::GateMode::kOracle, core::GateMode::kClassRule,
        core::GateMode::kLearned}) {
    FuzzHost host(8, 2);
    obs::Registry registry;
    host.set_registry(&registry);
    for (NodeId n = 0; n < 8; ++n) {
      host.add_running_primary(
          testing::make_job(n + 1, 1, kHour, 2 * kHour, gtc), {n});
    }
    host.add_pending(testing::make_job(100, 1, kHour, kHour, minife));
    core::CoAllocationOptions options;
    options.gate_mode = gate;
    const core::CoAllocator co(options);
    ASSERT_TRUE(co.select_nodes(host, 100, true).has_value());
    // One signature (GTC alone) over eight nodes: one evaluation.
    EXPECT_EQ(registry.counter("co_gate_evals").value(), 1u);
    ASSERT_TRUE(co.select_nodes(host, 100, true).has_value());
    EXPECT_EQ(registry.counter("co_gate_evals").value(),
              gate == core::GateMode::kLearned ? 2u : 1u)
        << core::to_string(gate);
  }
}


// --- Gate-table rules, one small machine each --------------------------------
//
// The fuzz proves agreement with the reference scan in bulk; these pin the
// rules DESIGN.md "Per-pass gate tables" states, on machines small enough
// to read the expected co_decision record off the setup. Jobs start at 0,
// so a resident's walltime limit is its walltime end.

AppId app(const char* name) { return trinity().by_name(name).id; }

/// A running job of `name` on one node, ending at `end`.
workload::Job resident(JobId id, const char* name, SimTime end,
                       bool shareable = true) {
  workload::Job job = testing::make_job(id, 1, kMinute, end, app(name));
  job.shareable = shareable;
  return job;
}

/// Queues a one-node miniFE candidate (the compute-bound residents' natural
/// partner) whose walltime end is `end`, `nodes` wide.
JobId queue_candidate(FuzzHost& host, JobId id, SimTime end, int nodes = 1) {
  host.add_pending(testing::make_job(id, nodes, kMinute, end, app("miniFE")));
  return id;
}

/// select_nodes' co_decision record for `cand`, as traced.
std::string decide(const core::CoAllocator& co, FuzzHost& host, JobId cand,
                   bool respect_deadline = true) {
  obs::Tracer tracer;
  host.set_tracer(&tracer);
  (void)co.select_nodes(host, cand, respect_deadline);
  host.set_tracer(nullptr);
  return tracer.lines().size() == 1 ? tracer.lines().front() : "";
}

std::string record(JobId job, const std::string& body) {
  return "{\"t_us\":0,\"type\":\"co_decision\",\"job\":" +
         std::to_string(job) + "," + body + "}";
}

// A node is fenced only when a resident ends strictly before the
// candidate: F == E shares, F < E is a walltime_fence.
TEST(CoScanTable, FenceEndEqualToCandidateEndIsAdmitted) {
  FuzzHost host(3, 2);
  host.add_running_primary(resident(1, "GTC", 60 * kMinute), {0});
  host.add_running_primary(resident(2, "GTC", 90 * kMinute), {1});
  host.add_running_primary(resident(3, "GTC", 90 * kMinute + 1), {2});
  const core::CoAllocator co{core::CoAllocationOptions{}};
  EXPECT_EQ(decide(co, host, queue_candidate(host, 10, 90 * kMinute)),
            record(10, "\"accepted\":true,\"reason\":\"accepted\","
                       "\"scanned\":3,\"admissible\":2,\"nodes\":[1],"
                       "\"rejects\":{\"walltime_fence\":1}"));
  EXPECT_EQ(decide(co, host, queue_candidate(host, 11, 90 * kMinute + 1)),
            record(11, "\"accepted\":true,\"reason\":\"accepted\","
                       "\"scanned\":3,\"admissible\":1,\"nodes\":[2],"
                       "\"rejects\":{\"walltime_fence\":2}"));
  EXPECT_EQ(decide(co, host, queue_candidate(host, 12, 90 * kMinute + 2)),
            record(12, "\"accepted\":false,\"reason\":\"insufficient_nodes\","
                       "\"scanned\":3,\"admissible\":0,"
                       "\"rejects\":{\"walltime_fence\":3}"));
}

// With respect_deadline=false (CoFirstFit) there is no fence at all.
TEST(CoScanTable, NoFenceWithoutDeadline) {
  FuzzHost host(3, 2);
  host.add_running_primary(resident(1, "GTC", 60 * kMinute), {0});
  host.add_running_primary(resident(2, "GTC", 30 * kMinute), {1});
  host.add_running_primary(resident(3, "GTC", 90 * kMinute), {2});
  const core::CoAllocator co{core::CoAllocationOptions{}};
  const JobId cand = queue_candidate(host, 10, 10 * kHour, 3);
  EXPECT_EQ(decide(co, host, cand, /*respect_deadline=*/false),
            record(10, "\"accepted\":true,\"reason\":\"accepted\","
                       "\"scanned\":3,\"admissible\":3,\"nodes\":[0,1,2],"
                       "\"rejects\":{}"));
  EXPECT_EQ(decide(co, host, cand, /*respect_deadline=*/true),
            record(10, "\"accepted\":false,\"reason\":\"insufficient_nodes\","
                       "\"scanned\":3,\"admissible\":0,"
                       "\"rejects\":{\"walltime_fence\":3}"));
}

// A resident without a walltime end never fences, however long the
// candidate runs.
TEST(CoScanTable, InfiniteFenceNeverFences) {
  FuzzHost host(2, 2);
  host.add_running_primary(resident(1, "GTC", 10 * kHour), {0});
  host.add_running_primary(resident(2, "GTC", kTimeInfinity), {1});
  const core::CoAllocator co{core::CoAllocationOptions{}};
  EXPECT_EQ(decide(co, host, queue_candidate(host, 10, 1000 * kHour)),
            record(10, "\"accepted\":true,\"reason\":\"accepted\","
                       "\"scanned\":2,\"admissible\":1,\"nodes\":[1],"
                       "\"rejects\":{\"walltime_fence\":1}"));
}

// Residents are walked in slot order, so a shareable resident that ends
// too early fences the node before a later private resident is reached.
TEST(CoScanTable, FenceBeforePrivateResidentIsAFence) {
  FuzzHost host(2, 3);
  host.add_running_primary(resident(1, "GTC", 60 * kMinute), {0});
  host.add_running_secondary(resident(2, "miniFE", 5 * kHour, false), {0});
  host.add_running_primary(resident(3, "GTC", 5 * kHour), {1});
  host.add_running_secondary(resident(4, "miniFE", 5 * kHour, false), {1});
  const core::CoAllocator co{core::CoAllocationOptions{}};
  EXPECT_EQ(decide(co, host, queue_candidate(host, 10, 90 * kMinute)),
            record(10, "\"accepted\":false,\"reason\":\"insufficient_nodes\","
                       "\"scanned\":2,\"admissible\":0,"
                       "\"rejects\":{\"resident_not_shareable\":1,"
                       "\"walltime_fence\":1}"));
}

// ...and a private resident ends the walk: fences behind it are never
// looked at, so the node counts as resident_not_shareable.
TEST(CoScanTable, PrivateResidentHidesLaterFences) {
  FuzzHost host(1, 3);
  host.add_running_primary(resident(1, "GTC", 5 * kHour, false), {0});
  host.add_running_secondary(resident(2, "miniFE", 10 * kMinute), {0});
  const core::CoAllocator co{core::CoAllocationOptions{}};
  EXPECT_EQ(decide(co, host, queue_candidate(host, 10, 60 * kMinute)),
            record(10, "\"accepted\":false,\"reason\":\"insufficient_nodes\","
                       "\"scanned\":1,\"admissible\":0,"
                       "\"rejects\":{\"resident_not_shareable\":1}"));
}

// Admitted rows of several groups are ranked together: best predicted
// throughput first, ties by node id.
TEST(CoScanTable, RanksAcrossGroupsByScoreThenNodeId) {
  FuzzHost host(4, 2);
  // A GTC candidate pairs better with miniGhost than with AMG; both pass.
  host.add_running_primary(resident(1, "AMG", 2 * kHour), {0});
  host.add_running_primary(resident(2, "miniGhost", 2 * kHour), {1});
  host.add_running_primary(resident(3, "AMG", 2 * kHour), {2});
  host.add_running_primary(resident(4, "miniGhost", 2 * kHour), {3});
  host.add_pending(testing::make_job(10, 3, kMinute, kHour, app("GTC")));
  const core::CoAllocator co{core::CoAllocationOptions{}};
  EXPECT_EQ(co.select_nodes(host, 10, true),
            std::optional<std::vector<NodeId>>({1, 3, 0}));
}

// Starts and releases move the machine, and the next call sees the move:
// a node whose last secondary slot fills leaves the table, and comes back
// when it empties; an idle node is no co-allocation target.
TEST(CoScanTable, StartsAndReleasesRebuildTheTable) {
  FuzzHost host(3, 2);
  for (NodeId n = 0; n < 3; ++n) {
    host.add_running_primary(resident(n + 1, "GTC", 2 * kHour), {n});
  }
  const core::CoAllocator co{core::CoAllocationOptions{}};
  const std::string first = "\"accepted\":true,\"reason\":\"accepted\","
                            "\"scanned\":3,\"admissible\":3,\"nodes\":[0],"
                            "\"rejects\":{}";
  EXPECT_EQ(decide(co, host, queue_candidate(host, 10, kHour)),
            record(10, first));
  host.start_secondary(10, {0});
  const JobId next = queue_candidate(host, 11, kHour);
  EXPECT_EQ(decide(co, host, next),
            record(11, "\"accepted\":true,\"reason\":\"accepted\","
                       "\"scanned\":2,\"admissible\":2,\"nodes\":[1],"
                       "\"rejects\":{}"));
  host.release(10);
  EXPECT_EQ(decide(co, host, next), record(11, first));
  host.release(1);
  EXPECT_EQ(decide(co, host, next),
            record(11, "\"accepted\":true,\"reason\":\"accepted\","
                       "\"scanned\":2,\"admissible\":2,\"nodes\":[1],"
                       "\"rejects\":{}"));
}

// A refresh files only the nodes stamped since the last one and keeps
// every other row: the first call files every free-secondary node, an
// unchanged machine files nothing, and a start or release on one node
// files that node alone.
TEST(CoScanTable, RefreshFilesOnlyTheChangedNodes) {
  FuzzHost host(4, 3);
  obs::Registry registry;
  host.set_registry(&registry);
  for (NodeId n = 0; n < 4; ++n) {
    host.add_running_primary(resident(n + 1, "GTC", 2 * kHour), {n});
  }
  const core::CoAllocator co{core::CoAllocationOptions{}};
  const auto counts = [&] {
    return std::pair{registry.counter("co_table_rows_filed").value(),
                     registry.counter("co_table_rows_kept").value()};
  };
  const JobId cand = queue_candidate(host, 10, kHour);
  ASSERT_TRUE(co.select_nodes(host, cand, true).has_value());
  EXPECT_EQ(counts(), std::pair(std::uint64_t{4}, std::uint64_t{0}));
  ASSERT_TRUE(co.select_nodes(host, cand, true).has_value());
  EXPECT_EQ(counts(), std::pair(std::uint64_t{4}, std::uint64_t{0}));
  // Node 2 keeps one free secondary slot, under a new signature.
  host.start_secondary(cand, {2});
  const JobId next = queue_candidate(host, 11, kHour);
  (void)co.select_nodes(host, next, true);
  EXPECT_EQ(counts(), std::pair(std::uint64_t{5}, std::uint64_t{3}));
  host.release(cand);
  (void)co.select_nodes(host, next, true);
  EXPECT_EQ(counts(), std::pair(std::uint64_t{6}, std::uint64_t{6}));
}

// One allocator asked about a second machine with the same allocation
// history (so the same node generations) must not answer from the first
// machine's table.
TEST(CoScanTable, SwitchingMachinesDropsTheTable) {
  FuzzHost gtc(2, 2);
  FuzzHost milc(2, 2);
  for (NodeId n = 0; n < 2; ++n) {
    gtc.add_running_primary(resident(n + 1, "GTC", 2 * kHour), {n});
    milc.add_running_primary(resident(n + 1, "MILC", 2 * kHour), {n});
  }
  const JobId cand = queue_candidate(gtc, 10, kHour);
  queue_candidate(milc, cand, kHour);
  const core::CoAllocator co{core::CoAllocationOptions{}};
  const testing::ReferenceCoScan reference(co.options());
  for (FuzzHost* host : {&gtc, &milc, &gtc}) {
    EXPECT_EQ(co.select_nodes(*host, cand, true),
              reference.select_nodes(*host, cand, true));
  }
  EXPECT_TRUE(co.select_nodes(gtc, cand, true).has_value());
  EXPECT_FALSE(co.select_nodes(milc, cand, true).has_value());
}

// Oracle and class-rule verdicts are memoized per signature, and the memo
// outlives table refreshes on the same machine: a new node with a known
// signature costs no evaluation, a new signature costs one.
TEST(CoScanTable, MemoizedVerdictsOutliveRebuilds) {
  for (const core::GateMode gate :
       {core::GateMode::kOracle, core::GateMode::kClassRule}) {
    FuzzHost host(4, 2);
    obs::Registry registry;
    host.set_registry(&registry);
    host.add_running_primary(resident(1, "GTC", 2 * kHour), {0});
    host.add_running_primary(resident(2, "GTC", 2 * kHour), {1});
    core::CoAllocationOptions options;
    options.gate_mode = gate;
    const core::CoAllocator co(options);
    const JobId cand = queue_candidate(host, 10, kHour);
    const auto evals = [&] {
      return registry.counter("co_gate_evals").value();
    };
    ASSERT_TRUE(co.select_nodes(host, cand, true).has_value());
    EXPECT_EQ(evals(), 1u) << core::to_string(gate);
    host.add_running_primary(resident(3, "GTC", 2 * kHour), {2});
    ASSERT_TRUE(co.select_nodes(host, cand, true).has_value());
    EXPECT_EQ(evals(), 1u) << core::to_string(gate);
    host.add_running_primary(resident(4, "UMT", 2 * kHour), {3});
    (void)co.select_nodes(host, cand, true);
    EXPECT_EQ(evals(), 2u) << core::to_string(gate);
  }
}

// Learned verdicts are not memoized: the estimator learns while the
// machine stands still, and the next call must see what it learned.
TEST(CoScanTable, LearnedVerdictsFollowTheEstimator) {
  FuzzHost host(2, 2);
  host.add_running_primary(resident(1, "GTC", 2 * kHour), {0});
  host.add_running_primary(resident(2, "GTC", 2 * kHour), {1});
  core::CoAllocationOptions options;
  options.gate_mode = core::GateMode::kLearned;
  const core::CoAllocator co(options);
  const JobId cand = queue_candidate(host, 10, kHour);
  // Unseen pair: the class rule admits compute-bound x memory-bound.
  EXPECT_EQ(decide(co, host, cand),
            record(10, "\"accepted\":true,\"reason\":\"accepted\","
                       "\"scanned\":2,\"admissible\":2,\"nodes\":[0],"
                       "\"rejects\":{}"));
  for (int i = 0; i < options.min_samples; ++i) {
    host.estimator.observe(app("miniFE"), app("GTC"), 1.9);
    host.estimator.observe(app("GTC"), app("miniFE"), 1.9);
  }
  // Same machine, but history now says the pair dilates past the cap.
  EXPECT_EQ(decide(co, host, cand),
            record(10, "\"accepted\":false,\"reason\":\"insufficient_nodes\","
                       "\"scanned\":2,\"admissible\":0,"
                       "\"rejects\":{\"dilation_cap\":2}"));
}

// --- Held rejections --------------------------------------------------------
//
// An unobserved call (no tracer, no registry) may answer from a rejection
// held since the machine last changed (DESIGN.md "Held rejections"). Its
// answer is the walk's answer by construction, so these tests tell the two
// apart by the app lookup only a walk makes.

/// One unobserved call: whether the candidate was admitted, and whether
/// the table was walked for it.
struct Answer {
  bool admitted;
  bool walked;
  bool operator==(const Answer&) const = default;
};
constexpr Answer kWalkedAdmit{true, true};
constexpr Answer kWalkedReject{false, true};
constexpr Answer kHeldReject{false, false};

Answer ask(const core::CoAllocator& co, FuzzHost& host, JobId cand,
           bool respect_deadline = true) {
  const int lookups = host.app_lookups;
  const bool admitted =
      co.select_nodes(host, cand, respect_deadline).has_value();
  return {admitted, host.app_lookups != lookups};
}

/// Three GTC residents ending at 10 h: three admissible nodes for miniFE.
void three_gtc(FuzzHost& host) {
  for (NodeId n = 0; n < 3; ++n) {
    host.add_running_primary(resident(n + 1, "GTC", 10 * kHour), {n});
  }
}

// A rejection answers every later candidate of its app that wants more
// nodes than the walk found, with an end no earlier, while the machine
// stands still, even as the clock moves on. The held answer costs one job
// lookup and no app lookup.
TEST(CoScanTable, HeldRejectionOutlastsTheClock) {
  for (const bool respect_deadline : {true, false}) {
    FuzzHost host(4, 2);
    three_gtc(host);
    const core::CoAllocator co{core::CoAllocationOptions{}};
    EXPECT_EQ(ask(co, host, queue_candidate(host, 10, kHour, 5),
                  respect_deadline),
              kWalkedReject);
    // Three rows were admissible, so four nodes are already too many.
    EXPECT_EQ(ask(co, host, queue_candidate(host, 11, kHour, 4),
                  respect_deadline),
              kHeldReject);
    host.set_now(30 * kMinute);
    const int jobs = host.job_lookups;
    EXPECT_EQ(ask(co, host, queue_candidate(host, 12, kHour, 4),
                  respect_deadline),
              kHeldReject);
    EXPECT_EQ(host.job_lookups, jobs + 1);
    EXPECT_EQ(ask(co, host, queue_candidate(host, 13, 2 * kHour, 9),
                  respect_deadline),
              kHeldReject);
  }
}

// Every change to the machine drops the held rejections: the next
// candidate walks the table again, and a start that adds a row admits it.
TEST(CoScanTable, EveryMachineMoveDropsHeldRejections) {
  const std::vector<std::pair<const char*, void (*)(FuzzHost&)>> moves = {
      {"start",
       [](FuzzHost& h) {
         h.add_running_primary(resident(4, "GTC", 10 * kHour), {3});
       }},
      {"release", [](FuzzHost& h) { h.release(2); }},
      {"node toggle", [](FuzzHost& h) { h.set_node_down(3, true); }},
  };
  for (const auto& [name, move] : moves) {
    FuzzHost host(4, 2);
    three_gtc(host);
    const core::CoAllocator co{core::CoAllocationOptions{}};
    const JobId cand = queue_candidate(host, 10, kHour, 4);
    EXPECT_EQ(ask(co, host, cand), kWalkedReject) << name;
    EXPECT_EQ(ask(co, host, cand), kHeldReject) << name;
    move(host);
    EXPECT_EQ(ask(co, host, cand),
              std::string(name) == "start" ? kWalkedAdmit : kWalkedReject)
        << name;
  }
}

// The clock running backwards drops them too, though no table row moved.
TEST(CoScanTable, ClockRunningBackwardsDropsHeldRejections) {
  FuzzHost host(4, 2);
  three_gtc(host);
  const core::CoAllocator co{core::CoAllocationOptions{}};
  host.set_now(kHour);
  EXPECT_EQ(ask(co, host, queue_candidate(host, 10, kHour, 4)),
            kWalkedReject);
  EXPECT_EQ(ask(co, host, queue_candidate(host, 11, 2 * kHour, 4)),
            kHeldReject);
  host.set_now(30 * kMinute);
  EXPECT_EQ(ask(co, host, queue_candidate(host, 12, 2 * kHour, 4)),
            kWalkedReject);
}

// A second machine with the same allocation history (so the same
// generation) is a machine change: the first one's rejections do not hold.
TEST(CoScanTable, SwitchingMachinesDropsHeldRejections) {
  FuzzHost gtc(2, 2);
  FuzzHost milc(2, 2);
  for (NodeId n = 0; n < 2; ++n) {
    gtc.add_running_primary(resident(n + 1, "GTC", 2 * kHour), {n});
    milc.add_running_primary(resident(n + 1, "MILC", 2 * kHour), {n});
  }
  const JobId cand = queue_candidate(gtc, 10, kHour, 2);
  queue_candidate(milc, cand, kHour, 2);
  ASSERT_EQ(gtc.machine().generation(), milc.machine().generation());
  const core::CoAllocator co{core::CoAllocationOptions{}};
  EXPECT_EQ(ask(co, milc, cand), kWalkedReject);
  EXPECT_EQ(ask(co, milc, cand), kHeldReject);
  EXPECT_EQ(ask(co, gtc, cand), kWalkedAdmit);
}

// A candidate the rejection does not cover is walked, and admitted where
// the rows allow: fewer nodes than were admissible, an earlier end that
// clears a fence, or another app.
TEST(CoScanTable, UncoveredCandidatesAreWalked) {
  for (const core::GateMode gate :
       {core::GateMode::kOracle, core::GateMode::kClassRule}) {
    core::CoAllocationOptions options;
    options.gate_mode = gate;
    const core::CoAllocator co(options);
    {
      // Node 0's resident ends at 1 h and fences any later end.
      FuzzHost host(4, 2);
      host.add_running_primary(resident(1, "GTC", kHour), {0});
      host.add_running_primary(resident(2, "GTC", 10 * kHour), {1});
      host.add_running_primary(resident(3, "GTC", 10 * kHour), {2});
      EXPECT_EQ(ask(co, host, queue_candidate(host, 10, 2 * kHour, 3)),
                kWalkedReject);
      EXPECT_EQ(ask(co, host, queue_candidate(host, 11, 2 * kHour, 2)),
                kWalkedAdmit)
          << "fewer nodes, " << core::to_string(gate);
    }
    {
      FuzzHost host(4, 2);
      host.add_running_primary(resident(1, "GTC", kHour), {0});
      host.add_running_primary(resident(2, "GTC", 10 * kHour), {1});
      host.add_running_primary(resident(3, "GTC", 10 * kHour), {2});
      EXPECT_EQ(ask(co, host, queue_candidate(host, 10, 2 * kHour, 3)),
                kWalkedReject);
      EXPECT_EQ(ask(co, host, queue_candidate(host, 11, kHour, 3)),
                kWalkedAdmit)
          << "earlier end, " << core::to_string(gate);
    }
    {
      // Two compute-bound codes do not pair; GTC and miniFE do.
      FuzzHost host(4, 2);
      three_gtc(host);
      host.add_pending(testing::make_job(10, 3, kMinute, kHour, app("GTC")));
      EXPECT_EQ(ask(co, host, 10), kWalkedReject) << core::to_string(gate);
      EXPECT_EQ(ask(co, host, queue_candidate(host, 11, kHour, 3)),
                kWalkedAdmit)
          << "another app, " << core::to_string(gate);
    }
  }
}

// The learned gate never holds a rejection: its estimator learns while
// the machine stands still, and the next call must see what it learned.
TEST(CoScanTable, LearnedGateNeverHoldsARejection) {
  FuzzHost host(2, 2);
  host.add_running_primary(resident(1, "GTC", 2 * kHour), {0});
  host.add_running_primary(resident(2, "GTC", 2 * kHour), {1});
  core::CoAllocationOptions options;
  options.gate_mode = core::GateMode::kLearned;
  const core::CoAllocator co(options);
  const AppId fe = app("miniFE");
  const AppId gtc = app("GTC");
  for (int i = 0; i < options.min_samples; ++i) {
    host.estimator.observe(fe, gtc, 1.9);
    host.estimator.observe(gtc, fe, 1.9);
  }
  const JobId cand = queue_candidate(host, 10, kHour, 2);
  EXPECT_EQ(ask(co, host, cand), kWalkedReject);
  EXPECT_EQ(ask(co, host, cand), kWalkedReject);
  // Same machine, but history now says the pair shares well.
  for (int i = 0; i < 20; ++i) {
    host.estimator.observe(fe, gtc, 1.0);
    host.estimator.observe(gtc, fe, 1.0);
  }
  EXPECT_EQ(ask(co, host, cand), kWalkedAdmit);
}

}  // namespace
}  // namespace cosched
