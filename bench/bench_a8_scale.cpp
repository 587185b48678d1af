// R-A8: scale fast path — end-to-end wall clock and peak memory across
// machine sizes and trace lengths. Every run pulls its generated arrivals
// lazily through the one arrival path; the bench compares keeping the
// finished job records against retiring them (dropping each record at its
// final state). Both make the same scheduling decisions and the same
// event stream, so every cell cross-checks the digest, makespan and
// completion counts while timing.
//
// Two modes:
//   default sweep: --nodes-list x --jobs-list grid; each cell runs the
//     two configurations back to back and reports wall seconds.
//     getrusage peak RSS is process-cumulative, so the sweep reports
//     time only.
//   --single: runs exactly ONE configuration (--retire or not) and
//     prints a JSON record with wall seconds,
//     scheduler-pass seconds (--profile arms the sampler), peak RSS and
//     CPU time. BENCH_pr5.json's headline cell runs one process per
//     configuration so the RSS numbers are honest. --retire frees each
//     job record at its final state (flat memory); --rss-every N adds
//     current-RSS checkpoints every N pulled jobs so flatness is
//     visible in the record, not just the peak.
#include <chrono>
#include <optional>
#include <sstream>
#include <utility>

#include "bench_common.hpp"
#include "obs/process_stats.hpp"

namespace {

using namespace cosched;

// Wall-clock timing is this bench's entire purpose; decision code stays
// on sim::Engine virtual time.
using Clock = std::chrono::steady_clock;  // cosched-lint: allow(no-wallclock)

std::vector<int> parse_list(const std::string& csv) {
  std::vector<int> out;
  std::stringstream in(csv);
  std::string item;
  while (std::getline(in, item, ',')) {
    if (!item.empty()) out.push_back(std::stoi(item));
  }
  if (out.empty()) throw Error("empty list flag: '" + csv + "'");
  return out;
}

slurmlite::SimulationSpec make_spec(int nodes, int jobs,
                                    core::StrategyKind strategy,
                                    std::uint64_t seed, double load) {
  slurmlite::SimulationSpec spec;
  spec.controller.nodes = nodes;
  spec.controller.strategy = strategy;
  spec.workload = workload::trinity_stream(nodes, jobs, load);
  spec.seed = seed;
  // Timing run: never pay for the debug-build auditor or event hashing.
  spec.audit = slurmlite::AuditMode::kOff;
  return spec;
}

struct CellResult {
  double wall_s = 0;
  /// Wall clock spent inside scheduler passes (ControllerStats). Nonzero
  /// only when --profile armed the sampler; the event loop and ingestion
  /// are the remainder.
  double sched_s = 0;
  double makespan_h = 0;
  std::size_t events = 0;
  std::size_t completed = 0;
  /// Event-stream digest; 0 unless the spec armed hash_events.
  std::uint64_t digest = 0;
  /// (jobs pulled, current RSS MiB) checkpoints — nonempty only when the
  /// cell ran with rss_every > 0. A flat sequence is the
  /// memory-stays-O(in-flight) proof peak RSS alone cannot give.
  std::vector<std::pair<int, double>> rss_samples;
};

/// JobSource decorator that samples the process's *current* RSS every
/// `every` jobs pulled. Sampling is host-state observation only — it
/// never feeds back into generation or scheduling.
class RssSamplingSource final : public workload::JobSource {
 public:
  RssSamplingSource(workload::JobSource& inner, int every,
                    std::vector<std::pair<int, double>>& out)
      : inner_(inner), every_(every), out_(out) {}

  std::optional<workload::Job> next() override {
    auto job = inner_.next();
    if (job && ++pulled_ % every_ == 0) {
      out_.emplace_back(pulled_, obs::current_rss_mb());
    }
    return job;
  }

 private:
  workload::JobSource& inner_;
  const int every_;
  int pulled_ = 0;
  std::vector<std::pair<int, double>>& out_;
};

/// Runs one configuration of one cell, pulling the generated arrivals
/// lazily (the JobList never materializes); with rss_every > 0 the pulls
/// pass through an RssSamplingSource.
/// Completion counts come from the metrics (not the record list), so the
/// same accounting works when spec.controller.retire_finished freed the
/// records.
CellResult run_cell(const slurmlite::SimulationSpec& spec,
                    const apps::Catalog& catalog, int rss_every = 0) {
  CellResult cell;
  const auto start = Clock::now();
  const auto result = [&] {
    if (rss_every == 0) return slurmlite::run_simulation(spec, catalog);
    const workload::Generator generator(spec.workload, catalog);
    // Same stream constant as run_simulation's generator draw, so the
    // sampled run pulls identical jobs.
    workload::GeneratorJobSource source(generator, Pcg32(spec.seed, 0x5eed));
    RssSamplingSource sampled(source, rss_every, cell.rss_samples);
    return slurmlite::run_stream(spec, catalog, sampled);
  }();
  const std::chrono::duration<double> wall = Clock::now() - start;
  cell.wall_s = wall.count();
  cell.sched_s =
      std::chrono::duration<double>(result.stats.scheduler_cpu).count();
  cell.makespan_h = result.metrics.makespan_s / 3600.0;
  cell.events = result.events_executed;
  cell.completed = static_cast<std::size_t>(result.metrics.jobs_completed) +
                   static_cast<std::size_t>(result.metrics.jobs_timeout);
  cell.digest = result.event_stream_hash;
  return cell;
}

}  // namespace

int bench_main(const Flags& flags) {
  const auto env = bench::BenchEnv::from_flags(flags, "bench_a8_scale");
  const auto catalog = apps::Catalog::trinity();
  const auto strategy =
      core::parse_strategy(flags.get_string("strategy", "cobackfill"));
  const double load = flags.get_double("load", 1.1);

  if (flags.get_bool("single", false)) {
    // One configuration, one process: the JSON record's peak_rss_mb is
    // attributable to exactly this retirement setting.
    const bool retire = flags.get_bool("retire", false);
    // --rss-every N: checkpoint current RSS every N jobs pulled; the
    // emitted series shows whether memory is flat in trace length (CI's
    // scale smoke asserts a ceiling on the checkpoints).
    const int rss_every = flags.get_int_in("rss-every", 0, 0);
    auto spec =
        make_spec(env.nodes, env.jobs, strategy, env.base_seed, load);
    spec.controller.retire_finished = retire;
    const auto cell = run_cell(spec, catalog, rss_every);
    // Shared getrusage probe (obs/process_stats.hpp); peak_rss_mb keeps
    // its historical name for the BENCH_pr5/pr7 consumers.
    const obs::ProcessStats process = obs::process_stats();
    std::cout << "{\"nodes\": " << env.nodes << ", \"jobs\": " << env.jobs
              << ", \"retire\": " << (retire ? "true" : "false")
              << ", \"strategy\": \"" << core::to_string(strategy) << "\""
              << ", \"hardware_concurrency\": " << process.hardware_concurrency
              << ", \"wall_s\": " << cell.wall_s
              << ", \"sched_s\": " << cell.sched_s
              << ", \"peak_rss_mb\": " << process.max_rss_mb
              << ", \"user_cpu_s\": " << process.user_cpu_s
              << ", \"sys_cpu_s\": " << process.sys_cpu_s
              << ", \"events\": " << cell.events
              << ", \"completed\": " << cell.completed
              << ", \"makespan_h\": " << cell.makespan_h;
    if (!cell.rss_samples.empty()) {
      std::cout << ", \"rss_samples\": [";
      for (std::size_t i = 0; i < cell.rss_samples.size(); ++i) {
        if (i > 0) std::cout << ", ";
        std::cout << "{\"jobs\": " << cell.rss_samples[i].first
                  << ", \"rss_mb\": " << cell.rss_samples[i].second << "}";
      }
      std::cout << "]";
    }
    std::cout << "}\n";
    bench::finish(env, flags);
    return 0;
  }

  const auto node_list =
      parse_list(flags.get_string("nodes-list", "1024,2048,4096,8192"));
  const auto job_list =
      parse_list(flags.get_string("jobs-list", "10000,100000"));

  Table t({"nodes", "jobs", "keep (s)", "retire (s)", "events",
           "makespan (h)"});
  for (const int nodes : node_list) {
    for (const int jobs : job_list) {
      // Hash every cell: the two configurations must agree
      // digest-for-digest (retirement reproduces the kept-record fold
      // from per-job subdigests), and the uniform hashing cost keeps the
      // timing comparison fair.
      auto spec = make_spec(nodes, jobs, strategy, env.base_seed, load);
      spec.hash_events = true;
      auto retire_spec = spec;
      retire_spec.controller.retire_finished = true;
      const auto kept = run_cell(spec, catalog);
      const auto retired = run_cell(retire_spec, catalog);
      // Same decisions => same schedule; a drift here is a correctness
      // bug, not a perf result.
      if (retired.digest != kept.digest ||
          retired.makespan_h != kept.makespan_h ||
          retired.events != kept.events ||
          retired.completed != kept.completed) {
        throw Error("retire diverged at " + std::to_string(nodes) +
                    " nodes / " + std::to_string(jobs) + " jobs");
      }
      t.row()
          .add(nodes)
          .add(jobs)
          .add(kept.wall_s, 2)
          .add(retired.wall_s, 2)
          .add(static_cast<std::int64_t>(kept.events))
          .add(kept.makespan_h, 2);
    }
  }
  bench::emit(t, env, "R-A8: scale fast path (kept records vs retire)",
              "Both columns pull the same generated arrivals lazily; the "
              "keep column keeps every finished job record, the retire "
              "column drops each at its final state (flat memory) and is "
              "digest-checked against keep. The makespan column is shared "
              "by construction. Peak-RSS comparisons need --single (one "
              "process per configuration).");
  bench::finish(env, flags);
  return 0;
}
