// R-A10: sharded multi-cluster fleet scaling — wall clock of one fleet
// (N independent cells of the same configuration, seeds derived per
// cell) across worker-thread counts, with the merged report
// byte-compared against the 1-thread reference at every point. The
// digest column and the byte check make the scaling claim falsifiable:
// a speedup that changed a single output byte would be reported as a
// correctness failure, not a perf result.
//
// Cells fan out over runner::ParallelRunner (share-nothing, submission-
// order collection) and merge in fixed cell order, so the report bytes
// are independent of the thread count by construction; this bench
// measures what that guarantee costs and how far the embarrassingly-
// parallel fleet regime scales on the host.
#include <chrono>
#include <iomanip>
#include <sstream>
#include <thread>

#include "bench_common.hpp"
#include "runner/fleet.hpp"

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

std::string hex_digest(std::uint64_t digest) {
  std::ostringstream out;
  out << "0x" << std::hex << std::setfill('0') << std::setw(16) << digest;
  return out.str();
}

}  // namespace

int bench_main(const Flags& flags) {
  const auto env = bench::BenchEnv::from_flags(flags, "bench_a9_fleet");
  const auto catalog = apps::Catalog::trinity();
  const auto strategy =
      core::parse_strategy(flags.get_string("strategy", "cobackfill"));
  const double load = flags.get_double("load", 0.9);
  const int cells = flags.get_int_in("cells", 8, 1);
  const auto thread_list = parse_list(flags.get_string("threads-list", "1,2,4,8"));

  runner::FleetSpec fleet;
  fleet.cells = cells;
  fleet.base_seed = env.base_seed;
  fleet.cell.controller.nodes = env.nodes;
  fleet.cell.controller.strategy = strategy;
  // Nothing the bench prints reads a job record.
  fleet.cell.controller.retire_finished = true;
  fleet.cell.workload = workload::trinity_stream(env.nodes, env.jobs, load);
  // Timing run: skip the debug-build auditor (hash_events is forced on by
  // run_fleet — the digest is the point of the byte check).
  fleet.cell.audit = slurmlite::AuditMode::kOff;

  obs::RunManifest manifest = env.manifest;
  manifest.strategy = core::to_string(strategy);
  manifest.workload = "trinity-stream";

  // The hw column repeats the host's hardware_concurrency so a --csv
  // consumer (CI's speedup gate) can skip speedup assertions on
  // single-core hosts without a side channel.
  Table t({"threads", "wall (s)", "speedup", "cells/s", "digest",
           "report", "hw"});
  std::string reference_report;
  double reference_wall = 0;
  for (const int threads : thread_list) {
    runner::ParallelRunner pool(runner::resolve_threads(threads));
    const auto start = Clock::now();
    const runner::FleetResult result =
        runner::run_fleet(pool, fleet, catalog);
    const std::chrono::duration<double> wall = Clock::now() - start;
    manifest.threads = pool.threads();
    const std::string report =
        runner::fleet_report_json(fleet, result, manifest);
    // The first thread count in the list (conventionally 1) is the
    // reference every later report must match byte-for-byte. The manifest
    // in the report excludes the execution block, so the thread count
    // itself never reaches the compared bytes.
    if (reference_report.empty()) {
      reference_report = report;
      reference_wall = wall.count();
    }
    const bool identical = report == reference_report;
    if (!identical) {
      throw Error("fleet report bytes diverged at " +
                  std::to_string(threads) + " thread(s)");
    }
    t.row()
        .add(threads)
        .add(wall.count(), 2)
        .add(reference_wall / wall.count(), 2)
        .add(static_cast<double>(cells) / wall.count(), 2)
        .add(hex_digest(result.fleet_digest))
        .add("identical")
        .add(static_cast<std::int64_t>(std::thread::hardware_concurrency()));
  }
  bench::emit(t, env,
              "R-A10: fleet scaling (" + std::to_string(cells) + " cells x " +
                  std::to_string(env.nodes) + " nodes x " +
                  std::to_string(env.jobs) + " jobs)",
              "One fleet of independent cells fanned over the runner pool; "
              "every row's merged report is byte-compared against the "
              "first row's. Speedup is relative to the first listed "
              "thread count. On a single-core host the curve is flat — "
              "the report column still proves thread-count independence.");
  bench::finish(env, flags);
  return 0;
}
