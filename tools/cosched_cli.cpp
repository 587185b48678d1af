// cosched — the command-line driver for the simulator.
//
//   cosched sim      --config FILE [--workload trace.swf]
//                    [--campaign trinity|membound|compute] [--jobs N]
//                    [--stream-load RHO] [--seed N]
//                    [--sacct] [--gantt out.csv] [--swf-out out.swf]
//                    [--json out.json] [--trace out.jsonl]
//                    [--metrics-json out.json] [--profile]
//                    # jobs are pulled lazily (SWF or generator), so a
//                    # 100k-job trace never materializes, and
//                    # every job retires as it finishes; its record is
//                    # kept only for --sacct/--gantt/--swf-out/--json, so
//                    # otherwise memory is O(in-flight jobs)
//   cosched compare  --config FILE [--jobs N] [--seed N] [--csv]
//                    [--threads N]   # parallel fan-out; output is
//                                    # identical for every N
//                    [--metrics-json out.json] [--profile]
//   cosched validate --workload trace.swf [--nodes N]
//   cosched audit    [--strategy NAME|all] [--seed N] [--jobs N]
//                    [--campaign trinity|membound|compute] [--config FILE]
//   cosched config   [--config FILE]      # print effective configuration
//   cosched trace    FILE.jsonl [--chrome out.json]
//                    # validate every record through the project JSON
//                    # parser, summarize, optionally convert to the Chrome
//                    # trace_event format (about:tracing / Perfetto)
//   cosched report   [same run flags as sim] [--out FILE]
//                    # run the simulation and emit one byte-deterministic
//                    # JSON report: manifest (decision identity only), job
//                    # lifecycle span percentiles, golden metrics, stats,
//                    # and the deterministic registry instruments. The
//                    # bytes are identical across repeated runs of a seed.
//   cosched fleet    [--cells N] [--threads N] [--nodes N] [--jobs N]
//                    [--seed N] [--strategy NAME] [--config FILE]
//                    [--campaign trinity|membound|compute]
//                    [--stream-load RHO] [--out report.json]
//                    # N independent clusters ("cells") of one
//                    # configuration, seeds derived per cell, fanned over
//                    # a thread pool, merged in fixed cell order. The
//                    # report is byte-identical for every --threads.
//   cosched diff     A.jsonl B.jsonl [--context N]
//                    # align two trace streams and report the first
//                    # divergent record with decoded context (reason
//                    # codes, pass boundaries, involved nodes/jobs).
//                    # Manifest execution blocks (threads, build, ...)
//                    # are ignored: runs that differ only there are
//                    # required to agree everywhere else. Exit 0 when
//                    # identical, 1 on divergence.
//   cosched analyze  [paths...] [--format human|json] [--baseline FILE]
//                    [--write-baseline] [--root DIR]
//                    # scope-aware determinism & data-race hazard analysis
//                    # (see tools/cosched_lint/analyze.hpp); default paths
//                    # are src/ tools/ bench/ under --root (default .).
//                    # Exit 0 clean, 1 findings, 2 I/O error.
//
// The config file is the slurm.conf-style format (see slurmlite/config.hpp);
// without --config, built-in defaults apply (32 nodes, 2-way SMT,
// cobackfill).
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>

#include "cosched_lint/driver.hpp"
#include "metrics/validate.hpp"
#include "obs/diff.hpp"
#include "obs/manifest.hpp"
#include "obs/process_stats.hpp"
#include "obs/profiler.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "runner/fleet.hpp"
#include "runner/runner.hpp"
#include "slurmlite/config.hpp"
#include "slurmlite/report.hpp"
#include "slurmlite/formatters.hpp"
#include "slurmlite/simulation.hpp"
#include "trace/gantt.hpp"
#include "trace/swf.hpp"
#include "util/flags.hpp"
#include "util/input.hpp"
#include "util/json.hpp"
#include "util/table.hpp"
#include "workload/campaign.hpp"

namespace {

using namespace cosched;

int usage() {
  std::cerr << "usage: cosched <sim|compare|validate|audit|config|trace|"
               "report|fleet|diff|analyze> [flags]\n"
               "run with a subcommand; see the header of tools/cosched_cli"
               ".cpp or README.md for flag details\n";
  return 2;
}

/// Shared --profile epilogue: prints the per-phase wall-clock table when
/// profiling was armed and anything was recorded.
void print_profile_report(bool enabled) {
  if (!enabled) return;
  obs::set_profiling_enabled(false);
  const std::string report = obs::profiler_report();
  if (!report.empty()) std::cout << report;
}

slurmlite::ControllerConfig load_config(const Flags& flags) {
  const std::string path = flags.get_string("config", "");
  if (path.empty()) {
    slurmlite::ControllerConfig config;
    config.strategy = core::StrategyKind::kCoBackfill;
    return config;
  }
  return slurmlite::parse_config_file(path);
}

int jobs_flag(const Flags& flags) { return flags.get_int_in("jobs", 300, 1); }

int nodes_flag(const Flags& flags, int def) {
  return flags.get_int_in("nodes", def, 1, kMaxNodes);
}

int threads_flag(const Flags& flags) {
  return flags.get_int_in("threads", 0, 0, runner::kMaxThreads);
}

workload::GeneratorParams campaign_params(const Flags& flags, int nodes) {
  const std::string campaign = flags.get_string("campaign", "trinity");
  const int jobs = jobs_flag(flags);
  workload::GeneratorParams params;
  if (campaign == "trinity") {
    params = workload::trinity_campaign(nodes, jobs);
  } else if (campaign == "membound") {
    params = workload::memory_bound_campaign(nodes, jobs);
  } else if (campaign == "compute") {
    params = workload::compute_bound_campaign(nodes, jobs);
  } else {
    throw Error("unknown --campaign '" + campaign +
                "' (want trinity|membound|compute)");
  }
  const double rho = flags.get_positive_double("stream-load", 0.0);
  if (rho > 0) {
    params.arrival = workload::ArrivalMode::kStream;
    params.offered_load = rho;
  }
  return params;
}

/// An SWF replay decorates jobs with the catalog's shareable flag.
class ShareableFromCatalog final : public workload::JobSource {
 public:
  ShareableFromCatalog(workload::JobSource& inner,
                       const apps::Catalog& catalog)
      : inner_(inner), catalog_(catalog) {}
  std::optional<workload::Job> next() override {
    auto job = inner_.next();
    if (job && job->app >= 0) {
      job->shareable = catalog_.get(job->app).shareable;
    }
    return job;
  }

 private:
  workload::JobSource& inner_;
  const apps::Catalog& catalog_;
};

/// The run manifest a sim/report invocation stamps into its artifacts
/// (obs/manifest.hpp). Decision-identity fields come from the resolved
/// config; execution fields record how this invocation was carried out.
obs::RunManifest manifest_from(const Flags& flags, const char* command,
                               const slurmlite::ControllerConfig& config,
                               std::uint64_t seed) {
  obs::RunManifest m;
  m.command = command;
  m.strategy = core::to_string(config.strategy);
  m.queue_policy =
      config.queue_policy == slurmlite::QueuePolicy::kFifo ? "fifo"
                                                           : "priority";
  const std::string trace = flags.get_string("workload", "");
  m.workload = !trace.empty() ? trace : flags.get_string("campaign",
                                                         "trinity");
  m.seed = seed;
  m.nodes = config.nodes;
  // SWF replays learn their job count only by draining the trace; the
  // manifest is stamped up front, so record "unknown" rather than a lie.
  m.jobs = trace.empty() ? jobs_flag(flags) : -1;
  m.threads = 1;
  return m;
}

/// Runs the simulation described by `flags` + `spec`, pulling jobs one at
/// a time in arrival order (an SWF replay when --workload is set, the
/// campaign generator otherwise), so pending state stays O(running)
/// regardless of trace length. The spec's registry — when attached — is
/// bound to the SWF source so malformed-line skips also surface as the
/// swf_malformed_lines counter.
slurmlite::SimulationResult run_from_flags(
    const Flags& flags, const slurmlite::SimulationSpec& spec,
    const apps::Catalog& catalog, std::uint64_t seed) {
  const std::string trace_in = flags.get_string("workload", "");
  if (!trace_in.empty()) {
    trace::SwfJobSource swf(trace_in, catalog.size());
    swf.bind_registry(spec.controller.registry);
    ShareableFromCatalog source(swf, catalog);
    return slurmlite::run_stream(spec, catalog, source);
  }
  const workload::Generator generator(
      campaign_params(flags, spec.controller.nodes), catalog);
  workload::GeneratorJobSource source(generator, Pcg32(seed, 0xc11));
  return slurmlite::run_stream(spec, catalog, source);
}

int cmd_sim(const Flags& flags) {
  const auto catalog = apps::Catalog::trinity();
  const auto config = load_config(flags);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));

  obs::Tracer tracer;
  obs::Registry registry;
  obs::SpanLedger spans;
  const std::string trace_path = flags.get_string("trace", "");
  // Trace records stream straight to the file as they are emitted (the
  // bytes a buffering tracer's str() returns) so tracing a million-job run
  // costs O(1) memory, not O(records).
  std::ofstream trace_out;
  if (!trace_path.empty()) {
    trace_out.open(trace_path);
    if (!trace_out.good()) throw Error("cannot write '" + trace_path + "'");
    tracer.stream_to(&trace_out);
  }
  const std::string metrics_path = flags.get_string("metrics-json", "");
  const std::string spans_path = flags.get_string("spans", "");
  const bool profile = flags.get_bool("profile", false);
  if (profile) {
    obs::profiler_reset();
    obs::set_profiling_enabled(true);
  }

  slurmlite::SimulationSpec spec;
  spec.controller = config;
  spec.seed = seed;
  // Retired records are kept only for the per-job outputs; without them
  // resident memory stays O(in-flight jobs) at million-job scale.
  const bool sacct = flags.get_bool("sacct", false);
  const std::string gantt_path = flags.get_string("gantt", "");
  const std::string swf_path = flags.get_string("swf-out", "");
  const std::string json_path = flags.get_string("json", "");
  spec.controller.retire_finished = !sacct && gantt_path.empty() &&
                                    swf_path.empty() && json_path.empty();
  if (!trace_path.empty()) spec.controller.tracer = &tracer;
  if (!metrics_path.empty()) spec.controller.registry = &registry;
  if (!spans_path.empty()) spec.controller.spans = &spans;
  // --snapshot-every S: sample utilization/queue-depth gauges into the
  // trace and registry every S seconds of sim time.
  spec.controller.snapshot_period = flags.get_seconds("snapshot-every", 0.0);
  const obs::RunManifest manifest = manifest_from(flags, "sim", config, seed);
  // The manifest is the first trace record (t_us = 0), stamped before the
  // run so even an aborted run leaves a self-describing artifact.
  if (!trace_path.empty()) tracer.manifest(manifest);
  const auto result = run_from_flags(flags, spec, catalog, seed);

  if (sacct) std::cout << slurmlite::sacct(result.jobs, catalog) << "\n";
  std::cout << slurmlite::metrics_summary(result.metrics);
  std::cout << "strategy: " << core::to_string(config.strategy)
            << "   co-allocated starts: " << result.stats.secondary_starts
            << "   scheduler passes: " << result.stats.scheduler_passes
            << "\n";

  if (!gantt_path.empty()) {
    trace::write_gantt_csv_file(gantt_path, result.jobs, catalog);
    std::cout << "wrote gantt to " << gantt_path << "\n";
  }
  if (!swf_path.empty()) {
    trace::write_swf_file(swf_path, trace::jobs_to_swf(result.jobs),
                          "cosched sim output");
    std::cout << "wrote SWF to " << swf_path << "\n";
  }
  if (!json_path.empty()) {
    slurmlite::write_json_file(json_path, result, catalog, &manifest);
    std::cout << "wrote JSON to " << json_path << "\n";
  }
  if (!trace_path.empty()) {
    trace_out.close();
    std::cout << "wrote " << tracer.size() << " trace records to "
              << trace_path << "\n";
  }
  if (!metrics_path.empty()) {
    std::ofstream out(metrics_path);
    if (!out.good()) throw Error("cannot write '" + metrics_path + "'");
    out << "{\"manifest\":"
        << obs::manifest_json(manifest, /*include_execution=*/true)
        << ",\"process\":"
        << obs::process_stats_json(obs::process_stats())
        << ",\"registry\":" << registry.to_json() << "}\n";
    std::cout << "wrote metrics to " << metrics_path << "\n";
  }
  if (!spans_path.empty()) {
    std::ofstream out(spans_path);
    if (!out.good()) throw Error("cannot write '" + spans_path + "'");
    out << "{\"manifest\":"
        << obs::manifest_json(manifest, /*include_execution=*/false)
        << ",\"spans\":" << spans.to_json() << "}\n";
    std::cout << "wrote span report to " << spans_path << "\n";
  }
  print_profile_report(profile);
  return 0;
}

// Runs the simulation and emits one byte-deterministic JSON report:
// manifest (decision identity only — no execution block), span
// percentiles, golden metrics, stats sans the wall-clock CPU field, and
// the registry instruments sans "_wall_" names. Identical bytes across
// repeated runs of a seed.
int cmd_report(const Flags& flags) {
  const auto catalog = apps::Catalog::trinity();
  const auto config = load_config(flags);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));

  obs::Registry registry;
  obs::SpanLedger spans;
  slurmlite::SimulationSpec spec;
  spec.controller = config;
  spec.seed = seed;
  spec.controller.registry = &registry;
  spec.controller.spans = &spans;
  spec.controller.snapshot_period = flags.get_seconds("snapshot-every", 0.0);
  // Nothing the report prints reads a job record.
  spec.controller.retire_finished = true;
  const obs::RunManifest manifest =
      manifest_from(flags, "report", config, seed);
  const auto result = run_from_flags(flags, spec, catalog, seed);

  // Metrics/stats fragments come from the same field writers as the sim
  // JSON export, with the one wall-clock stats field dropped.
  JsonWriter mw;
  mw.begin_object();
  slurmlite::write_metrics_fields(mw, result.metrics);
  mw.end_object();
  JsonWriter sw;
  sw.begin_object();
  slurmlite::write_stats_fields(sw, result.stats, /*include_wall=*/false);
  sw.end_object();

  std::ostringstream doc;
  doc << "{\"manifest\":"
      << obs::manifest_json(manifest, /*include_execution=*/false)
      << ",\"spans\":" << spans.to_json() << ",\"metrics\":" << mw.str()
      << ",\"stats\":" << sw.str()
      << ",\"registry\":" << registry.to_json(/*include_wall=*/false)
      << "}\n";

  if (const std::string path = flags.get_string("out", ""); !path.empty()) {
    std::ofstream out(path);
    if (!out.good()) throw Error("cannot write '" + path + "'");
    out << doc.str();
  } else {
    std::cout << doc.str();
  }
  return 0;
}

// Sharded multi-cluster fleet: N independent cells of one configuration,
// each seeded with derive_seed(--seed, cell), fanned over a thread pool
// and merged in fixed cell order. The merged report (--out) is
// byte-identical for every --threads value — FleetParity pins it.
int cmd_fleet(const Flags& flags) {
  const auto catalog = apps::Catalog::trinity();
  auto config = load_config(flags);
  config.nodes = nodes_flag(flags, config.nodes);
  if (const std::string s = flags.get_string("strategy", ""); !s.empty()) {
    config.strategy = core::parse_strategy(s);
  }
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const int threads = runner::resolve_threads(threads_flag(flags));

  runner::FleetSpec fleet;
  fleet.cells = flags.get_int_in("cells", 4, 1);
  fleet.base_seed = seed;
  fleet.cell.controller = config;
  // Nothing a fleet prints reads a job record.
  fleet.cell.controller.retire_finished = true;
  fleet.cell.workload = campaign_params(flags, config.nodes);

  obs::RunManifest manifest = manifest_from(flags, "fleet", config, seed);
  manifest.threads = threads;

  runner::ParallelRunner pool(threads);
  const runner::FleetResult result = runner::run_fleet(pool, fleet, catalog);

  std::int64_t jobs_total = 0;
  for (const auto& cell : result.cells) {
    jobs_total += cell.result.metrics.jobs_total;
  }
  std::cout << "fleet: " << fleet.cells << " cell(s) x " << config.nodes
            << " nodes, " << jobs_total << " jobs, digest 0x" << std::hex
            << std::setfill('0') << std::setw(16) << result.fleet_digest
            << std::dec << std::setfill(' ') << " (" << threads
            << " thread(s))\n";

  const std::string doc = runner::fleet_report_json(fleet, result, manifest);
  if (const std::string path = flags.get_string("out", ""); !path.empty()) {
    std::ofstream out(path);
    if (!out.good()) throw Error("cannot write '" + path + "'");
    out << doc << "\n";
    std::cout << "wrote fleet report to " << path << "\n";
  } else {
    std::cout << doc << "\n";
  }
  return 0;
}

// Aligns two trace streams and reports the first divergent record with
// decoded context. Exit 0 identical, 1 divergent, 2 usage (including an
// unreadable file: A is read before B, and the first that fails is named).
int cmd_diff(const Flags& flags) {
  const auto& positional = flags.positional();
  if (positional.size() != 2) {
    std::cerr << "diff requires two files: cosched diff A.jsonl B.jsonl "
                 "[--context N]\n";
    return 2;
  }
  obs::DiffOptions opts;
  opts.context = flags.get_int_in("context", 3, 0);
  std::string text[2];
  for (std::size_t i = 0; i < 2; ++i) {
    std::ifstream in;
    if (!open_input(in, positional[i])) {
      std::cerr << "error: cannot read '" << positional[i] << "'\n";
      return 2;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    text[i] = buffer.str();
  }
  const obs::DiffResult result = obs::diff_streams(
      positional[0], text[0], positional[1], text[1], opts);
  std::cout << result.report;
  return result.identical ? 0 : 1;
}

int cmd_compare(const Flags& flags) {
  const auto catalog = apps::Catalog::trinity();
  auto config = load_config(flags);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const bool csv = flags.get_bool("csv", false);

  const std::string metrics_path = flags.get_string("metrics-json", "");
  const bool profile = flags.get_bool("profile", false);
  if (profile) {
    obs::profiler_reset();
    obs::set_profiling_enabled(true);
  }

  // One independent simulation per strategy; fan them over the pool and
  // print in strategy order (results land in submission-order slots, so
  // the table is identical for every --threads value). Each cell gets its
  // own registry (share-nothing, like all cell state).
  runner::ParallelRunner pool(threads_flag(flags));
  std::vector<std::unique_ptr<obs::Registry>> registries;
  std::vector<slurmlite::SimulationSpec> specs;
  for (auto kind : core::all_strategies()) {
    config.strategy = kind;
    slurmlite::SimulationSpec spec;
    spec.controller = config;
    spec.workload = campaign_params(flags, config.nodes);
    spec.seed = seed;
    if (!metrics_path.empty()) {
      registries.push_back(std::make_unique<obs::Registry>());
      spec.controller.registry = registries.back().get();
    }
    specs.push_back(std::move(spec));
  }
  const auto results = runner::run_specs(pool, specs, catalog);

  Table t({"strategy", "makespan (h)", "sched eff", "comp eff",
           "mean wait (min)", "co-starts", "timeouts"});
  std::size_t i = 0;
  for (auto kind : core::all_strategies()) {
    const auto& r = results[i++];
    t.row()
        .add(core::to_string(kind))
        .add(r.metrics.makespan_s / 3600.0, 2)
        .add(r.metrics.scheduling_efficiency, 3)
        .add(r.metrics.computational_efficiency, 3)
        .add(r.metrics.mean_wait_s / 60.0, 1)
        .add(static_cast<std::int64_t>(r.stats.secondary_starts))
        .add(r.metrics.jobs_timeout);
  }
  t.print(std::cout, csv);
  if (!metrics_path.empty()) {
    // One document keyed by strategy name; each value is that run's
    // registry dump (already a complete JSON object).
    std::ofstream out(metrics_path);
    if (!out.good()) throw Error("cannot write '" + metrics_path + "'");
    out << "{";
    std::size_t k = 0;
    for (auto kind : core::all_strategies()) {
      if (k > 0) out << ",";
      out << "\"" << core::to_string(kind)
          << "\": " << registries[k]->to_json();
      ++k;
    }
    out << "}\n";
    std::cout << "wrote metrics to " << metrics_path << "\n";
  }
  print_profile_report(profile);
  return 0;
}

int cmd_validate(const Flags& flags) {
  const std::string trace = flags.get_string("workload", "");
  if (trace.empty()) {
    std::cerr << "validate requires --workload trace.swf\n";
    return 2;
  }
  const auto catalog = apps::Catalog::trinity();
  const int nodes = nodes_flag(flags, 32);
  auto jobs = trace::jobs_from_swf(trace::read_swf_file(trace),
                                   catalog.size());
  std::cout << "read " << jobs.size() << " jobs from " << trace << "\n";

  slurmlite::SimulationSpec spec;
  spec.controller.nodes = nodes;
  spec.controller.strategy = core::StrategyKind::kCoBackfill;
  const auto result = slurmlite::run_jobs(spec, catalog, jobs);
  const auto violations = metrics::validate_schedule(
      result.jobs, metrics::ValidationOptions{
                       .machine_nodes = nodes,
                       .slots_per_node =
                           spec.controller.node_config.smt_per_core});
  if (violations.empty()) {
    std::cout << "replay OK: " << result.metrics.jobs_completed
              << " completed, " << result.metrics.jobs_timeout
              << " hit walltime; schedule passes all invariants\n";
    return 0;
  }
  std::cout << "schedule violations:\n" << metrics::to_string(violations);
  return 1;
}

// Runs every requested strategy twice with the same seed, with the state
// auditor forced on, and compares the FNV-1a digests of the two event
// streams.  Any divergence means hidden nondeterminism in a decision path.
int cmd_audit(const Flags& flags) {
  const auto catalog = apps::Catalog::trinity();
  auto config = load_config(flags);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const std::string which = flags.get_string("strategy", "all");

  std::vector<core::StrategyKind> strategies;
  if (which == "all") {
    for (auto kind : core::all_strategies()) strategies.push_back(kind);
  } else {
    strategies.push_back(core::parse_strategy(which));
  }

  int divergent = 0;
  for (auto kind : strategies) {
    config.strategy = kind;
    slurmlite::SimulationSpec spec;
    spec.controller = config;
    spec.workload = campaign_params(flags, config.nodes);
    spec.seed = seed;
    spec.audit = slurmlite::AuditMode::kOn;
    const auto report = slurmlite::check_determinism(spec, catalog);
    std::cout << std::left << std::setw(14) << core::to_string(kind)
              << " seed=" << seed << "  events=" << report.first.events
              << "  hash=" << std::hex << std::setfill('0') << std::setw(16)
              << report.first.hash << std::dec << std::setfill(' ');
    if (report.deterministic()) {
      std::cout << "  deterministic\n";
    } else {
      ++divergent;
      std::cout << "  DIVERGED (second run: events=" << report.second.events
                << " hash=" << std::hex << std::setfill('0') << std::setw(16)
                << report.second.hash << std::dec << std::setfill(' ')
                << ")\n";
    }
  }
  if (divergent > 0) {
    std::cerr << divergent << " strategy(ies) produced divergent event "
                 "streams across identical seeded runs\n";
    return 1;
  }
  return 0;
}

int cmd_config(const Flags& flags) {
  std::cout << slurmlite::format_config(load_config(flags));
  return 0;
}

// Validates a JSONL decision trace through the project JSON parser and
// summarizes it; --chrome converts to the trace_event format.
int cmd_trace(const Flags& flags) {
  // Flags skips argv[0] (the subcommand), so [0] is the first operand.
  const auto& positional = flags.positional();
  if (positional.empty()) {
    std::cerr << "trace requires a file: cosched trace out.jsonl "
                 "[--chrome out.json]\n";
    return 2;
  }
  const std::string& path = positional[0];
  // Read before any early return, so a rejected trace never also warns
  // that --chrome went unused.
  const std::string chrome_path = flags.get_string("chrome", "");
  std::ifstream in;
  if (!open_input(in, path)) throw Error("cannot read '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string document = buffer.str();

  std::map<std::string, std::size_t> by_type;
  std::size_t records = 0;
  std::size_t co_accepted = 0;
  std::size_t co_rejected = 0;
  SimTime last_t = 0;
  std::istringstream lines(document);
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(lines, line)) {
    ++line_no;
    if (line.empty()) continue;
    obs::TraceRecord record;
    try {
      record = obs::TraceRecord::parse(line);
    } catch (const Error& e) {
      std::cerr << path << ":" << line_no << ": invalid record: " << e.what()
                << "\n";
      return 1;
    }
    ++records;
    last_t = record.t_us;
    ++by_type[record.type];
    if (record.type == "co_decision") {
      ++(record.accepted ? co_accepted : co_rejected);
    }
  }

  std::cout << path << ": " << records << " records, sim end t="
            << format_duration(last_t) << "\n";
  Table t({"record type", "count"});
  for (const auto& [type, count] : by_type) {
    t.row().add(type).add(static_cast<std::int64_t>(count));
  }
  t.print(std::cout, /*csv=*/false);
  if (co_accepted + co_rejected > 0) {
    std::cout << "co-allocation decisions: " << co_accepted << " accepted, "
              << co_rejected << " rejected\n";
  }

  if (!chrome_path.empty()) {
    std::ofstream out(chrome_path);
    if (!out.good()) throw Error("cannot write '" + chrome_path + "'");
    out << obs::to_chrome_trace(document) << "\n";
    std::cout << "wrote Chrome trace_event JSON to " << chrome_path << "\n";
  }
  return 0;
}

/// Static-analysis front door: runs the scope-aware analyzer passes via the
/// shared driver so `cosched analyze` and `cosched_lint --analyze` emit
/// byte-identical reports and exit codes.
int cmd_analyze(const Flags& flags) {
  lint::AnalyzeOptions opts;
  opts.format = flags.get_string("format", "human");
  if (opts.format != "human" && opts.format != "json") {
    throw Error("unknown --format '" + opts.format + "' (want human|json)");
  }
  opts.baseline_path = flags.get_string("baseline", "");
  opts.write_baseline = flags.get_bool("write-baseline", false);
  opts.root = flags.get_string("root", ".");
  opts.targets = flags.positional();
  if (opts.targets.empty()) opts.targets = lint::default_targets(opts.root);
  return lint::run_analyze_driver(opts, std::cout, std::cerr);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc < 2) return usage();
    const std::string command = argv[1];
    const Flags flags(argc - 1, argv + 1);
    int rc;
    if (command == "sim") {
      rc = cmd_sim(flags);
    } else if (command == "compare") {
      rc = cmd_compare(flags);
    } else if (command == "validate") {
      rc = cmd_validate(flags);
    } else if (command == "audit") {
      rc = cmd_audit(flags);
    } else if (command == "config") {
      rc = cmd_config(flags);
    } else if (command == "trace") {
      rc = cmd_trace(flags);
    } else if (command == "report") {
      rc = cmd_report(flags);
    } else if (command == "fleet") {
      rc = cmd_fleet(flags);
    } else if (command == "diff") {
      rc = cmd_diff(flags);
    } else if (command == "analyze") {
      rc = cmd_analyze(flags);
    } else {
      return usage();
    }
    // A usage error (exit 2) stays one line: the subcommand returned
    // before reading its flags, so they are not unused, just unread.
    if (rc != 2) {
      for (const auto& unknown : flags.unused()) {
        std::cerr << "warning: unused flag --" << unknown << "\n";
      }
    }
    return rc;
  } catch (const cosched::Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
