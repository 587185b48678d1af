// Benchmark harness: runs ONE CoSched simulation per process and prints one
// JSON object on stdout. perfbench/run.py owns the workload table, launches
// one process per simulation, measures its CPU and peak RSS from outside,
// and checks and aggregates the results.
//
//   perfbench_harness <mode> --nodes N --strategy S --load RHO --jobs J
//                     --seed X [--retire] [--swf PATH]
//
// Modes:
//   swf       generate the trinity_stream jobs and write them to PATH as an
//             SWF trace (input preparation for the replay workload; untimed)
//   plain     untraced run through the same entry points as `cosched sim`:
//             run_stream over a GeneratorJobSource, or read_swf_file +
//             jobs_from_swf + run_jobs when --swf is given
//   timing    the same simulation with the engine and controller built here
//             (as run_with does) so an event observer, a timing JobSource
//             decorator and the existing profiler scopes can watch it; it
//             also folds the event-stream digest the way run_with does, so
//             the decision trace's digest can be checked against it
//   decision  run_stream/run_jobs with event hashing on and a Tracer that
//             streams into an in-process counting sink (no file is written);
//             the traced allocation sequence is then replayed into a fresh
//             cluster::Machine
//
// Every figure is taken from outside the library, through its public API;
// nothing under src/ is instrumented for the benchmark.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <iostream>
#include <memory>
#include <optional>
#include <ostream>
#include <sstream>
#include <streambuf>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "apps/catalog.hpp"
#include "audit/determinism.hpp"
#include "cluster/machine.hpp"
#include "core/scheduler.hpp"
#include "metrics/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "sim/engine.hpp"
#include "slurmlite/controller.hpp"
#include "slurmlite/simulation.hpp"
#include "trace/swf.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "workload/campaign.hpp"
#include "workload/generator.hpp"
#include "workload/source.hpp"

namespace {

using namespace cosched;
// Host time is what a benchmark measures; it never reaches a decision.
using Clock = std::chrono::steady_clock;  // cosched-lint: allow(no-wallclock)

/// Set-up is repeated this many times per process; the median is reported
/// so one cold first pass does not decide the figure.
constexpr int kSetupRepeats = 5;
/// The generator stream `cosched sim` draws a seeded workload from.
constexpr std::uint64_t kWorkloadStream = 0xc11;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::string mode;
  int nodes = 0;
  std::string strategy;
  double load = 0;
  int jobs = 0;
  std::uint64_t seed = 1;
  bool retire = false;
  std::string swf;
};

Options parse_options(int argc, char** argv) {
  if (argc < 2) throw Error("usage: perfbench_harness <mode> [flags]");
  Options o;
  o.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--retire") {
      o.retire = true;
      continue;
    }
    if (i + 1 >= argc) throw Error("flag " + flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--nodes") {
      o.nodes = std::stoi(value);
    } else if (flag == "--strategy") {
      o.strategy = value;
    } else if (flag == "--load") {
      o.load = std::stod(value);
    } else if (flag == "--jobs") {
      o.jobs = std::stoi(value);
    } else if (flag == "--seed") {
      o.seed = std::stoull(value);
    } else if (flag == "--swf") {
      o.swf = value;
    } else {
      throw Error("unknown flag " + flag);
    }
  }
  COSCHED_REQUIRE(o.nodes > 0 && o.jobs > 0 && o.load > 0,
                  "--nodes, --jobs and --load must be positive");
  return o;
}

slurmlite::SimulationSpec make_spec(const Options& o) {
  slurmlite::SimulationSpec spec;
  spec.controller.nodes = o.nodes;
  spec.controller.strategy = core::parse_strategy(o.strategy);
  spec.controller.retire_finished = o.retire;
  spec.seed = o.seed;
  spec.audit = slurmlite::AuditMode::kOff;
  return spec;
}

// --- Inputs -------------------------------------------------------------------

/// Streaming inputs exactly as `cosched sim --stream` builds them. The
/// generator and the source refer to sibling members, so no copies.
struct StreamInputs {
  explicit StreamInputs(const Options& o)
      : catalog(apps::Catalog::trinity()),
        generator(workload::trinity_stream(o.nodes, o.jobs, o.load), catalog),
        source(generator, Pcg32(o.seed, kWorkloadStream)) {}
  StreamInputs(const StreamInputs&) = delete;
  StreamInputs& operator=(const StreamInputs&) = delete;
  apps::Catalog catalog;
  workload::Generator generator;
  workload::GeneratorJobSource source;
};

/// Materialized SWF replay inputs exactly as `cosched sim --workload` builds
/// them. `parse_s`, when given, receives the time of the read and the
/// conversion together.
struct SwfInputs {
  explicit SwfInputs(const Options& o, double* parse_s = nullptr)
      : catalog(apps::Catalog::trinity()) {
    const auto t0 = Clock::now();
    const std::vector<trace::SwfRecord> records =
        trace::read_swf_file(o.swf);
    jobs = trace::jobs_from_swf(records, catalog.size());
    for (workload::Job& job : jobs) {
      job.shareable = catalog.get(job.app).shareable;
    }
    if (parse_s != nullptr) *parse_s = seconds_since(t0);
    record_count = records.size();
  }
  apps::Catalog catalog;
  workload::JobList jobs;
  std::size_t record_count = 0;
};

/// Builds the inputs kSetupRepeats times and keeps the last; returns the
/// median build time. The previous copy is destroyed outside the timing.
template <typename Inputs>
double timed_setup(const Options& o, std::unique_ptr<Inputs>& keep) {
  std::vector<double> samples;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const auto t0 = Clock::now();
    auto fresh = std::make_unique<Inputs>(o);
    samples.push_back(seconds_since(t0));
    keep = std::move(fresh);
  }
  return quantile(std::move(samples), 0.5);
}

// --- JSON output --------------------------------------------------------------

/// Flat JSON object writer with full-precision numbers.
class Out {
 public:
  Out& num(const char* key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return raw(key, buf);
  }
  Out& count(const char* key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  Out& str(const char* key, const std::string& v) {
    return raw(key, "\"" + v + "\"");
  }
  void print() const { std::cout << "{" << body_.str() << "}" << std::endl; }

 private:
  Out& raw(const char* key, const std::string& v) {
    if (!first_) body_ << ",";
    first_ = false;
    body_ << "\"" << key << "\":" << v;
    return *this;
  }
  std::ostringstream body_;
  bool first_ = true;
};

/// Fields every simulating mode reports, so run.py can check outcomes and
/// compare traced against untraced runs.
void put_result(Out& out, const slurmlite::SimulationResult& r,
                std::size_t submitted, std::size_t rejected) {
  const metrics::ScheduleMetrics& m = r.metrics;
  out.count("submitted", submitted)
      .count("jobs_total", static_cast<std::uint64_t>(m.jobs_total))
      .count("completed", r.stats.completions)
      .count("timeouts", r.stats.timeouts)
      .count("rejected", rejected)
      .count("metric_completed", static_cast<std::uint64_t>(m.jobs_completed))
      .count("metric_timeouts", static_cast<std::uint64_t>(m.jobs_timeout))
      .count("events_executed", r.events_executed)
      .count("passes", r.stats.scheduler_passes)
      .count("starts_primary", r.stats.primary_starts)
      .count("starts_secondary", r.stats.secondary_starts)
      .num("sched_eff", m.scheduling_efficiency)
      .num("comp_eff", m.computational_efficiency)
      .num("mean_wait_h", m.mean_wait_s / 3600.0)
      .num("mean_slowdown", m.mean_bounded_slowdown);
}

std::string hex_digest(std::uint64_t digest) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(digest));
  return buf;
}

/// Jobs of the SWF input the controller must reject on entry (wider than
/// the machine). The generated streams cap job size at the machine size,
/// so they have none.
std::size_t too_wide(const workload::JobList& jobs, int nodes) {
  return static_cast<std::size_t>(
      std::count_if(jobs.begin(), jobs.end(),
                    [nodes](const workload::Job& j) { return j.nodes > nodes; }));
}

// --- Modes --------------------------------------------------------------------

int write_swf_input(const Options& o) {
  COSCHED_REQUIRE(!o.swf.empty(), "swf mode needs --swf PATH");
  const apps::Catalog catalog = apps::Catalog::trinity();
  const workload::Generator generator(
      workload::trinity_stream(o.nodes, o.jobs, o.load), catalog);
  Pcg32 rng(o.seed, kWorkloadStream);
  const workload::JobList jobs = generator.generate(rng);
  trace::write_swf_file(o.swf, trace::jobs_to_swf(jobs),
                        "perfbench generated trinity_stream workload");
  Out().count("jobs", jobs.size()).print();
  return 0;
}

int run_plain(const Options& o) {
  const slurmlite::SimulationSpec spec = make_spec(o);
  Out out;
  if (o.swf.empty()) {
    std::unique_ptr<StreamInputs> in;
    out.num("setup_s", timed_setup(o, in));
    const auto t0 = Clock::now();
    const auto result = slurmlite::run_stream(spec, in->catalog, in->source);
    out.num("sim_s", seconds_since(t0));
    put_result(out, result, static_cast<std::size_t>(o.jobs), 0);
  } else {
    std::unique_ptr<SwfInputs> in;
    out.num("setup_s", timed_setup(o, in));
    const auto t0 = Clock::now();
    const auto result = slurmlite::run_jobs(spec, in->catalog, in->jobs);
    out.num("sim_s", seconds_since(t0));
    put_result(out, result, in->jobs.size(), too_wide(in->jobs, o.nodes));
  }
  out.print();
  return 0;
}

/// Charges the host time between consecutive executed events to the event
/// just executed, by label: the rows add up to the engine's run() time.
class TimingObserver final : public sim::EventObserver {
 public:
  enum Kind { kSubmit, kPass, kJobEnd, kTimeout, kOther, kKinds };
  static constexpr const char* kNames[kKinds] = {"submit", "schedule_pass",
                                                 "job_end", "timeout",
                                                 "other"};

  void start() { last_ = Clock::now(); }

  void on_event_executed(SimTime /*when*/, sim::EventPriority /*priority*/,
                         sim::EventId id, const char* label) override {
    const auto t = Clock::now();
    const double dt = std::chrono::duration<double>(t - last_).count();
    last_ = t;
    const int k = kind_of(label);
    ++count[k];
    seconds[k] += dt;
    if (k == kPass) pass_seconds.push_back(dt);
    max_id = std::max(max_id, id);
  }

  std::uint64_t count[kKinds] = {};
  double seconds[kKinds] = {};
  std::vector<double> pass_seconds;
  sim::EventId max_id = 0;

 private:
  static int kind_of(const char* label) {
    for (int k = 0; k < kOther; ++k) {
      if (std::strcmp(label, kNames[k]) == 0) return k;
    }
    return kOther;
  }
  Clock::time_point last_;
};

/// Times every pull from the wrapped arrival stream.
class TimedSource final : public workload::JobSource {
 public:
  explicit TimedSource(workload::JobSource& inner) : inner_(inner) {}
  std::optional<workload::Job> next() override {
    const auto t0 = Clock::now();
    std::optional<workload::Job> job = inner_.next();
    seconds += seconds_since(t0);
    ++calls;
    return job;
  }
  std::uint64_t calls = 0;
  double seconds = 0;

 private:
  workload::JobSource& inner_;
};

obs::PhaseStats phase(const std::vector<obs::ThreadProfile>& profile,
                      const char* name) {
  obs::PhaseStats total;
  for (const obs::ThreadProfile& t : profile) {
    for (const auto& [phase_name, stats] : t.phases) {
      if (phase_name == name) {
        total.calls += stats.calls;
        total.total_ns += stats.total_ns;
      }
    }
  }
  return total;
}

int run_timing(const Options& o) {
  const slurmlite::SimulationSpec spec = make_spec(o);
  Out out;
  std::unique_ptr<StreamInputs> stream_in;
  std::unique_ptr<SwfInputs> swf_in;
  double parse_s = 0;
  std::uint64_t swf_bytes = 0;
  if (o.swf.empty()) {
    stream_in = std::make_unique<StreamInputs>(o);
  } else {
    swf_in = std::make_unique<SwfInputs>(o, &parse_s);
    swf_bytes = std::filesystem::file_size(o.swf);
  }
  const apps::Catalog& catalog =
      stream_in ? stream_in->catalog : swf_in->catalog;

  obs::profiler_reset();
  obs::set_profiling_enabled(true);
  TimingObserver observer;
  audit::EventStreamHasher hasher;
  std::optional<TimedSource> timed_source;
  slurmlite::SimulationResult result;
  double metrics_s = 0;
  std::size_t resident = 0;
  const auto t0 = Clock::now();
  {
    sim::Engine engine;
    slurmlite::Controller controller(engine, spec.controller, catalog);
    engine.add_observer(&hasher);
    engine.add_observer(&observer);
    if (stream_in) {
      timed_source.emplace(stream_in->source);
      controller.submit_stream(*timed_source);
    } else {
      controller.submit_all(swf_in->jobs);
    }
    observer.start();
    engine.run();
    result.stats = controller.stats();
    result.events_executed = engine.executed();
    if (controller.retire_mode()) {
      const auto m0 = Clock::now();
      result.metrics = controller.stream_metrics();
      metrics_s = seconds_since(m0);
      controller.fold_retired_digests(hasher.hash());
      resident = controller.resident_jobs();
    } else {
      result.jobs = controller.job_records();
      const auto m0 = Clock::now();
      result.metrics = metrics::compute(result.jobs, o.nodes);
      metrics_s = seconds_since(m0);
      audit::mix_jobs(hasher.hash(), result.jobs);
      resident = static_cast<std::size_t>(std::count_if(
          result.jobs.begin(), result.jobs.end(), [](const workload::Job& j) {
            return j.state == workload::JobState::kPending ||
                   j.state == workload::JobState::kRunning;
          }));
    }
    result.event_stream_hash = hasher.digest();
    controller.machine_state().check_invariants();
    engine.remove_observer(&observer);
    engine.remove_observer(&hasher);
  }
  const double wall_s = seconds_since(t0);
  obs::set_profiling_enabled(false);
  const auto profile = obs::profiler_snapshot();

  const std::size_t submitted =
      stream_in ? static_cast<std::size_t>(o.jobs) : swf_in->jobs.size();
  put_result(out, result, submitted,
             swf_in ? too_wide(swf_in->jobs, o.nodes) : 0);
  double attributed = 0;
  std::uint64_t observed = 0;
  for (int k = 0; k < TimingObserver::kKinds; ++k) {
    attributed += observer.seconds[k];
    observed += observer.count[k];
  }
  const obs::PhaseStats pass = phase(profile, "schedule_pass");
  const obs::PhaseStats strategy = phase(profile, "pass_strategy");
  const obs::PhaseStats settle = phase(profile, "pass_settle");
  out.num("wall_s", wall_s)
      .str("digest", hex_digest(result.event_stream_hash))
      .count("resident", resident)
      .num("unattributed_s", wall_s - attributed)
      .count("events_observed", observed)
      .count("max_event_id", observer.max_id);
  for (int k = 0; k < TimingObserver::kKinds; ++k) {
    const std::string name = TimingObserver::kNames[k];
    out.count(("events." + name).c_str(), observer.count[k]);
    out.num(("event_s." + name).c_str(), observer.seconds[k]);
  }
  out.num("pass_p50_us", quantile(observer.pass_seconds, 0.50) * 1e6)
      .num("pass_p99_us", quantile(observer.pass_seconds, 0.99) * 1e6)
      .count("pass_samples", observer.pass_seconds.size())
      .count("prof_pass_calls", pass.calls)
      .count("prof_strategy_calls", strategy.calls)
      .num("pass_s", static_cast<double>(pass.total_ns) * 1e-9)
      .num("strategy_s", static_cast<double>(strategy.total_ns) * 1e-9)
      .num("settle_s", static_cast<double>(settle.total_ns) * 1e-9)
      .count("next_calls", timed_source ? timed_source->calls : 0)
      .num("next_s", timed_source ? timed_source->seconds : 0.0)
      .num("parse_s", parse_s)
      .count("swf_bytes", swf_bytes)
      .count("swf_records", swf_in ? swf_in->record_count : 0)
      .num("metrics_s", metrics_s);
  out.print();
  return 0;
}

/// Decision-trace sink: consumes the JSONL records the tracer streams,
/// counts their bytes and the records of interest, sums the co-allocation
/// scan fields, and keeps the machine allocation sequence for the index
/// replay. Nothing is written anywhere.
class CountingSink final : public std::streambuf {
 public:
  enum class Op : std::uint8_t { kPrimary, kSecondary, kRelease };
  struct MachineOp {
    Op op;
    JobId job;
    std::vector<NodeId> nodes;
  };

  std::uint64_t bytes = 0;
  std::uint64_t co_decisions = 0;
  std::uint64_t co_accepted = 0;
  std::uint64_t co_scanned = 0;
  std::uint64_t co_admissible = 0;
  std::uint64_t shadows = 0;
  std::uint64_t backfill_rejects = 0;
  std::uint64_t allocs_primary = 0;
  std::uint64_t allocs_secondary = 0;
  std::uint64_t releases = 0;
  std::vector<MachineOp> machine_ops;

 protected:
  int_type overflow(int_type ch) override {
    if (ch != traits_type::eof()) {
      const char c = static_cast<char>(ch);
      xsputn(&c, 1);
    }
    return traits_type::not_eof(ch);
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    bytes += static_cast<std::uint64_t>(n);
    const char* const end = s + n;
    while (s != end) {
      const auto* nl = static_cast<const char*>(
          std::memchr(s, '\n', static_cast<std::size_t>(end - s)));
      if (nl == nullptr) {
        line_.append(s, end);
        break;
      }
      line_.append(s, nl);
      consume(line_);
      line_.clear();
      s = nl + 1;
    }
    return n;
  }

 private:
  /// Integer after `"key":` (0 when absent).
  static std::int64_t int_field(std::string_view line, std::string_view key) {
    const std::size_t at = line.find(key);
    if (at == std::string_view::npos) return 0;
    return std::strtoll(line.data() + at + key.size(), nullptr, 10);
  }

  static std::vector<NodeId> node_list(std::string_view line) {
    std::vector<NodeId> nodes;
    const std::size_t at = line.find("\"nodes\":[");
    if (at == std::string_view::npos) return nodes;
    const char* p = line.data() + at + 9;
    while (*p != ']') {
      char* stop = nullptr;
      const long id = std::strtol(p, &stop, 10);
      if (stop == p) break;  // not a number: the record is cut short
      nodes.push_back(static_cast<NodeId>(id));
      p = stop;
      if (*p == ',') ++p;
    }
    return nodes;
  }

  void consume(std::string_view line) {
    // Every record opens with {"t_us":<int>,"type":"<type>"
    const std::size_t at = line.find("\"type\":\"");
    if (at == std::string_view::npos) return;
    const std::size_t begin = at + 8;
    const std::string_view type =
        line.substr(begin, line.find('"', begin) - begin);
    if (type == "co_decision") {
      ++co_decisions;
      if (line.find("\"accepted\":true") != std::string_view::npos) {
        ++co_accepted;
      }
      co_scanned += static_cast<std::uint64_t>(int_field(line, "\"scanned\":"));
      co_admissible +=
          static_cast<std::uint64_t>(int_field(line, "\"admissible\":"));
    } else if (type == "shadow") {
      ++shadows;
    } else if (type == "backfill_reject") {
      ++backfill_rejects;
    } else if (type == "alloc_primary") {
      ++allocs_primary;
      keep(Op::kPrimary, line);
    } else if (type == "alloc_secondary") {
      ++allocs_secondary;
      keep(Op::kSecondary, line);
    } else if (type == "release") {
      ++releases;
      keep(Op::kRelease, line);
    }
  }

  void keep(Op op, std::string_view line) {
    machine_ops.push_back(
        {op, static_cast<JobId>(int_field(line, "\"job\":")), node_list(line)});
  }

  std::string line_;
};

int run_decision(const Options& o) {
  slurmlite::SimulationSpec spec = make_spec(o);
  spec.hash_events = true;
  CountingSink sink;
  std::ostream sink_stream(&sink);
  obs::Tracer tracer;
  tracer.stream_to(&sink_stream);
  spec.controller.tracer = &tracer;

  Out out;
  slurmlite::SimulationResult result;
  double wall_s = 0;
  if (o.swf.empty()) {
    StreamInputs in(o);
    const auto t0 = Clock::now();
    result = slurmlite::run_stream(spec, in.catalog, in.source);
    wall_s = seconds_since(t0);
    put_result(out, result, static_cast<std::size_t>(o.jobs), 0);
  } else {
    SwfInputs in(o);
    const auto t0 = Clock::now();
    result = slurmlite::run_jobs(spec, in.catalog, in.jobs);
    wall_s = seconds_since(t0);
    put_result(out, result, in.jobs.size(), too_wide(in.jobs, o.nodes));
  }
  sink_stream.flush();

  // Index writes alone: the traced allocation sequence against a fresh
  // machine of the same shape.
  cluster::Machine machine(o.nodes, spec.controller.node_config);
  const auto r0 = Clock::now();
  for (const CountingSink::MachineOp& op : sink.machine_ops) {
    switch (op.op) {
      case CountingSink::Op::kPrimary:
        machine.allocate_primary(op.job, op.nodes);
        break;
      case CountingSink::Op::kSecondary:
        machine.allocate_secondary(op.job, op.nodes);
        break;
      case CountingSink::Op::kRelease:
        machine.release(op.job);
        break;
    }
  }
  const double replay_s = seconds_since(r0);
  machine.check_invariants();

  out.num("wall_s", wall_s)
      .str("digest", hex_digest(result.event_stream_hash))
      .count("trace_records", tracer.size())
      .count("trace_bytes", sink.bytes)
      .count("co_decisions", sink.co_decisions)
      .count("co_accepted", sink.co_accepted)
      .count("co_scanned", sink.co_scanned)
      .count("co_admissible", sink.co_admissible)
      .count("shadows", sink.shadows)
      .count("backfill_rejects", sink.backfill_rejects)
      .count("allocs_primary", sink.allocs_primary)
      .count("allocs_secondary", sink.allocs_secondary)
      .count("releases", sink.releases)
      .num("replay_s", replay_s);
  out.print();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options o = parse_options(argc, argv);
    if (o.mode == "swf") return write_swf_input(o);
    if (o.mode == "plain") return run_plain(o);
    if (o.mode == "timing") return run_timing(o);
    if (o.mode == "decision") return run_decision(o);
    throw Error("unknown mode '" + o.mode + "'");
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
