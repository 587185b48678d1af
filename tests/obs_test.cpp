// Observability-layer tests: registry instruments, decision tracing,
// reason-code coverage, span ledgers, snapshots, manifests, the profiler,
// and the determinism contract — digests and traces must be bit-identical
// whether observation is on or off, and the trace itself must be
// byte-deterministic for a seeded run.
//
// The FCFS golden trace (tests/golden/fcfs_trace.jsonl) and golden span
// report (tests/golden/fcfs_spans.json) are refreshed the same way as the
// golden metrics: COSCHED_UPDATE_GOLDEN=1 (or --update-golden) reruns and
// rewrites the files.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>

#include "obs/manifest.hpp"
#include "obs/profiler.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "slurmlite/simulation.hpp"
#include "test_support.hpp"
#include "util/json.hpp"
#include "workload/campaign.hpp"

namespace cosched::obs {
namespace {

using cosched::testing::make_job;

const apps::Catalog& trinity() {
  static const apps::Catalog c = apps::Catalog::trinity();
  return c;
}

// --- Registry ----------------------------------------------------------------

TEST(Registry, CounterAndGaugeBasics) {
  Registry reg;
  EXPECT_TRUE(reg.empty());
  reg.counter("starts").inc();
  reg.counter("starts").inc(4);
  reg.gauge("load").set(0.5);
  reg.gauge("load").add(0.25);
  EXPECT_FALSE(reg.empty());
  EXPECT_EQ(reg.counter("starts").value(), 5u);
  EXPECT_DOUBLE_EQ(reg.gauge("load").value(), 0.75);
  // Find-or-create returns the same instrument.
  EXPECT_EQ(&reg.counter("starts"), &reg.counter("starts"));
}

TEST(Registry, HistogramBucketsAndOverflow) {
  Histogram h({1.0, 10.0, 100.0});
  h.observe(0.5);    // bucket 0 (<= 1)
  h.observe(1.0);    // bucket 0 (boundary counts low)
  h.observe(7.0);    // bucket 1
  h.observe(1000);   // overflow
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 1008.5);
  ASSERT_EQ(h.bucket_counts().size(), 4u);
  EXPECT_EQ(h.bucket_counts()[0], 2u);
  EXPECT_EQ(h.bucket_counts()[1], 1u);
  EXPECT_EQ(h.bucket_counts()[2], 0u);
  EXPECT_EQ(h.bucket_counts()[3], 1u);
}

TEST(Registry, HistogramRejectsUnsortedBounds) {
  EXPECT_THROW(Histogram({10.0, 1.0}), Error);
  EXPECT_THROW(Histogram({}), Error);
}

TEST(Registry, MergeSumsInstruments) {
  Registry a;
  Registry b;
  a.counter("n").inc(2);
  b.counter("n").inc(3);
  b.counter("only_b").inc();
  a.gauge("g").set(1.0);
  b.gauge("g").set(0.5);
  a.histogram("h", {1.0, 2.0}).observe(0.5);
  b.histogram("h", {1.0, 2.0}).observe(1.5);
  a.merge_from(b);
  EXPECT_EQ(a.counter("n").value(), 5u);
  EXPECT_EQ(a.counter("only_b").value(), 1u);
  EXPECT_DOUBLE_EQ(a.gauge("g").value(), 1.5);
  EXPECT_EQ(a.histogram("h", {}).count(), 2u);
  EXPECT_EQ(a.histogram("h", {}).bucket_counts()[0], 1u);
  EXPECT_EQ(a.histogram("h", {}).bucket_counts()[1], 1u);
}

TEST(Registry, ToJsonParsesWithProjectParser) {
  Registry reg;
  reg.counter("b_counter").inc(7);
  reg.counter("a_counter").inc(1);
  reg.gauge("g").set(2.5);
  reg.histogram("h", {1.0, 4.0}).observe(3.0);
  const JsonValue doc = parse_json(reg.to_json());
  EXPECT_EQ(doc.at("counters").at("a_counter").as_number(), 1.0);
  EXPECT_EQ(doc.at("counters").at("b_counter").as_number(), 7.0);
  // std::map ordering: dump lists instruments sorted by name.
  EXPECT_EQ(doc.at("counters").keys(),
            (std::vector<std::string>{"a_counter", "b_counter"}));
  EXPECT_DOUBLE_EQ(doc.at("gauges").at("g").as_number(), 2.5);
  const JsonValue& h = doc.at("histograms").at("h");
  EXPECT_EQ(h.at("count").as_number(), 1.0);
  EXPECT_DOUBLE_EQ(h.at("sum").as_number(), 3.0);
  ASSERT_EQ(h.at("buckets").as_array().size(), 3u);  // 2 bounds + overflow
  EXPECT_EQ(h.at("buckets").as_array()[1].at("count").as_number(), 1.0);
  EXPECT_EQ(h.at("buckets").as_array()[2].at("le").as_string(), "inf");
}

// --- Percentile sketches -----------------------------------------------------

TEST(PercentileSketch, BucketPlacementAndCeilRankQuantiles) {
  PercentileSketch s({1.0, 10.0, 100.0});
  s.observe(0.5);   // bucket 0
  s.observe(1.0);   // bucket 0 (boundary counts low, like Histogram)
  s.observe(7.0);   // bucket 1
  s.observe(50.0);  // bucket 2
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.sum(), 58.5);
  double q = 0;
  ASSERT_TRUE(s.quantile(500, &q));  // ceil-rank 2 of 4 -> first bucket
  EXPECT_DOUBLE_EQ(q, 1.0);
  ASSERT_TRUE(s.quantile(900, &q));  // rank 4 -> third bucket
  EXPECT_DOUBLE_EQ(q, 100.0);
  ASSERT_TRUE(s.quantile(1, &q));    // rank 1
  EXPECT_DOUBLE_EQ(q, 1.0);
}

TEST(PercentileSketch, OverflowAndEmptySerializeAsStrings) {
  PercentileSketch s({1.0});
  const auto render = [](const PercentileSketch& sketch) {
    JsonWriter w;
    w.begin_object();
    sketch.write_json(w, "s");
    w.end_object();
    return parse_json(w.str());
  };
  EXPECT_EQ(render(s).at("s").at("p50").as_string(), "none");
  s.observe(5.0);  // lands in the overflow bucket
  double q = 0;
  EXPECT_FALSE(s.quantile(500, &q));
  EXPECT_EQ(render(s).at("s").at("p50").as_string(), "inf");
  EXPECT_EQ(render(s).at("s").at("count").as_number(), 1.0);
}

TEST(PercentileSketch, MergeMatchesCombinedObservations) {
  PercentileSketch a({1.0, 10.0});
  PercentileSketch b({1.0, 10.0});
  a.observe(0.5);
  b.observe(5.0);
  b.observe(20.0);  // overflow
  a.merge_from(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_DOUBLE_EQ(a.sum(), 25.5);
  double q = 0;
  ASSERT_TRUE(a.quantile(500, &q));  // rank 2 -> second bucket
  EXPECT_DOUBLE_EQ(q, 10.0);
  EXPECT_FALSE(a.quantile(1000, &q));  // rank 3 is the overflow observation
  PercentileSketch c({2.0});
  EXPECT_THROW(a.merge_from(c), Error);
}

// --- Span ledger -------------------------------------------------------------

TEST(SpanLedger, FoldsLifecycleIntoSketches) {
  SpanLedger ledger;
  ledger.on_submit(1, 0);
  ledger.on_first_considered(1, 10 * kSecond);
  ledger.on_first_considered(1, 20 * kSecond);  // idempotent: first wins
  ledger.on_start(1, 60 * kSecond, /*secondary=*/false);
  ledger.on_end(1, 360 * kSecond, SpanEnd::kComplete);
  EXPECT_EQ(ledger.submitted(), 1u);
  EXPECT_EQ(ledger.ended(), 1u);
  EXPECT_EQ(ledger.open(), 0u);
  EXPECT_EQ(ledger.wait().count(), 1u);
  EXPECT_DOUBLE_EQ(ledger.wait().sum(), 60.0);
  EXPECT_DOUBLE_EQ(ledger.latency().sum(), 360.0);
  EXPECT_DOUBLE_EQ(ledger.first_consider().sum(), 10.0);
  EXPECT_DOUBLE_EQ(ledger.stretch().sum(), 360.0 / 300.0);
}

TEST(SpanLedger, RequeueRestartsWaitAndCancelledNeverFolds) {
  SpanLedger ledger;
  ledger.on_submit(7, 0);
  ledger.on_start(7, 10 * kSecond, /*secondary=*/false);
  ledger.on_requeue(7, 20 * kSecond);
  ledger.on_start(7, 100 * kSecond, /*secondary=*/true);
  ledger.on_end(7, 200 * kSecond, SpanEnd::kTimeout);
  // submit -> FINAL start, matching the queue_wait_s histogram semantics.
  EXPECT_DOUBLE_EQ(ledger.wait().sum(), 100.0);
  ledger.on_submit(8, 0);
  ledger.on_end(8, 50 * kSecond, SpanEnd::kCancelled);
  // Unknown ids are tolerated (a cancel can race the submit record) and
  // must not disturb any counter.
  ledger.on_end(99, kSecond, SpanEnd::kCancelled);
  const JsonValue doc = parse_json(ledger.to_json());
  EXPECT_EQ(doc.at("jobs").at("requeues").as_number(), 1.0);
  EXPECT_EQ(doc.at("jobs").at("timed_out").as_number(), 1.0);
  EXPECT_EQ(doc.at("jobs").at("cancelled").as_number(), 1.0);
  EXPECT_EQ(doc.at("jobs").at("started_secondary").as_number(), 1.0);
  EXPECT_EQ(doc.at("jobs").at("open").as_number(), 0.0);
  // The cancelled job never folds into the latency sketches.
  EXPECT_EQ(doc.at("wait_s").at("count").as_number(), 1.0);
}

TEST(SpanLedger, MergeSumsCountersAndSketches) {
  SpanLedger a;
  SpanLedger b;
  a.on_submit(1, 0);
  a.on_start(1, kSecond, false);
  a.on_end(1, 2 * kSecond, SpanEnd::kComplete);
  b.on_submit(2, 0);
  b.on_start(2, 3 * kSecond, true);
  b.on_end(2, 5 * kSecond, SpanEnd::kComplete);
  a.merge_from(b);
  EXPECT_EQ(a.submitted(), 2u);
  EXPECT_EQ(a.ended(), 2u);
  EXPECT_EQ(a.wait().count(), 2u);
  EXPECT_DOUBLE_EQ(a.wait().sum(), 4.0);
}

// --- Reason codes ------------------------------------------------------------

TEST(ReasonCode, NamesAreUniqueSnakeCase) {
  std::set<std::string> names;
  for (int i = 0; i < kReasonCodeCount; ++i) {
    const std::string name = to_string(static_cast<ReasonCode>(i));
    EXPECT_FALSE(name.empty());
    for (const char c : name) {
      EXPECT_TRUE((c >= 'a' && c <= 'z') || c == '_')
          << "reason name not snake_case: " << name;
    }
    EXPECT_TRUE(names.insert(name).second) << "duplicate name " << name;
  }
  EXPECT_EQ(to_string(ReasonCode::kAccepted), std::string("accepted"));
}

// --- Tracing a full simulation ----------------------------------------------

slurmlite::SimulationSpec traced_spec(core::StrategyKind strategy,
                                      Tracer* tracer,
                                      Registry* registry = nullptr) {
  slurmlite::SimulationSpec spec;
  spec.controller.nodes = 16;
  spec.controller.strategy = strategy;
  spec.controller.tracer = tracer;
  spec.controller.registry = registry;
  spec.workload = workload::trinity_campaign(16, 80);
  spec.seed = 7;
  return spec;
}

TEST(Trace, EveryLineParsesAndIsTimeOrdered) {
  Tracer tracer;
  const auto result =
      slurmlite::run_simulation(traced_spec(core::StrategyKind::kCoBackfill,
                                            &tracer),
                                trinity());
  ASSERT_GT(tracer.size(), 0u);
  SimTime last = 0;
  for (const std::string& line : tracer.lines()) {
    const JsonValue record = parse_json(line);  // throws on malformed JSON
    ASSERT_TRUE(record.has("t_us")) << line;
    ASSERT_TRUE(record.has("type")) << line;
    const auto t = static_cast<SimTime>(record.at("t_us").as_number());
    EXPECT_GE(t, last) << "records must be sim-time ordered: " << line;
    last = t;
  }
  EXPECT_EQ(result.jobs.size(), 80u);
}

TEST(Trace, CoStrategiesEmitAcceptedAndRejectedDecisions) {
  // Reason-code coverage: across the co-allocating strategies the trace
  // must carry both outcomes, with a reason on every decision.
  const core::StrategyKind kinds[] = {core::StrategyKind::kCoFirstFit,
                                      core::StrategyKind::kCoBackfill,
                                      core::StrategyKind::kCoConservative};
  std::set<std::string> reasons;
  for (const auto kind : kinds) {
    Tracer tracer;
    slurmlite::run_simulation(traced_spec(kind, &tracer), trinity());
    std::size_t accepted = 0;
    std::size_t rejected = 0;
    for (const std::string& line : tracer.lines()) {
      const JsonValue record = parse_json(line);
      if (record.at("type").as_string() != "co_decision") continue;
      ASSERT_TRUE(record.has("reason")) << line;
      reasons.insert(record.at("reason").as_string());
      // The per-node rejection tally names every fence hit in the scan.
      if (record.has("rejects")) {
        for (const std::string& fence : record.at("rejects").keys()) {
          reasons.insert(fence);
        }
      }
      if (record.at("accepted").as_bool()) {
        ++accepted;
      } else {
        ++rejected;
      }
    }
    EXPECT_GE(accepted, 1u) << core::to_string(kind);
    EXPECT_GE(rejected, 1u) << core::to_string(kind);
  }
  EXPECT_TRUE(reasons.count("accepted"));
  // The rejection tally spans more than one fence on this workload.
  EXPECT_GE(reasons.size(), 3u);
}

TEST(Trace, BackfillStrategiesRecordShadowAndRejects) {
  Tracer tracer;
  slurmlite::run_simulation(
      traced_spec(core::StrategyKind::kCoBackfill, &tracer), trinity());
  std::size_t shadows = 0;
  std::size_t rejects = 0;
  for (const std::string& line : tracer.lines()) {
    const JsonValue record = parse_json(line);
    const std::string& type = record.at("type").as_string();
    if (type == "shadow") ++shadows;
    if (type == "backfill_reject") {
      ASSERT_TRUE(record.has("reason")) << line;
      ++rejects;
    }
  }
  EXPECT_GE(shadows, 1u);
  EXPECT_GE(rejects, 1u);
}

TEST(Trace, ByteDeterministicAcrossRuns) {
  Tracer first;
  Tracer second;
  slurmlite::run_simulation(
      traced_spec(core::StrategyKind::kCoBackfill, &first), trinity());
  slurmlite::run_simulation(
      traced_spec(core::StrategyKind::kCoBackfill, &second), trinity());
  EXPECT_EQ(first.str(), second.str());
}

TEST(Trace, StreamingSinkProducesBufferedBytes) {
  // A streaming tracer writes each record to its sink as it is emitted —
  // the exact bytes str() would have produced, with O(1) tracer memory.
  Tracer buffered;
  Tracer streaming;
  std::ostringstream sink;
  streaming.stream_to(&sink);
  slurmlite::run_simulation(
      traced_spec(core::StrategyKind::kCoBackfill, &buffered), trinity());
  slurmlite::run_simulation(
      traced_spec(core::StrategyKind::kCoBackfill, &streaming), trinity());
  ASSERT_GT(buffered.size(), 0u);
  EXPECT_EQ(streaming.size(), buffered.size());
  EXPECT_TRUE(streaming.lines().empty());  // nothing buffered
  EXPECT_EQ(sink.str(), buffered.str());
  // The streamed bytes already left; str() on a streaming tracer is a bug.
  EXPECT_THROW(streaming.str(), Error);
}

TEST(Trace, StreamSinkMustBeSetBeforeFirstRecord) {
  Tracer tracer;
  tracer.submit(1, 4);
  std::ostringstream sink;
  EXPECT_THROW(tracer.stream_to(&sink), Error);
  // Buffered mode is unaffected by the failed switch.
  EXPECT_EQ(tracer.size(), 1u);
  EXPECT_FALSE(tracer.str().empty());
}

TEST(Trace, ObservationNeverChangesDigests) {
  // The acceptance bar for the whole layer: event-stream digests are
  // bit-identical with the full observation stack — tracing, metrics,
  // span ledger, snapshot sampler — on or off.
  for (const auto kind : {core::StrategyKind::kFcfs,
                          core::StrategyKind::kCoBackfill}) {
    Tracer tracer;
    Registry registry;
    SpanLedger spans;
    slurmlite::SimulationSpec plain = traced_spec(kind, nullptr);
    plain.controller.tracer = nullptr;
    plain.controller.registry = nullptr;
    const auto bare = slurmlite::run_digest(plain, trinity());
    slurmlite::SimulationSpec full = traced_spec(kind, &tracer, &registry);
    full.controller.spans = &spans;
    full.controller.snapshot_period = 300 * kSecond;
    const auto observed = slurmlite::run_digest(full, trinity());
    EXPECT_EQ(bare.hash, observed.hash) << core::to_string(kind);
    EXPECT_EQ(bare.events, observed.events);
    EXPECT_GT(tracer.size(), 0u);
    EXPECT_FALSE(registry.empty());
    EXPECT_GT(spans.submitted(), 0u);
    EXPECT_GT(registry.counter("snapshots").value(), 0u);
  }
}

TEST(Trace, SpanLedgerMatchesSimulationOutcome) {
  SpanLedger first;
  SpanLedger second;
  slurmlite::SimulationSpec spec =
      traced_spec(core::StrategyKind::kCoBackfill, nullptr);
  spec.controller.spans = &first;
  const auto result = slurmlite::run_simulation(spec, trinity());
  spec.controller.spans = &second;
  slurmlite::run_simulation(spec, trinity());
  // Byte-deterministic across identical runs.
  EXPECT_EQ(first.to_json(), second.to_json());

  const JsonValue doc = parse_json(first.to_json());
  const auto jobs = static_cast<double>(result.jobs.size());
  EXPECT_EQ(doc.at("jobs").at("submitted").as_number(), jobs);
  EXPECT_EQ(doc.at("jobs").at("completed").as_number() +
                doc.at("jobs").at("timed_out").as_number(),
            jobs);
  EXPECT_EQ(doc.at("jobs").at("open").as_number(), 0.0);
  // Every finished job folded wait + latency; the ledger saw each job
  // considered by some pass before it started.
  EXPECT_EQ(doc.at("wait_s").at("count").as_number(), jobs);
  EXPECT_EQ(doc.at("latency_s").at("count").as_number(), jobs);
  EXPECT_EQ(doc.at("first_consider_s").at("count").as_number(), jobs);
}

TEST(Trace, SnapshotsSampleGaugesAtCadence) {
  Tracer tracer;
  Registry registry;
  slurmlite::SimulationSpec spec =
      traced_spec(core::StrategyKind::kCoBackfill, &tracer, &registry);
  const SimDuration period = 600 * kSecond;
  spec.controller.snapshot_period = period;
  slurmlite::run_simulation(spec, trinity());

  std::size_t snapshots = 0;
  SimTime last_tick = -1;
  for (const std::string& line : tracer.lines()) {
    const JsonValue record = parse_json(line);
    if (record.at("type").as_string() != "snapshot") continue;
    ++snapshots;
    const auto t = static_cast<SimTime>(record.at("t_us").as_number());
    const auto tick = static_cast<SimTime>(record.at("tick_us").as_number());
    EXPECT_EQ(tick % period, 0) << line;   // nominal cadence boundary
    EXPECT_GE(t, tick) << line;            // stamped at the firing event
    EXPECT_GT(tick, last_tick) << line;    // idle gaps collapse, no dups
    last_tick = tick;
    const double busy = record.at("busy_nodes").as_number();
    const double total = record.at("total_nodes").as_number();
    EXPECT_LE(busy, total) << line;
    const double util = record.at("utilization").as_number();
    EXPECT_GE(util, 0.0) << line;
    EXPECT_LE(util, 1.0) << line;
    EXPECT_GE(record.at("pending").as_number(), 0.0) << line;
    EXPECT_GE(record.at("running").as_number(), 0.0) << line;
  }
  EXPECT_GT(snapshots, 1u);
  EXPECT_EQ(registry.counter("snapshots").value(), snapshots);
}

// --- Run manifest ------------------------------------------------------------

RunManifest sample_manifest() {
  RunManifest m;
  m.command = "sim";
  m.strategy = "cobackfill";
  m.queue_policy = "fifo";
  m.workload = "trinity";
  m.seed = 7;
  m.nodes = 16;
  m.jobs = 80;
  m.threads = 2;
  return m;
}

TEST(Manifest, SplitsDecisionIdentityFromExecution) {
  const RunManifest m = sample_manifest();
  const JsonValue full = parse_json(manifest_json(m, true));
  EXPECT_EQ(full.at("tool").as_string(), "cosched");
  EXPECT_EQ(full.at("strategy").as_string(), "cobackfill");
  EXPECT_EQ(full.at("seed").as_number(), 7.0);
  ASSERT_TRUE(full.has("execution"));
  EXPECT_EQ(full.at("execution").at("threads").as_number(), 2.0);
  EXPECT_FALSE(full.at("execution").at("build").as_string().empty());

  // Stripping execution must leave the decision identity bytes intact:
  // the bare form is what `cosched report` emits and byte-compares.
  const JsonValue bare = parse_json(manifest_json(m, false));
  EXPECT_FALSE(bare.has("execution"));
  for (const std::string& key : bare.keys()) {
    EXPECT_TRUE(full.has(key)) << key;
  }
  RunManifest other = m;
  other.threads = 1;
  other.build = "custom";
  EXPECT_EQ(manifest_json(m, false), manifest_json(other, false));
}

TEST(Manifest, TracerStampsManifestAsFirstRecord) {
  Tracer tracer;
  tracer.manifest(sample_manifest());
  ASSERT_EQ(tracer.size(), 1u);
  const JsonValue rec = parse_json(tracer.lines().front());
  EXPECT_EQ(rec.at("type").as_string(), "manifest");
  EXPECT_EQ(rec.at("t_us").as_number(), 0.0);
  EXPECT_EQ(rec.at("tool").as_string(), "cosched");
  EXPECT_EQ(rec.at("execution").at("threads").as_number(), 2.0);
}

TEST(Trace, EngineEventLabelsAppear) {
  Tracer tracer;
  slurmlite::run_simulation(
      traced_spec(core::StrategyKind::kFcfs, &tracer), trinity());
  std::set<std::string> labels;
  for (const std::string& line : tracer.lines()) {
    const JsonValue record = parse_json(line);
    if (record.at("type").as_string() != "event") continue;
    labels.insert(record.at("label").as_string());
  }
  EXPECT_TRUE(labels.count("submit"));
  EXPECT_TRUE(labels.count("schedule_pass"));
  EXPECT_TRUE(labels.count("job_end"));
}

TEST(Trace, RegistrySurfacesSchedulerCounters) {
  Tracer tracer;
  Registry registry;
  const auto result = slurmlite::run_simulation(
      traced_spec(core::StrategyKind::kCoBackfill, &tracer, &registry),
      trinity());
  EXPECT_EQ(registry.counter("jobs_submitted").value(), result.jobs.size());
  EXPECT_EQ(registry.counter("starts_primary").value() +
                registry.counter("starts_secondary").value(),
            result.jobs.size());
  EXPECT_GE(registry.counter("scheduler_passes").value(), 1u);
  EXPECT_EQ(registry.histogram("queue_wait_s", {}).count(),
            result.jobs.size());
}

TEST(Trace, ChromeExportIsValidJson) {
  Tracer tracer;
  slurmlite::run_simulation(
      traced_spec(core::StrategyKind::kCoBackfill, &tracer), trinity());
  const JsonValue doc = parse_json(to_chrome_trace(tracer.str()));
  const auto& events = doc.at("traceEvents").as_array();
  ASSERT_GT(events.size(), 0u);
  std::set<std::string> phases;
  for (const JsonValue& e : events) {
    phases.insert(e.at("ph").as_string());
  }
  EXPECT_TRUE(phases.count("B"));  // pass_begin
  EXPECT_TRUE(phases.count("E"));  // pass_end
  EXPECT_TRUE(phases.count("i"));  // instants
}

TEST(Trace, ChromeExportRoundTripsEveryRecord) {
  // Round-trip property: every JSONL record — including the new manifest
  // and snapshot types — converts to exactly one trace_event that the
  // project parser accepts back.
  Tracer tracer;
  tracer.manifest(sample_manifest());
  slurmlite::SimulationSpec spec =
      traced_spec(core::StrategyKind::kCoBackfill, &tracer);
  spec.controller.snapshot_period = 600 * kSecond;
  slurmlite::run_simulation(spec, trinity());

  const JsonValue doc = parse_json(to_chrome_trace(tracer.str()));
  const auto& events = doc.at("traceEvents").as_array();
  ASSERT_EQ(events.size(), tracer.size());
  // The manifest record leads and renders as an instant; its nested
  // execution object is dropped from args (the converter carries only
  // scalar fields), never a parse failure.
  EXPECT_EQ(events.front().at("name").as_string(), "manifest");
  EXPECT_EQ(events.front().at("ph").as_string(), "i");
  EXPECT_FALSE(events.front().at("args").has("execution"));
  EXPECT_EQ(events.front().at("args").at("strategy").as_string(),
            "cobackfill");
  std::size_t snapshot_instants = 0;
  for (const JsonValue& e : events) {
    if (e.at("name").as_string() == "snapshot") {
      ++snapshot_instants;
      EXPECT_TRUE(e.at("args").has("utilization"));
    }
  }
  EXPECT_GT(snapshot_instants, 0u);
}

// --- Reading trace records back ----------------------------------------------

/// The message TraceRecord::parse throws for `line`, or "" if it accepts.
std::string record_error(const std::string& line) {
  try {
    (void)TraceRecord::parse(line);
    return "";
  } catch (const Error& e) {
    return e.what();
  }
}

TEST(TraceRecord, ReadsCheckedFields) {
  const TraceRecord r = TraceRecord::parse(
      R"({"t_us":7,"type":"co_decision","job":3,"accepted":true})");
  EXPECT_EQ(r.type, "co_decision");
  EXPECT_EQ(r.t_us, 7);
  EXPECT_EQ(r.job, 3);
  EXPECT_TRUE(r.accepted);
  const TraceRecord bare = TraceRecord::parse(R"({"t_us":0,"type":"x"})");
  EXPECT_EQ(bare.job, kInvalidJob);
}

TEST(TraceRecord, RejectsRecordsThatAreNotObjects) {
  for (const char* line : {"[]", "42", "\"x\""}) {
    EXPECT_EQ(record_error(line), "record is not a JSON object") << line;
  }
}

TEST(TraceRecord, RejectsANonStringType) {
  EXPECT_EQ(record_error(R"({"t_us":1,"type":5})"),
            "key 'type' must be a string");
  EXPECT_EQ(record_error(R"({"t_us":1})"), "key 'type' must be a string");
}

TEST(TraceRecord, RejectsANonBoolAccepted) {
  EXPECT_EQ(
      record_error(R"({"t_us":1,"type":"co_decision","job":2,"accepted":1})"),
      "key 'accepted' must be a bool");
  EXPECT_EQ(record_error(R"({"t_us":1,"type":"co_decision","job":2})"),
            "key 'accepted' must be a bool");
}

TEST(TraceRecord, RejectsDeepNesting) {
  EXPECT_NE(record_error(std::string(50'000, '[')).find("nesting deeper"),
            std::string::npos);
}

TEST(TraceRecord, RejectsATimeBeyondInt64) {
  const std::string expected = "key 't_us' must be a non-negative integer";
  const std::string huge =
      R"({"t_us":99999999999999999999999,"type":"start","job":1})";
  EXPECT_EQ(record_error(huge), expected);
  EXPECT_THROW((void)to_chrome_trace(huge + "\n"), Error);
  EXPECT_EQ(record_error(R"({"t_us":1.5,"type":"submit"})"), expected);
  EXPECT_EQ(record_error(R"({"t_us":"5","type":"submit"})"), expected);
  // Jobs may arrive at kMaxInputSeconds and complete after it, so later
  // times the simulator writes must read back.
  EXPECT_EQ(record_error(R"({"t_us":)" +
                         std::to_string(2 * kMaxInputSeconds * kSecond) +
                         R"(,"type":"complete","job":1})"),
            "");
}

TEST(TraceRecord, RejectsANegativeTime) {
  EXPECT_EQ(record_error(R"({"t_us":-5,"type":"submit"})"),
            "key 't_us' must be a non-negative integer");
}

TEST(TraceRecord, RejectsANonIntegerJob) {
  const std::string expected = "key 'job' must be a non-negative integer";
  EXPECT_EQ(record_error(R"({"t_us":1,"type":"submit","job":"abc"})"),
            expected);
  EXPECT_EQ(record_error(R"({"t_us":1,"type":"submit","job":-1})"), expected);
  EXPECT_EQ(record_error(R"({"t_us":1,"type":"submit","job":2.5})"),
            expected);
  // The job-span records the Chrome converter pairs must carry a job.
  EXPECT_EQ(record_error(R"({"t_us":1,"type":"start"})"), expected);
  EXPECT_THROW((void)to_chrome_trace("{\"t_us\":1,\"type\":\"start\"}\n"),
               Error);
}

// --- Golden FCFS trace -------------------------------------------------------

bool update_golden() {
  const char* v = std::getenv("COSCHED_UPDATE_GOLDEN");
  return v != nullptr && *v != '\0' && std::string(v) != "0";
}

TEST(Trace, GoldenFcfsSnippet) {
  // Tiny fully-pinned FCFS run: two sequential jobs on two nodes. The
  // whole trace is committed; any drift in record schema or emission
  // order fails here first (refresh with COSCHED_UPDATE_GOLDEN=1).
  slurmlite::SimulationSpec spec;
  spec.controller.nodes = 2;
  spec.controller.strategy = core::StrategyKind::kFcfs;
  Tracer tracer;
  spec.controller.tracer = &tracer;
  workload::JobList jobs;
  jobs.push_back(make_job(1, 2, 100 * kSecond, 200 * kSecond,
                          trinity().by_name("GTC").id));
  jobs.push_back(make_job(2, 1, 50 * kSecond, 100 * kSecond,
                          trinity().by_name("miniFE").id));
  slurmlite::run_jobs(spec, trinity(), jobs);

  const std::string path =
      std::string(COSCHED_GOLDEN_DIR) + "/fcfs_trace.jsonl";
  if (update_golden()) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << path;
    out << tracer.str();
    GTEST_SKIP() << "golden trace rewritten: " << path;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " (run with COSCHED_UPDATE_GOLDEN=1)";
  std::ostringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(tracer.str(), expected.str());
}

TEST(Trace, GoldenFcfsSpanReport) {
  // The span-report twin of GoldenFcfsSnippet: the same fully-pinned FCFS
  // run, with the ledger JSON committed byte-for-byte. Any drift in span
  // folding, sketch bounds, or serialization order fails here first
  // (refresh with COSCHED_UPDATE_GOLDEN=1).
  slurmlite::SimulationSpec spec;
  spec.controller.nodes = 2;
  spec.controller.strategy = core::StrategyKind::kFcfs;
  SpanLedger spans;
  spec.controller.spans = &spans;
  workload::JobList jobs;
  jobs.push_back(make_job(1, 2, 100 * kSecond, 200 * kSecond,
                          trinity().by_name("GTC").id));
  jobs.push_back(make_job(2, 1, 50 * kSecond, 100 * kSecond,
                          trinity().by_name("miniFE").id));
  slurmlite::run_jobs(spec, trinity(), jobs);

  const std::string path =
      std::string(COSCHED_GOLDEN_DIR) + "/fcfs_spans.json";
  if (update_golden()) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << path;
    out << spans.to_json() << "\n";
    GTEST_SKIP() << "golden span report rewritten: " << path;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " (run with COSCHED_UPDATE_GOLDEN=1)";
  std::ostringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(spans.to_json() + "\n", expected.str());
}

// --- Profiler ----------------------------------------------------------------

TEST(Profiler, DisabledScopesRecordNothing) {
  profiler_reset();
  set_profiling_enabled(false);
  { COSCHED_PROF_SCOPE("idle_phase"); }
  for (const auto& thread : profiler_snapshot()) {
    for (const auto& [phase, stats] : thread.phases) {
      EXPECT_NE(phase, "idle_phase");
      EXPECT_EQ(stats.calls, 0u);
    }
  }
  EXPECT_TRUE(profiler_report().empty());
}

TEST(Profiler, AggregatesCallsAndTimes) {
  profiler_reset();
  set_profiling_enabled(true);
  { COSCHED_PROF_SCOPE("unit_phase"); }
  { COSCHED_PROF_SCOPE("unit_phase"); }
  set_profiling_enabled(false);

  bool found = false;
  for (const auto& thread : profiler_snapshot()) {
    for (const auto& [phase, stats] : thread.phases) {
      if (phase != "unit_phase") continue;
      found = true;
      EXPECT_EQ(stats.calls, 2u);
      EXPECT_GE(stats.total_ns, stats.max_ns);
    }
  }
  EXPECT_TRUE(found);
  const std::string report = profiler_report();
  EXPECT_NE(report.find("unit_phase"), std::string::npos);
  EXPECT_NE(report.find("calls"), std::string::npos);
  profiler_reset();
}

}  // namespace
}  // namespace cosched::obs
