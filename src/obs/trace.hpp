// Scheduler decision tracing: structured JSONL records keyed by sim-time.
//
// The tracer turns the simulator from an end-of-run aggregate into an
// instrument: every scheduler pass records what it considered, every
// co-allocation gate evaluation records why it accepted or rejected a
// pairing (ReasonCode), every backfill pass records the reservation it
// protected, and the machine records allocations and node-state changes.
// One record per line; each line is a complete JSON object with at least
// {"t_us": <sim-time in integer microseconds>, "type": "<record type>"}.
//
// Determinism contract (DESIGN.md "Observability"): records carry
// *sim-derived* data only — never wall-clock, never host state — so the
// trace of a seeded run is byte-identical across machines and thread
// counts, and diffing two traces is a meaningful debugging operation.
// Tracing is observation-only: no decision path reads the tracer, so
// digests and golden metrics are bit-identical with tracing on or off
// (pinned by tests/obs_test.cpp).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/manifest.hpp"
#include "sim/engine.hpp"
#include "util/json.hpp"
#include "util/types.hpp"

namespace cosched::obs {

/// Why a scheduling decision (co-allocation gate, backfill candidate test,
/// primary placement) went the way it did. kAccepted is the lone positive
/// outcome; everything else names the first fence the candidate hit.
enum class ReasonCode : std::int8_t {
  kAccepted = 0,             ///< decision admitted the candidate
  kCandidateNotShareable,    ///< candidate job or app refuses sharing
  kResidentNotShareable,     ///< a job already on the node refuses sharing
  kWalltimeFence,            ///< candidate's walltime end outlives a resident
  kDilationCap,              ///< predicted dilation exceeds max_dilation
  kBelowThreshold,           ///< combined throughput under 1 + theta
  kClassMismatch,            ///< class-rule gate: apps not complementary
  kInsufficientNodes,        ///< fewer admissible nodes than requested
  kCapacity,                 ///< not enough free primary nodes
  kBackfillWindow,           ///< start would delay the head reservation
  kBeyondDepth,              ///< past the backfill_depth test budget
};

inline constexpr int kReasonCodeCount =
    static_cast<int>(ReasonCode::kBeyondDepth) + 1;

const char* to_string(ReasonCode reason);

/// Per-reason tally for one candidate scan (indexed by ReasonCode).
struct ReasonCounts {
  int counts[kReasonCodeCount] = {};

  void add(ReasonCode reason, int n = 1) {
    counts[static_cast<std::size_t>(reason)] += n;
  }
};

/// Collects trace records as serialized JSONL lines. One tracer per
/// simulation; the bound engine supplies the sim-time stamp on every
/// record (t_us = 0 until bind() — callers construct the tracer before the
/// engine exists and the controller binds it on construction). The CLI
/// and perfbench stream each record to a sink as it is emitted
/// (stream_to); otherwise lines buffer in memory for lines() and str(),
/// which is how tests read a trace.
class Tracer {
 public:
  Tracer() = default;
  explicit Tracer(const sim::Engine& engine) : engine_(&engine) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Binds the engine whose clock stamps subsequent records. The engine
  /// must outlive the tracer or be replaced by another bind().
  void bind(const sim::Engine& engine) { engine_ = &engine; }

  /// Streams records to `sink` (newline-terminated, exactly the bytes
  /// str() would produce) instead of buffering them — O(1) tracer memory
  /// at million-job scale. Must be set before the first record; the sink
  /// must outlive the tracer. nullptr returns to buffering.
  void stream_to(std::ostream* sink);

  const std::vector<std::string>& lines() const { return lines_; }
  /// Records emitted so far, buffered or streamed.
  std::size_t size() const { return lines_.size() + streamed_; }

  /// All lines, newline-terminated (the JSONL document). Buffered mode
  /// only — a streaming tracer's bytes already went to the sink.
  std::string str() const;

  // --- Record emitters (schema documented in DESIGN.md) ----------------------

  /// Scheduler pass opening: queue depth and machine headroom it sees.
  void pass_begin(std::uint64_t pass, std::size_t pending,
                  std::size_t running, int free_primary, int free_secondary);
  /// Scheduler pass closing: starts this pass made.
  void pass_end(std::uint64_t pass, std::size_t primary_starts,
                std::size_t secondary_starts);

  void submit(JobId job, int nodes);
  /// `kind` is "primary" or "secondary"; wait is sim queue time.
  void start(JobId job, const char* kind, const std::vector<NodeId>& nodes,
             double wait_s);
  /// `type` is "complete" or "timeout".
  void finish(const char* type, JobId job, double dilation);

  /// One co-allocation candidate scan: how many nodes the gate examined,
  /// how many admitted, the outcome, and the per-reason rejection tally.
  /// `nodes` is the chosen placement when accepted, nullptr otherwise.
  void co_decision(JobId job, bool accepted, ReasonCode reason, int scanned,
                   int admissible, const std::vector<NodeId>* nodes,
                   const ReasonCounts& rejects);

  /// EASY-family backfill reservation for the queue head.
  void shadow(JobId head, SimTime shadow_time, int extra_nodes);
  /// A backfill candidate that did not start, and why.
  void backfill_reject(JobId job, ReasonCode reason);

  /// Machine-level records. `what` is "alloc_primary", "alloc_secondary",
  /// or "release".
  void machine_alloc(const char* what, JobId job,
                     const std::vector<NodeId>& nodes);
  void node_state(NodeId node, bool down);

  /// Raw engine event (label from the schedule site); emitted by
  /// EventTracer when engine-event tracing is on.
  void engine_event(SimTime when, sim::EventPriority priority,
                    sim::EventId id, const char* label);

  /// Run manifest header (obs/manifest.hpp), stamped t_us=0. Emitted by
  /// the CLI/bench harness as the first record; `cosched diff` ignores
  /// the nested execution block when comparing.
  void manifest(const RunManifest& m);

  /// Time-series gauge sample (obs/snapshot.hpp): `when` is the event
  /// time the sampler fired at, `tick` the period boundary it answers
  /// for.
  void snapshot(SimTime when, SimTime tick, int busy_nodes, int total_nodes,
                std::int64_t pending, std::int64_t running,
                std::int64_t resident_jobs, double utilization);

 private:
  class Record;  // one JSONL line under construction

  const sim::Engine* engine_ = nullptr;
  std::vector<std::string> lines_;
  std::ostream* sink_ = nullptr;  ///< non-owning; streaming mode when set
  std::size_t streamed_ = 0;      ///< records written directly to sink_
};

/// Engine observer that mirrors the executed event stream into the trace,
/// with the event-kind labels schedule sites attach. Registration order
/// does not matter: it only reads event metadata.
class EventTracer final : public sim::EventObserver {
 public:
  explicit EventTracer(Tracer& tracer) : tracer_(tracer) {}

  void on_event_executed(SimTime when, sim::EventPriority priority,
                         sim::EventId id, const char* label) override {
    tracer_.engine_event(when, priority, id, label);
  }

 private:
  Tracer& tracer_;
};

/// One trace JSONL line read back with the fields readers use checked:
/// a JSON object with a string `type` and a non-negative integer `t_us`
/// (not held to kMaxInputSeconds: jobs arriving at that limit complete
/// later); `job` a non-negative integer wherever it appears and on every
/// start, complete and timeout record; `accepted` a bool on every
/// co_decision. parse() throws cosched::Error naming the key.
struct TraceRecord {
  static TraceRecord parse(const std::string& line);

  JsonValue fields;
  std::string type;
  SimTime t_us = 0;
  JobId job = kInvalidJob;  ///< kInvalidJob when the record has none
  bool accepted = false;
};

/// Converts a JSONL trace document to the Chrome trace_event format
/// (viewable in about:tracing / Perfetto): scheduler passes become
/// duration events, job lifetimes async events, everything else instants,
/// all keyed by sim-time (ts in microseconds). Throws cosched::Error on
/// lines TraceRecord::parse rejects.
std::string to_chrome_trace(const std::string& jsonl);

}  // namespace cosched::obs
