#include "obs/trace.hpp"

#include <optional>
#include <sstream>

#include "util/check.hpp"
#include "util/json.hpp"

namespace cosched::obs {

const char* to_string(ReasonCode reason) {
  switch (reason) {
    case ReasonCode::kAccepted: return "accepted";
    case ReasonCode::kCandidateNotShareable: return "candidate_not_shareable";
    case ReasonCode::kResidentNotShareable: return "resident_not_shareable";
    case ReasonCode::kWalltimeFence: return "walltime_fence";
    case ReasonCode::kDilationCap: return "dilation_cap";
    case ReasonCode::kBelowThreshold: return "below_threshold";
    case ReasonCode::kClassMismatch: return "class_mismatch";
    case ReasonCode::kInsufficientNodes: return "insufficient_nodes";
    case ReasonCode::kCapacity: return "capacity";
    case ReasonCode::kBackfillWindow: return "backfill_window";
    case ReasonCode::kBeyondDepth: return "beyond_depth";
  }
  return "?";
}

/// One JSONL line under construction: opens the object and stamps the
/// common prefix; the destructor closes it and appends to the tracer.
class Tracer::Record {
 public:
  Record(Tracer& tracer, const char* type, SimTime when)
      : tracer_(tracer) {
    w_.begin_object();
    w_.value("t_us", when);
    w_.value("type", type);
  }
  Record(Tracer& tracer, const char* type)
      : Record(tracer, type,
               tracer.engine_ != nullptr ? tracer.engine_->now() : 0) {}
  ~Record() {
    w_.end_object();
    if (tracer_.sink_ != nullptr) {
      *tracer_.sink_ << w_.str() << '\n';
      ++tracer_.streamed_;
    } else {
      tracer_.lines_.push_back(w_.str());
    }
  }
  JsonWriter& w() { return w_; }

 private:
  Tracer& tracer_;
  JsonWriter w_;
};

namespace {

void write_nodes(JsonWriter& w, const std::vector<NodeId>& nodes) {
  w.begin_array("nodes");
  for (NodeId n : nodes) w.value(static_cast<double>(n));
  w.end_array();
}

}  // namespace

void Tracer::stream_to(std::ostream* sink) {
  COSCHED_REQUIRE(size() == 0 || sink == nullptr,
                  "stream_to must be set before the first trace record");
  sink_ = sink;
}

std::string Tracer::str() const {
  COSCHED_REQUIRE(streamed_ == 0,
                  "trace was streamed to a sink; its bytes are already there");
  std::ostringstream out;
  for (const std::string& line : lines_) out << line << '\n';
  return out.str();
}

void Tracer::pass_begin(std::uint64_t pass, std::size_t pending,
                        std::size_t running, int free_primary,
                        int free_secondary) {
  Record r(*this, "pass_begin");
  r.w()
      .value("pass", static_cast<std::int64_t>(pass))
      .value("pending", static_cast<std::int64_t>(pending))
      .value("running", static_cast<std::int64_t>(running))
      .value("free_primary", free_primary)
      .value("free_secondary", free_secondary);
}

void Tracer::pass_end(std::uint64_t pass, std::size_t primary_starts,
                      std::size_t secondary_starts) {
  Record r(*this, "pass_end");
  r.w()
      .value("pass", static_cast<std::int64_t>(pass))
      .value("primary_starts", static_cast<std::int64_t>(primary_starts))
      .value("secondary_starts",
             static_cast<std::int64_t>(secondary_starts));
}

void Tracer::submit(JobId job, int nodes) {
  Record r(*this, "submit");
  r.w().value("job", job).value("nodes", nodes);
}

void Tracer::start(JobId job, const char* kind,
                   const std::vector<NodeId>& nodes, double wait_s) {
  Record r(*this, "start");
  r.w().value("job", job).value("kind", kind).value("wait_s", wait_s);
  write_nodes(r.w(), nodes);
}

void Tracer::finish(const char* type, JobId job, double dilation) {
  Record r(*this, type);
  r.w().value("job", job).value("dilation", dilation);
}

void Tracer::co_decision(JobId job, bool accepted, ReasonCode reason,
                         int scanned, int admissible,
                         const std::vector<NodeId>* nodes,
                         const ReasonCounts& rejects) {
  Record r(*this, "co_decision");
  r.w()
      .value("job", job)
      .value("accepted", accepted)
      .value("reason", to_string(reason))
      .value("scanned", scanned)
      .value("admissible", admissible);
  if (nodes != nullptr) write_nodes(r.w(), *nodes);
  r.w().begin_object("rejects");
  for (int i = 0; i < kReasonCodeCount; ++i) {
    if (rejects.counts[i] > 0) {
      r.w().value(to_string(static_cast<ReasonCode>(i)), rejects.counts[i]);
    }
  }
  r.w().end_object();
}

void Tracer::shadow(JobId head, SimTime shadow_time, int extra_nodes) {
  Record r(*this, "shadow");
  r.w()
      .value("head", head)
      .value("shadow_t_us", shadow_time)
      .value("extra_nodes", extra_nodes);
}

void Tracer::backfill_reject(JobId job, ReasonCode reason) {
  Record r(*this, "backfill_reject");
  r.w().value("job", job).value("reason", to_string(reason));
}

void Tracer::machine_alloc(const char* what, JobId job,
                           const std::vector<NodeId>& nodes) {
  Record r(*this, what);
  r.w().value("job", job);
  write_nodes(r.w(), nodes);
}

void Tracer::node_state(NodeId node, bool down) {
  Record r(*this, "node_state");
  r.w().value("node", node).value("down", down);
}

void Tracer::engine_event(SimTime when, sim::EventPriority priority,
                          sim::EventId id, const char* label) {
  Record r(*this, "event", when);
  r.w()
      .value("prio", static_cast<int>(priority))
      .value("id", static_cast<std::int64_t>(id))
      .value("label", label == nullptr ? "" : label);
}

void Tracer::manifest(const RunManifest& m) {
  Record r(*this, "manifest", /*when=*/0);
  write_manifest_fields(r.w(), m, /*include_execution=*/true);
}

void Tracer::snapshot(SimTime when, SimTime tick, int busy_nodes,
                      int total_nodes, std::int64_t pending,
                      std::int64_t running, std::int64_t resident_jobs,
                      double utilization) {
  Record r(*this, "snapshot", when);
  r.w()
      .value("tick_us", tick)
      .value("busy_nodes", busy_nodes)
      .value("total_nodes", total_nodes)
      .value("pending", pending)
      .value("running", running)
      .value("resident_jobs", resident_jobs)
      .value("utilization", utilization);
}

// --- Reading traces back -----------------------------------------------------

namespace {

/// Field `key` of `record` as a non-negative integer. Throws naming the
/// key when it is missing, not an integral number, negative or beyond
/// int64.
std::int64_t non_negative(const JsonValue& record, const std::string& key) {
  const JsonValue* v = record.find(key);
  const std::optional<std::int64_t> i = v ? v->exact_int() : std::nullopt;
  if (!i || *i < 0) {
    throw Error("key '" + key + "' must be a non-negative integer");
  }
  return *i;
}

}  // namespace

TraceRecord TraceRecord::parse(const std::string& line) {
  TraceRecord r;
  r.fields = parse_json(line);
  if (r.fields.kind() != JsonValue::Kind::kObject) {
    throw Error("record is not a JSON object");
  }
  const JsonValue* type = r.fields.find("type");
  if (type == nullptr || type->kind() != JsonValue::Kind::kString) {
    throw Error("key 'type' must be a string");
  }
  r.type = type->as_string();
  r.t_us = non_negative(r.fields, "t_us");
  if (r.fields.has("job") || r.type == "start" || r.type == "complete" ||
      r.type == "timeout") {
    r.job = non_negative(r.fields, "job");
  }
  const JsonValue* accepted = r.fields.find("accepted");
  if (accepted != nullptr || r.type == "co_decision") {
    if (accepted == nullptr || accepted->kind() != JsonValue::Kind::kBool) {
      throw Error("key 'accepted' must be a bool");
    }
    r.accepted = accepted->as_bool();
  }
  return r;
}

// --- Chrome trace_event conversion -------------------------------------------

std::string to_chrome_trace(const std::string& jsonl) {
  JsonWriter w;
  w.begin_object();
  w.begin_array("traceEvents");

  std::istringstream in(jsonl);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const TraceRecord record = TraceRecord::parse(line);
    const std::string& type = record.type;

    // Event shape by record type: scheduler passes become duration events,
    // job start..finish becomes an async span per job id, the rest render
    // as instants carrying the full record in args.
    const char* ph = "i";
    std::string name = type;
    std::int64_t async_id = 0;
    if (type == "pass_begin" || type == "pass_end") {
      ph = (type == "pass_begin") ? "B" : "E";
      name = "schedule_pass";
    } else if (type == "start") {
      ph = "b";
      async_id = record.job;
      name = "job";
    } else if (type == "complete" || type == "timeout") {
      ph = "e";
      async_id = record.job;
      name = "job";
    }

    w.begin_object();
    w.value("name", name);
    w.value("ph", ph);
    w.value("ts", record.t_us);
    w.value("pid", 0);
    w.value("tid", 0);
    if (ph[0] == 'b' || ph[0] == 'e') {
      w.value("cat", "job");
      w.value("id", async_id);
    }
    if (ph[0] == 'i') {
      w.value("s", "g");  // global-scope instant
    }
    w.begin_object("args");
    for (const std::string& key : record.fields.keys()) {
      if (key == "t_us" || key == "type") continue;
      const JsonValue& v = record.fields.at(key);
      switch (v.kind()) {
        case JsonValue::Kind::kNumber:
          w.value(key, v.as_number());
          break;
        case JsonValue::Kind::kString:
          w.value(key, v.as_string());
          break;
        case JsonValue::Kind::kBool:
          w.value(key, v.as_bool());
          break;
        default:
          break;  // nested arrays/objects skipped in args
      }
    }
    w.end_object();
    w.end_object();
  }

  w.end_array();
  w.value("displayTimeUnit", "ms");
  w.end_object();
  return w.str();
}

}  // namespace cosched::obs
