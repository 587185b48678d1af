#include "obs/span.hpp"

#include "util/check.hpp"
#include "util/json.hpp"

namespace cosched::obs {

bool PercentileSketch::quantile(int permille, double* out) const {
  COSCHED_REQUIRE(permille >= 1 && permille <= 1000,
                  "quantile permille out of range: " << permille);
  if (count() == 0) return false;
  // Ceil rank in pure integer math: rank r such that the r-th smallest
  // observation (1-based) answers the query. No doubles, so the answer is
  // identical on every host.
  const std::uint64_t rank =
      (count() * static_cast<std::uint64_t>(permille) + 999) / 1000;
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < upper_bounds().size(); ++i) {
    seen += bucket_counts()[i];
    if (seen >= rank) {
      *out = upper_bounds()[i];
      return true;
    }
  }
  return false;  // rank lands in the overflow bucket
}

void PercentileSketch::write_json(JsonWriter& w,
                                  const std::string& key) const {
  w.begin_object(key);
  w.value("count", static_cast<std::int64_t>(count()));
  w.value("sum", sum());
  for (const auto& [name, permille] :
       {std::pair<const char*, int>{"p50", 500}, {"p90", 900},
        {"p99", 990}}) {
    double q = 0;
    if (quantile(permille, &q)) {
      w.value(name, q);
    } else {
      w.value(name, count() == 0 ? "none" : "inf");
    }
  }
  w.end_object();
}

std::vector<double> PercentileSketch::time_bounds() {
  // Sub-second through two days; geometric-ish 1-2-5 ladder so relative
  // error stays bounded across four orders of magnitude.
  return {0.0,    0.5,    1.0,    2.0,    5.0,     10.0,    30.0,
          60.0,   120.0,  300.0,  600.0,  1800.0,  3600.0,  7200.0,
          14400.0, 28800.0, 86400.0, 172800.0};
}

std::vector<double> PercentileSketch::stretch_bounds() {
  return {1.0, 1.05, 1.1, 1.25, 1.5, 2.0, 3.0, 5.0, 10.0, 20.0, 50.0, 100.0};
}

SpanLedger::SpanLedger()
    : wait_s_(PercentileSketch::time_bounds()),
      latency_s_(PercentileSketch::time_bounds()),
      stretch_(PercentileSketch::stretch_bounds()),
      first_consider_s_(PercentileSketch::time_bounds()) {}

void SpanLedger::on_submit(JobId job, SimTime t) {
  OpenSpan& span = open_[job];
  span.submit = t;
  ++submitted_;
}

void SpanLedger::on_first_considered(JobId job, SimTime t) {
  const auto it = open_.find(job);
  if (it == open_.end()) return;
  if (it->second.first_considered < 0) it->second.first_considered = t;
}

void SpanLedger::on_start(JobId job, SimTime t, bool secondary) {
  const auto it = open_.find(job);
  if (it == open_.end()) return;
  it->second.start = t;
  if (secondary) {
    ++started_secondary_;
  } else {
    ++started_primary_;
  }
}

void SpanLedger::on_requeue(JobId job, SimTime /*t*/) {
  const auto it = open_.find(job);
  if (it == open_.end()) return;
  // Back to pending: the next start overwrites the start stamp, so the
  // folded wait measures submit -> final start (matching queue_wait_s).
  it->second.start = -1;
  ++requeues_;
}

void SpanLedger::on_end(JobId job, SimTime t, SpanEnd how) {
  const auto it = open_.find(job);
  if (it == open_.end()) return;  // e.g. cancel raced the submit record
  const OpenSpan span = it->second;
  open_.erase(it);
  switch (how) {
    case SpanEnd::kComplete: ++completed_; break;
    case SpanEnd::kTimeout: ++timed_out_; break;
    case SpanEnd::kCancelled: ++cancelled_; break;
  }
  if (how == SpanEnd::kCancelled || span.start < 0 || span.submit < 0) {
    return;  // never ran: nothing to fold
  }
  const double wait = to_seconds(span.start - span.submit);
  const double latency = to_seconds(t - span.submit);
  const double service = to_seconds(t - span.start);
  wait_s_.observe(wait);
  latency_s_.observe(latency);
  if (service > 0) stretch_.observe(latency / service);
  if (span.first_considered >= 0) {
    first_consider_s_.observe(to_seconds(span.first_considered - span.submit));
  }
}

void SpanLedger::merge_from(const SpanLedger& other) {
  submitted_ += other.submitted_;
  started_primary_ += other.started_primary_;
  started_secondary_ += other.started_secondary_;
  completed_ += other.completed_;
  timed_out_ += other.timed_out_;
  cancelled_ += other.cancelled_;
  requeues_ += other.requeues_;
  wait_s_.merge_from(other.wait_s_);
  latency_s_.merge_from(other.latency_s_);
  stretch_.merge_from(other.stretch_);
  first_consider_s_.merge_from(other.first_consider_s_);
}

void SpanLedger::write_json(JsonWriter& w) const {
  w.begin_object("jobs");
  w.value("submitted", static_cast<std::int64_t>(submitted_));
  w.value("started_primary", static_cast<std::int64_t>(started_primary_));
  w.value("started_secondary",
          static_cast<std::int64_t>(started_secondary_));
  w.value("completed", static_cast<std::int64_t>(completed_));
  w.value("timed_out", static_cast<std::int64_t>(timed_out_));
  w.value("cancelled", static_cast<std::int64_t>(cancelled_));
  w.value("requeues", static_cast<std::int64_t>(requeues_));
  w.value("open", static_cast<std::int64_t>(open_.size()));
  w.end_object();
  wait_s_.write_json(w, "wait_s");
  first_consider_s_.write_json(w, "first_consider_s");
  latency_s_.write_json(w, "latency_s");
  stretch_.write_json(w, "stretch");
}

std::string SpanLedger::to_json() const {
  JsonWriter w;
  w.begin_object();
  write_json(w);
  w.end_object();
  return w.str();
}

}  // namespace cosched::obs
