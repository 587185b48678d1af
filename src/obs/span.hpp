// Job lifecycle spans: per-job submit → first_considered → start → end
// timestamps with reason context, folded into fixed-bucket percentile
// sketches at end of life.
//
// The ledger is streaming: it holds one small OpenSpan per in-flight job
// and a constant-size sketch per latency class, so memory stays flat at
// fleet scale (ROADMAP item 5). Like the Registry it is share-nothing —
// one ledger per cell, merged bucket-wise afterwards — and observation
// never feeds back into scheduling, so digests are identical with spans
// on or off (pinned by tests/obs_test.cpp).
//
// Determinism contract: every timestamp is sim-time; the JSON dump orders
// fields statically and quantiles are integer-rank bucket lookups, so two
// identical runs serialize byte-identical span reports at any thread
// count (pinned by FleetParity in tests/fleet_test.cpp).
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/registry.hpp"
#include "util/types.hpp"

namespace cosched {
class JsonWriter;
}

namespace cosched::obs {

/// Fixed-bucket percentile sketch: a registry Histogram (observations
/// land in the first bucket whose upper bound is >= v, one implicit
/// overflow bucket catches the rest) whose quantile queries return the
/// upper bound of the bucket that contains the requested rank. The error
/// is therefore bounded by bucket resolution, never by sample order —
/// merge and quantile results are independent of observation order, which
/// is what makes the sketch safe to fold share-nothing across cells.
class PercentileSketch : public Histogram {
 public:
  using Histogram::Histogram;

  /// Upper bound of the bucket holding the observation at the given
  /// permille rank (ceil-rank, 1-based: permille=500 → p50). Returns
  /// false when the sketch is empty or the rank falls in the overflow
  /// bucket (serialized as "inf").
  bool quantile(int permille, double* out) const;

  /// {"count":N,"sum":S,"p50":...,"p90":...,"p99":...} with "inf" for
  /// overflow-bucket quantiles. Byte-deterministic.
  void write_json(JsonWriter& w, const std::string& key) const;

  /// Bucket bounds for sim-time quantities in seconds (sub-second through
  /// two days) and for dimensionless stretch factors.
  static std::vector<double> time_bounds();
  static std::vector<double> stretch_bounds();
};

/// How a job's span ended.
enum class SpanEnd : std::int8_t {
  kComplete = 0,
  kTimeout,
  kCancelled,
};

/// Streaming per-job lifecycle ledger. The controller drives it from the
/// same hook sites that feed the Tracer:
///
///   on_submit           job enters the pending queue
///   on_first_considered a scheduler pass examined the job for the first
///                       time (requires every pass to run, so attaching a
///                       ledger disables the pass early-exit, exactly like
///                       attaching a tracer does)
///   on_start            job began executing, on primary or secondary
///                       slots
///   on_requeue          a running job was pushed back to pending
///   on_end              complete / timeout / cancelled
///
/// Completed and timed-out jobs that actually started fold wait, first-
/// consider latency, end-to-end latency, and stretch into the sketches;
/// cancelled jobs only count. Jobs still open at end of run are reported
/// as in-flight counts, not folded.
class SpanLedger {
 public:
  SpanLedger();
  SpanLedger(const SpanLedger&) = delete;
  SpanLedger& operator=(const SpanLedger&) = delete;

  void on_submit(JobId job, SimTime t);
  void on_first_considered(JobId job, SimTime t);
  void on_start(JobId job, SimTime t, bool secondary);
  void on_requeue(JobId job, SimTime t);
  void on_end(JobId job, SimTime t, SpanEnd how);

  std::uint64_t submitted() const { return submitted_; }
  std::uint64_t ended() const { return completed_ + timed_out_ + cancelled_; }
  std::uint64_t open() const { return open_.size(); }

  const PercentileSketch& wait() const { return wait_s_; }
  const PercentileSketch& latency() const { return latency_s_; }
  const PercentileSketch& stretch() const { return stretch_; }
  const PercentileSketch& first_consider() const { return first_consider_s_; }

  /// Folds another cell's ledger in (counters add, sketches merge). Open
  /// spans stay per-cell: merge after the cells' runs have drained.
  void merge_from(const SpanLedger& other);

  /// The full ledger as one JSON document — static field order, integer
  /// rank quantiles; byte-deterministic for identical runs.
  std::string to_json() const;
  void write_json(JsonWriter& w) const;

 private:
  struct OpenSpan {
    SimTime submit = -1;
    SimTime first_considered = -1;
    SimTime start = -1;
  };

  std::unordered_map<JobId, OpenSpan> open_;
  std::uint64_t submitted_ = 0;
  std::uint64_t started_primary_ = 0;
  std::uint64_t started_secondary_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t timed_out_ = 0;
  std::uint64_t cancelled_ = 0;
  std::uint64_t requeues_ = 0;
  PercentileSketch wait_s_;
  PercentileSketch latency_s_;
  PercentileSketch stretch_;
  PercentileSketch first_consider_s_;
};

}  // namespace cosched::obs
