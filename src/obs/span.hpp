// Job lifecycle spans: per-job submit → first_considered → start → end
// timestamps folded into fixed-bucket percentile sketches at end of life.
//
// The ledger is a stateless fold: it keeps no per-job state, only
// counters and a constant-size sketch per latency class, so memory stays
// flat at fleet scale (ROADMAP item 5). The controller hands it each
// job's stamps once, when the job retires. Like the Registry it is
// share-nothing — one ledger per cell, merged bucket-wise afterwards — and
// observation never feeds back into scheduling, so digests are identical
// with spans on or off (pinned by tests/obs_test.cpp).
//
// Determinism contract: every timestamp is sim-time; the JSON dump orders
// fields statically and quantiles are integer-rank bucket lookups, so two
// identical runs serialize byte-identical span reports at any thread
// count (pinned by FleetParity in tests/fleet_test.cpp).
#pragma once

#include <cstdint>
#include <string>
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

/// One job's lifecycle stamps, read from its final record at retirement.
struct SpanStamps {
  SimTime submit = 0;
  /// The first scheduler pass that examined the job.
  SimTime first_considered = 0;
  /// The final attempt's start: a requeue starts the wait over.
  SimTime start = 0;
  SimTime end = 0;
};

/// Lifecycle ledger over every submitted job. The controller drives it:
///
///   on_submit   a job's submit event fired
///   on_start    an attempt began executing, on primary or secondary slots
///   on_requeue  a running job was pushed back to pending
///   on_end      a submitted job retired: complete / timeout / cancelled
///
/// Completed and timed-out jobs fold wait, first-consider latency,
/// end-to-end latency, and stretch into the sketches; cancelled jobs only
/// count. Jobs submitted but not yet ended are reported as open.
class SpanLedger {
 public:
  SpanLedger();
  SpanLedger(const SpanLedger&) = delete;
  SpanLedger& operator=(const SpanLedger&) = delete;

  void on_submit() { ++submitted_; }
  void on_start(bool secondary) {
    ++(secondary ? started_secondary_ : started_primary_);
  }
  void on_requeue() { ++requeues_; }
  void on_end(SpanEnd how, const SpanStamps& span);

  std::uint64_t submitted() const { return submitted_; }
  std::uint64_t ended() const { return completed_ + timed_out_ + cancelled_; }
  std::uint64_t open() const { return submitted_ - ended(); }

  const PercentileSketch& wait() const { return wait_s_; }
  const PercentileSketch& latency() const { return latency_s_; }
  const PercentileSketch& stretch() const { return stretch_; }
  const PercentileSketch& first_consider() const { return first_consider_s_; }

  /// Folds another cell's ledger in: counters add, sketches merge.
  void merge_from(const SpanLedger& other);

  /// The full ledger as one JSON document — static field order, integer
  /// rank quantiles; byte-deterministic for identical runs.
  std::string to_json() const;
  void write_json(JsonWriter& w) const;

 private:
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
