// Metrics registry: named counters, gauges, and fixed-bucket histograms
// that subsystems register into and a run dumps as JSON at the end.
//
// The registry is per-simulation (share-nothing, like every other piece of
// cell state): a sweep gives each cell its own Registry and merges them
// afterwards, so no instrument ever needs a lock. Instruments are created
// on first use and live as long as the registry; callers cache the
// returned references to keep hot-path observations at a pointer chase.
//
// Determinism contract: observing into a registry never feeds back into
// scheduling decisions, and the JSON dump orders instruments by name, so
// two identical runs serialize identical documents — except histograms or
// counters that record *wall-clock* or otherwise build-dependent
// quantities (scheduler pass latency, blocks skipped by the node index),
// which are labelled with a `_wall_` infix or `_wall` suffix by convention
// and excluded from any byte-comparison (DESIGN.md "Observability").
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace cosched::obs {

class Counter {
 public:
  void inc(std::uint64_t n = 1) { value_ += n; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

class Gauge {
 public:
  void set(double v) { value_ = v; }
  void add(double v) { value_ += v; }
  double value() const { return value_; }

 private:
  double value_ = 0;
};

/// Fixed-bucket histogram (Prometheus-style cumulative-free layout): bucket
/// i counts observations v with v <= upper_bounds[i] that missed every
/// earlier bucket; one implicit overflow bucket catches the rest.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  void observe(double v);

  const std::vector<double>& upper_bounds() const { return upper_bounds_; }
  /// Per-bucket counts; size is upper_bounds().size() + 1 (overflow last).
  const std::vector<std::uint64_t>& bucket_counts() const { return counts_; }
  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }

  /// Adds another histogram's observations; bucket bounds must match.
  void merge_from(const Histogram& other);

 private:
  std::vector<double> upper_bounds_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  double sum_ = 0;
};

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Find-or-create by name. References stay valid for the registry's
  /// lifetime (instruments are never removed).
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// `upper_bounds` applies on creation; a later call with the same name
  /// returns the existing histogram (bounds argument ignored).
  Histogram& histogram(const std::string& name,
                       std::vector<double> upper_bounds);

  bool empty() const {
    return counters_.empty() && gauges_.empty() && histograms_.empty();
  }

  /// Sums `other` into this registry: counters and gauges add, histograms
  /// merge bucket-wise. Used to fold per-cell registries of a sweep.
  void merge_from(const Registry& other);

  /// The full registry as one JSON document, instruments sorted by name:
  /// {"counters": {...}, "gauges": {...}, "histograms": {...}}. With
  /// `include_wall` false, instruments named by the `_wall_`/`_wall` convention
  /// are dropped — the filtered dump is byte-deterministic for identical
  /// runs and safe to byte-compare (`cosched report` uses it).
  std::string to_json(bool include_wall = true) const;

 private:
  // std::map keeps dump order deterministic; unique_ptr keeps references
  // stable across rehash-free growth.
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace cosched::obs
