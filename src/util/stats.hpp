// Statistics helpers for experiment reporting: means, order statistics
// and bootstrap confidence intervals.
#pragma once

#include <vector>

#include "util/rng.hpp"

namespace cosched {

/// Returns the q-quantile (q in [0,1]) with linear interpolation between
/// order statistics. The input is copied and sorted; empty input yields 0.
double quantile(std::vector<double> values, double q);

/// Arithmetic mean; 0 for empty input.
double mean_of(const std::vector<double>& values);

/// Result of a bootstrap confidence-interval estimate for the mean.
struct ConfidenceInterval {
  double mean = 0.0;
  double lo = 0.0;
  double hi = 0.0;
};

/// Percentile-bootstrap CI for the mean at the given level (e.g. 0.95).
/// Deterministic for a given rng state.
ConfidenceInterval bootstrap_mean_ci(const std::vector<double>& values,
                                     double level, Pcg32& rng,
                                     int resamples = 1000);

}  // namespace cosched
