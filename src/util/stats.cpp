#include "util/stats.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace cosched {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  COSCHED_CHECK(q >= 0.0 && q <= 1.0);
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

double mean_of(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double s = 0;
  for (double v : values) s += v;
  return s / static_cast<double>(values.size());
}

ConfidenceInterval bootstrap_mean_ci(const std::vector<double>& values,
                                     double level, Pcg32& rng, int resamples) {
  ConfidenceInterval ci;
  ci.mean = mean_of(values);
  if (values.size() < 2) {
    ci.lo = ci.hi = ci.mean;
    return ci;
  }
  std::vector<double> means;
  means.reserve(static_cast<std::size_t>(resamples));
  const auto n = static_cast<std::uint32_t>(values.size());
  for (int r = 0; r < resamples; ++r) {
    double s = 0;
    for (std::uint32_t i = 0; i < n; ++i) s += values[rng.next_below(n)];
    means.push_back(s / n);
  }
  const double alpha = 1.0 - level;
  ci.lo = quantile(means, alpha / 2.0);
  ci.hi = quantile(std::move(means), 1.0 - alpha / 2.0);
  return ci;
}

}  // namespace cosched
