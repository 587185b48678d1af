#include "interference/estimator.hpp"

namespace cosched::interference {

PairEstimator::PairEstimator(int app_count, double ewma_alpha)
    : app_count_(app_count),
      alpha_(ewma_alpha),
      table_(static_cast<std::size_t>(app_count) *
             static_cast<std::size_t>(app_count)) {
  COSCHED_CHECK(app_count > 0);
  COSCHED_CHECK(ewma_alpha > 0 && ewma_alpha <= 1.0);
}

std::size_t PairEstimator::index(AppId app, AppId partner) const {
  COSCHED_CHECK(app >= 0 && app < app_count_);
  COSCHED_CHECK(partner >= 0 && partner < app_count_);
  return static_cast<std::size_t>(app) *
             static_cast<std::size_t>(app_count_) +
         static_cast<std::size_t>(partner);
}

void PairEstimator::observe(AppId app, AppId partner, double dilation) {
  COSCHED_CHECK(dilation >= 1.0 - 1e-9);
  PairEstimate& e = table_[index(app, partner)];
  if (e.samples == 0) {
    e.dilation = dilation;
  } else {
    e.dilation = alpha_ * dilation + (1.0 - alpha_) * e.dilation;
  }
  ++e.samples;
}

const PairEstimate& PairEstimator::estimate(AppId app, AppId partner) const {
  return table_[index(app, partner)];
}

std::optional<double> PairEstimator::combined_throughput(
    AppId a, AppId b, int min_samples) const {
  const PairEstimate& ab = estimate(a, b);
  const PairEstimate& ba = estimate(b, a);
  if (ab.samples < min_samples || ba.samples < min_samples) {
    return std::nullopt;
  }
  return 1.0 / ab.dilation + 1.0 / ba.dilation;
}

}  // namespace cosched::interference
