// History-based pair-interference estimation.
//
// The oracle gate (CoAllocator's default) reads the same stress vectors the
// simulator's ground-truth model uses — the equivalent of having profiled
// every application offline. A production deployment has neither: it only
// observes *runtimes*. PairEstimator is that deployment-realistic signal:
// an EWMA, per directed (app, partner-app) pair, of the dilation jobs of
// `app` experienced when co-located with `partner`. The observations are
// noisy by construction (a job's observed dilation averages over solo and
// shared phases of its run), which is exactly the noise a real system
// would face; the learned-gate ablation (bench R-A5) measures what that
// noise costs relative to the oracle.
#pragma once

#include <optional>
#include <vector>

#include "util/check.hpp"
#include "util/types.hpp"

namespace cosched::interference {

struct PairEstimate {
  double dilation = 1.0;  ///< EWMA of observed dilation of `app` next to `partner`
  int samples = 0;
};

class PairEstimator {
 public:
  /// `app_count` sizes the (dense) pair table; `ewma_alpha` weights new
  /// observations (0 < alpha <= 1).
  explicit PairEstimator(int app_count, double ewma_alpha = 0.3);

  /// Records that a job of `app` observed `dilation` while (predominantly)
  /// co-located with a job of `partner`.
  void observe(AppId app, AppId partner, double dilation);

  /// Directed estimate: how much `app` dilates next to `partner`.
  const PairEstimate& estimate(AppId app, AppId partner) const;

  /// Symmetric combined throughput from both directed estimates, if both
  /// have at least `min_samples` observations.
  std::optional<double> combined_throughput(AppId a, AppId b,
                                            int min_samples) const;

  int app_count() const { return app_count_; }

 private:
  std::size_t index(AppId app, AppId partner) const;

  int app_count_;
  double alpha_;
  std::vector<PairEstimate> table_;
};

}  // namespace cosched::interference
