#include "interference/corun_model.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "util/check.hpp"

namespace cosched::interference {

CorunModel::CorunModel(CorunParams params) : params_(params) {
  COSCHED_CHECK(params_.smt_issue_gain >= 0);
  COSCHED_CHECK(params_.cache_coupling >= 0);
  COSCHED_CHECK(params_.smt_base_penalty >= 0);
  COSCHED_CHECK(params_.membw_capacity > 0);
  COSCHED_CHECK(params_.network_capacity > 0);
}

std::vector<double> CorunModel::slowdowns(
    const std::vector<apps::StressVector>& jobs) const {
  std::vector<double> out(jobs.size());
  slowdowns_into(jobs, out);
  return out;
}

void CorunModel::slowdowns_into(std::span<const apps::StressVector> jobs,
                                std::span<double> out) const {
  COSCHED_CHECK(!jobs.empty());
  const std::size_t k = jobs.size();
  COSCHED_CHECK(k <= static_cast<std::size_t>(kMaxThreadsPerCore) &&
                out.size() >= k);
  if (k == 1) {
    out[0] = 1.0;
    return;
  }

  // Step 1: cache coupling inflates effective memory-bandwidth demand.
  std::array<double, kMaxThreadsPerCore> membw_eff{};
  for (std::size_t j = 0; j < k; ++j) {
    double others_cache = 0;
    for (std::size_t o = 0; o < k; ++o) {
      if (o != j) others_cache += jobs[o].cache;
    }
    membw_eff[j] = jobs[j].membw * (1.0 + params_.cache_coupling * others_cache);
  }

  // Step 2: per-resource demand totals and capacities.
  double d_issue = 0, d_membw = 0, d_net = 0;
  for (std::size_t j = 0; j < k; ++j) {
    d_issue += jobs[j].issue;
    d_membw += membw_eff[j];
    d_net += jobs[j].network;
  }
  const double c_issue =
      1.0 + params_.smt_issue_gain * static_cast<double>(k - 1);
  const double r_issue = d_issue / c_issue;
  const double r_membw = d_membw / params_.membw_capacity;
  const double r_net = d_net / params_.network_capacity;

  // Steps 3 + 4: relevance-weighted worst-resource dilation, times the
  // per-co-runner pipeline-sharing floor.
  const double base =
      1.0 + params_.smt_base_penalty * static_cast<double>(k - 1);
  for (std::size_t j = 0; j < k; ++j) {
    const double dominant = std::max(
        {jobs[j].issue, membw_eff[j], jobs[j].network, 1e-9});
    auto weighted = [&](double stress, double ratio) {
      const double relevance = stress / dominant;
      return relevance * ratio + (1.0 - relevance);
    };
    double dilation = 1.0;
    dilation = std::max(dilation, weighted(jobs[j].issue, r_issue));
    dilation = std::max(dilation, weighted(membw_eff[j], r_membw));
    dilation = std::max(dilation, weighted(jobs[j].network, r_net));
    out[j] = std::max(1.0, dilation) * base;
  }
}

std::pair<double, double> CorunModel::pair_slowdowns(
    const apps::StressVector& p, const apps::StressVector& q) const {
  const auto sd = slowdowns({p, q});
  return {sd[0], sd[1]};
}

double CorunModel::combined_throughput(const apps::StressVector& p,
                                       const apps::StressVector& q) const {
  const auto [sp, sq] = pair_slowdowns(p, q);
  return 1.0 / sp + 1.0 / sq;
}

}  // namespace cosched::interference
