#include "workload/generator.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace cosched::workload {

Generator::Generator(GeneratorParams params, const apps::Catalog& catalog)
    : params_(std::move(params)), catalog_(catalog) {
  COSCHED_REQUIRE(params_.job_count > 0, "job_count must be positive");
  COSCHED_REQUIRE(!params_.size_mix.empty(), "size_mix must not be empty");
  for (const auto& [nodes, weight] : params_.size_mix) {
    COSCHED_REQUIRE(nodes > 0 && weight >= 0,
                    "invalid size_mix entry (" << nodes << ", " << weight
                                               << ")");
  }
  COSCHED_REQUIRE(params_.est_factor_min >= 1.0 &&
                      params_.est_factor_max >= params_.est_factor_min,
                  "estimate factors must satisfy 1 <= min <= max");
  COSCHED_REQUIRE(catalog_.size() > 0, "catalog is empty");
  COSCHED_REQUIRE(params_.diurnal_amplitude >= 0 &&
                      params_.diurnal_amplitude < 1.0,
                  "diurnal_amplitude must be in [0, 1)");
  COSCHED_REQUIRE(params_.app_weights.empty() ||
                      static_cast<int>(params_.app_weights.size()) ==
                          catalog_.size(),
                  "app_weights size must match catalog size");

  size_weights_.reserve(params_.size_mix.size());
  for (const auto& [nodes, weight] : params_.size_mix) {
    (void)nodes;
    size_weights_.push_back(weight);
  }

  // Stream mode: offered load rho means the queue receives rho * capacity
  // node-seconds of work per second, i.e. arrival rate =
  // rho * machine_nodes / E[job node-seconds].
  if (params_.arrival == ArrivalMode::kStream) {
    COSCHED_REQUIRE(params_.offered_load > 0 &&
                        std::isfinite(params_.offered_load) &&
                        params_.machine_nodes > 0,
                    "stream mode needs a finite offered_load > 0 and "
                    "machine_nodes > 0");
    arrival_rate_ = params_.offered_load *
                    static_cast<double>(params_.machine_nodes) /
                    mean_job_node_seconds();
  }
}

double Generator::mean_job_node_seconds() const {
  // E[nodes] * E[per-node runtime]. Runtime on n nodes is roughly
  // work / n (ignoring the efficiency derate), so node-seconds ~ work:
  // E[lognormal] = exp(mu + sigma^2/2).
  const double mean_work =
      std::exp(params_.work_mu + params_.work_sigma * params_.work_sigma / 2);
  return mean_work;
}

Job Generator::generate_one(Pcg32& rng, int index, double& clock_s) const {
  Job job;
  job.id = index + 1;
  job.user = "user" + std::to_string(rng.uniform_int(1, 16));

  const std::size_t app_idx = params_.app_weights.empty()
                                  ? rng.next_below(static_cast<std::uint32_t>(
                                        catalog_.size()))
                                  : rng.weighted_index(params_.app_weights);
  const apps::AppModel& app = catalog_.get(static_cast<AppId>(app_idx));
  job.app = app.id;

  job.nodes = params_.size_mix[rng.weighted_index(size_weights_)].first;

  // True exclusive runtime from single-node work through the app's
  // scaling curve.
  const double work_1 = rng.lognormal(params_.work_mu, params_.work_sigma);
  const double runtime_s = app.runtime_seconds(work_1, job.nodes);
  job.base_runtime = std::max<SimDuration>(from_seconds(runtime_s), kSecond);

  // Over-estimated walltime, rounded up to a whole minute like real
  // sbatch submissions.
  const double factor =
      rng.uniform(params_.est_factor_min, params_.est_factor_max);
  const auto est = static_cast<SimDuration>(
      static_cast<double>(job.base_runtime) * factor);
  job.walltime_limit = ((est + kMinute - 1) / kMinute) * kMinute;

  job.shareable = app.shareable && rng.bernoulli(params_.shareable_prob);

  if (params_.arrival == ArrivalMode::kStream) {
    if (params_.diurnal_amplitude > 0) {
      // Thinned Poisson: candidates at the peak rate, accepted with
      // probability rate(t)/peak. Rate peaks at simulated noon.
      const double amplitude = params_.diurnal_amplitude;
      const double peak = arrival_rate_ * (1.0 + amplitude);
      for (;;) {
        clock_s += rng.exponential(peak);
        const double phase =
            2.0 * std::numbers::pi * (clock_s - 21600.0) / 86400.0;
        const double rate =
            arrival_rate_ * (1.0 + amplitude * std::sin(phase));
        if (rng.next_double() < rate / peak) break;
      }
    } else {
      clock_s += rng.exponential(arrival_rate_);
    }
    COSCHED_REQUIRE(clock_s <= static_cast<double>(kMaxInputSeconds),
                    "generated job " << job.id << " arrives at " << clock_s
                                     << " s, beyond the limit of "
                                     << kMaxInputSeconds << " s");
    job.submit_time = from_seconds(clock_s);
  } else {
    // Campaign: all at t=0 with a tiny deterministic stagger so submit
    // order is well-defined in logs.
    job.submit_time = index * kMillisecond;
  }
  return job;
}

JobList Generator::generate(Pcg32& rng) const {
  JobList jobs;
  jobs.reserve(static_cast<std::size_t>(params_.job_count));
  double clock_s = 0;
  for (int i = 0; i < params_.job_count; ++i) {
    jobs.push_back(generate_one(rng, i, clock_s));
  }
  return jobs;
}

std::optional<Job> GeneratorJobSource::next() {
  if (index_ >= generator_.params().job_count) return std::nullopt;
  return generator_.generate_one(rng_, index_++, clock_s_);
}

}  // namespace cosched::workload
