// Reference co-allocation scan: the node-by-node gate CoAllocator ran
// before it grew per-pass gate tables, kept as a test oracle.
//
// For every node with a free secondary slot, in ascending id order, the
// residents are walked in slot order — consent first, then the walltime
// fence, resident by resident — and the survivors are gated with the same
// oracle / class-rule / learned rules. Nothing is cached: every call asks
// the host afresh, so it cannot share a bug with the table's caching.
// tests/co_scan_fuzz_test.cpp compares CoAllocator::select_nodes against
// it node list for node list and co_decision byte for byte.
#pragma once

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "core/pairing.hpp"
#include "core/scheduler.hpp"
#include "obs/trace.hpp"

namespace cosched::testing {

class ReferenceCoScan {
 public:
  explicit ReferenceCoScan(core::CoAllocationOptions options)
      : options_(options) {}

  std::optional<std::vector<NodeId>> select_nodes(core::SchedulerHost& host,
                                                  JobId candidate,
                                                  bool respect_deadline) const {
    obs::Tracer* tracer = host.tracer();
    const workload::Job& cand = host.job(candidate);
    const apps::AppModel& cand_app = host.app_of(candidate);
    if (!cand.shareable || !cand_app.shareable) {
      if (tracer != nullptr) {
        tracer->co_decision(candidate, false,
                            obs::ReasonCode::kCandidateNotShareable, 0, 0,
                            nullptr, obs::ReasonCounts{});
      }
      return std::nullopt;
    }
    const SimTime walltime_end = host.now() + cand.walltime_limit;
    std::vector<std::pair<double, NodeId>> ranked;
    obs::ReasonCounts rejects;
    int scanned = 0;
    for (NodeId n : host.machine().free_secondary_nodes()) {
      ++scanned;
      obs::ReasonCode reason = obs::ReasonCode::kAccepted;
      if (const auto score = node_admissible(host, cand_app, walltime_end, n,
                                             respect_deadline, reason)) {
        ranked.emplace_back(-*score, n);
      } else {
        rejects.add(reason);
      }
    }
    const auto admissible = static_cast<int>(ranked.size());
    if (admissible < cand.nodes) {
      if (tracer != nullptr) {
        tracer->co_decision(candidate, false,
                            obs::ReasonCode::kInsufficientNodes, scanned,
                            admissible, nullptr, rejects);
      }
      return std::nullopt;
    }
    std::sort(ranked.begin(), ranked.end());
    std::vector<NodeId> nodes;
    for (int i = 0; i < cand.nodes; ++i) {
      nodes.push_back(ranked[static_cast<std::size_t>(i)].second);
    }
    if (tracer != nullptr) {
      tracer->co_decision(candidate, true, obs::ReasonCode::kAccepted,
                          scanned, admissible, &nodes, rejects);
    }
    return nodes;
  }

 private:
  std::optional<double> node_admissible(core::SchedulerHost& host,
                                        const apps::AppModel& cand_app,
                                        SimTime walltime_end, NodeId node,
                                        bool respect_deadline,
                                        obs::ReasonCode& reason) const {
    std::vector<const apps::AppModel*> residents;
    for (JobId resident : host.machine().node(node).slot_jobs()) {
      if (resident == kInvalidJob) continue;
      const apps::AppModel& app = host.app_of(resident);
      if (!host.job(resident).shareable || !app.shareable) {
        reason = obs::ReasonCode::kResidentNotShareable;
        return std::nullopt;
      }
      residents.push_back(&app);
      if (respect_deadline && walltime_end > host.walltime_end(resident)) {
        reason = obs::ReasonCode::kWalltimeFence;
        return std::nullopt;
      }
    }
    switch (options_.gate_mode) {
      case core::GateMode::kOracle:
        return oracle(host, residents, cand_app, reason);
      case core::GateMode::kClassRule:
        for (const apps::AppModel* app : residents) {
          if (!complementary(cand_app, *app)) {
            reason = obs::ReasonCode::kClassMismatch;
            return std::nullopt;
          }
        }
        return 1.0;
      case core::GateMode::kLearned:
        return learned(host, residents, cand_app, reason);
    }
    return std::nullopt;
  }

  std::optional<double> oracle(
      core::SchedulerHost& host,
      const std::vector<const apps::AppModel*>& residents,
      const apps::AppModel& cand_app, obs::ReasonCode& reason) const {
    if (residents.size() == 1) {
      const auto [sd_res, sd_cand] = host.corun().pair_slowdowns(
          residents[0]->stress, cand_app.stress);
      const double throughput = 1.0 / sd_res + 1.0 / sd_cand;
      if (sd_res > options_.max_dilation || sd_cand > options_.max_dilation) {
        reason = obs::ReasonCode::kDilationCap;
        return std::nullopt;
      }
      if (throughput < 1.0 + options_.pairing_threshold) {
        reason = obs::ReasonCode::kBelowThreshold;
        return std::nullopt;
      }
      return throughput;
    }
    std::vector<apps::StressVector> stresses;
    for (const apps::AppModel* app : residents) stresses.push_back(app->stress);
    stresses.push_back(cand_app.stress);
    std::vector<double> slowdowns(stresses.size());
    host.corun().slowdowns_into(stresses, slowdowns);
    double throughput = 0;
    for (double sd : slowdowns) {
      if (sd > options_.max_dilation) {
        reason = obs::ReasonCode::kDilationCap;
        return std::nullopt;
      }
      throughput += 1.0 / sd;
    }
    const auto extra_jobs = static_cast<double>(stresses.size() - 1);
    if (throughput < 1.0 + options_.pairing_threshold * extra_jobs) {
      reason = obs::ReasonCode::kBelowThreshold;
      return std::nullopt;
    }
    return throughput;
  }

  std::optional<double> learned(
      core::SchedulerHost& host,
      const std::vector<const apps::AppModel*>& residents,
      const apps::AppModel& cand_app, obs::ReasonCode& reason) const {
    const interference::PairEstimator* est = host.pair_estimator();
    double score = core::CoAllocator::kLearnedFallbackScore;
    for (const apps::AppModel* app : residents) {
      const auto tput = est->combined_throughput(cand_app.id, app->id,
                                                 options_.min_samples);
      if (!tput) {
        if (!complementary(cand_app, *app)) {
          reason = obs::ReasonCode::kClassMismatch;
          return std::nullopt;
        }
        continue;
      }
      if (est->estimate(cand_app.id, app->id).dilation >
              options_.max_dilation ||
          est->estimate(app->id, cand_app.id).dilation >
              options_.max_dilation) {
        reason = obs::ReasonCode::kDilationCap;
        return std::nullopt;
      }
      if (*tput < 1.0 + options_.pairing_threshold) {
        reason = obs::ReasonCode::kBelowThreshold;
        return std::nullopt;
      }
      score = std::min(
          score == core::CoAllocator::kLearnedFallbackScore ? *tput : score,
          *tput);
    }
    return score;
  }

  static bool complementary(const apps::AppModel& a, const apps::AppModel& b) {
    return (a.app_class == apps::AppClass::kComputeBound) !=
           (b.app_class == apps::AppClass::kComputeBound);
  }

  core::CoAllocationOptions options_;
};

}  // namespace cosched::testing
