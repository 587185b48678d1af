#include "core/pairing.hpp"

#include <algorithm>
#include <iterator>
#include <limits>
#include <span>

#include "util/check.hpp"

namespace cosched::core {

namespace {

/// The class rule: admit exactly the complementary pairings — one side
/// compute-bound, the other not. The cheap deployable heuristic the
/// learned gate falls back to.
bool classes_complementary(apps::AppClass a, apps::AppClass b) {
  const bool a_compute = (a == apps::AppClass::kComputeBound);
  const bool b_compute = (b == apps::AppClass::kComputeBound);
  return a_compute != b_compute;
}

}  // namespace

CoAllocator::CoAllocator(CoAllocationOptions options) : options_(options) {
  COSCHED_CHECK(options_.pairing_threshold >= 0);
  COSCHED_CHECK(options_.max_dilation >= 1.0);
  COSCHED_CHECK(options_.min_samples >= 1);
}

CoAllocator::Row CoAllocator::file_row(SchedulerHost& host,
                                       NodeId node) const {
  // Walk the residents in slot order, as the gate always has: consent and
  // the fence are checked resident by resident, so everything after the
  // first resident that refuses sharing is never looked at.
  Signature& sig = sig_scratch_;
  sig.apps.clear();
  sig.blocked = false;
  SimTime fence = kTimeInfinity;
  for (JobId resident : host.machine().node(node).slot_jobs()) {
    if (resident == kInvalidJob) continue;
    const workload::Job& r = host.job(resident);
    const apps::AppModel& app = host.app_of(resident);
    if (!r.shareable || !app.shareable) {
      sig.blocked = true;
      break;
    }
    sig.apps.push_back(&app);
    fence = std::min(fence, host.walltime_end(resident));
  }
  const auto it =
      std::find_if(sigs_.begin(), sigs_.end(), [&](const Signature& s) {
        return s.blocked == sig.blocked && s.apps == sig.apps;
      });
  const int id = static_cast<int>(it - sigs_.begin());
  if (it == sigs_.end()) sigs_.push_back(Signature{sig.apps, sig.blocked, {}});
  return Row{id, fence, node};
}

void CoAllocator::refresh_table(SchedulerHost& host) const {
  const cluster::Machine& machine = host.machine();
  if (table_machine_ != machine.instance_id()) {
    // First call, or the host switched machines (test fixtures reuse one
    // allocator across scenarios): no row, signature or verdict carries
    // over, and at generation 0 every node counts as changed.
    table_machine_ = machine.instance_id();
    table_gen_ = 0;
    rows_.clear();
    sigs_.clear();
  } else if (table_gen_ == machine.generation()) {
    return;
  }
  // Node stamps are global and monotone, so the nodes stamped above
  // table_gen_ are exactly those that changed since the last refresh.
  // Their rows go; the ones still free-secondary are filed afresh, in
  // ascending node order so signatures intern in a fixed order.
  const auto changed = [&](NodeId n) {
    return machine.node_generation(n) > table_gen_;
  };
  std::erase_if(rows_, [&](const Row& r) { return changed(r.node); });
  const std::size_t kept = rows_.size();
  for (NodeId n : machine.free_secondary_nodes()) {
    if (changed(n)) rows_.push_back(file_row(host, n));
  }
  const auto filed = rows_.begin() + static_cast<std::ptrdiff_t>(kept);
  std::sort(filed, rows_.end());
  // Into a reused buffer: std::inplace_merge allocates one per call.
  merged_.resize(rows_.size());
  std::merge(rows_.begin(), filed, filed, rows_.end(), merged_.begin());
  rows_.swap(merged_);
  if (obs::Registry* registry = host.registry()) {
    registry->counter("co_table_rows_filed").inc(rows_.size() - kept);
    registry->counter("co_table_rows_kept").inc(kept);
  }
  groups_.clear();
  for (std::size_t begin = 0; begin < rows_.size();) {
    std::size_t end = begin + 1;
    while (end < rows_.size() && rows_[end].sig == rows_[begin].sig) ++end;
    groups_.push_back(Group{rows_[begin].sig, begin, end});
    begin = end;
  }
  table_gen_ = machine.generation();
}

bool CoAllocator::held(const cluster::Machine& machine, SimTime now,
                       AppId app, int nodes, SimTime end) const {
  if (held_machine_ != machine.instance_id() ||
      held_gen_ != machine.generation() || now < held_now_) {
    held_machine_ = machine.instance_id();
    held_gen_ = machine.generation();
    for (std::vector<Held>& front : held_) front.clear();
  }
  held_now_ = now;
  const auto a = static_cast<std::size_t>(app);
  if (a >= held_.size()) return false;
  // Of the rejections wanting no more than `nodes`, the widest ends first.
  const std::vector<Held>& front = held_[a];
  const auto wider = std::upper_bound(
      front.begin(), front.end(), nodes,
      [](int n, const Held& h) { return n < h.nodes; });
  return wider != front.begin() && std::prev(wider)->end <= end;
}

void CoAllocator::hold(AppId app, int nodes, SimTime end) const {
  const auto a = static_cast<std::size_t>(app);
  if (a >= held_.size()) held_.resize(a + 1);
  // No entry dominates the new one, so it dominates exactly the entries
  // wanting at least as many nodes that end no earlier: a run of the
  // front starting at its slot.
  std::vector<Held>& front = held_[a];
  const auto first = std::lower_bound(
      front.begin(), front.end(), nodes,
      [](const Held& h, int n) { return h.nodes < n; });
  const auto last = std::find_if(first, front.end(),
                                 [&](const Held& h) { return h.end < end; });
  front.insert(front.erase(first, last), Held{nodes, end});
}

CoAllocator::Verdict CoAllocator::verdict(SchedulerHost& host, int sig,
                                          const apps::AppModel& cand_app,
                                          std::uint64_t& evals) const {
  Signature& s = sigs_[static_cast<std::size_t>(sig)];
  if (options_.gate_mode == GateMode::kLearned) {
    // The estimator observes co-runs between calls without the machine
    // changing, so a learned verdict is only good for this call.
    ++evals;
    return evaluate(host, s.apps, cand_app);
  }
  // Stress vectors, app classes and gate options are immutable, so oracle
  // and class-rule verdicts are pure functions of (signature, app).
  const auto app = static_cast<std::size_t>(cand_app.id);
  if (app >= s.verdicts.size()) s.verdicts.resize(app + 1);
  if (!s.verdicts[app]) {
    ++evals;
    s.verdicts[app] = evaluate(host, s.apps, cand_app);
  }
  return *s.verdicts[app];
}

CoAllocator::Verdict CoAllocator::evaluate(
    SchedulerHost& host, const std::vector<const apps::AppModel*>& residents,
    const apps::AppModel& cand_app) const {
  switch (options_.gate_mode) {
    case GateMode::kOracle: {
      // Reused member buffers: no malloc/free pair per gate once they
      // have grown (the no-per-pass-alloc lint rule's concern).
      stresses_.clear();
      for (const apps::AppModel* app : residents) {
        stresses_.push_back(app->stress);
      }
      stresses_.push_back(cand_app.stress);
      const std::size_t nstress = stresses_.size();
      slowdown_scratch_.resize(2 * nstress);
      const std::span<double> staging(slowdown_scratch_);
      const std::span<double> slowdowns = staging.first(nstress);
      host.corun().slowdowns_into(stresses_, staging.subspan(nstress),
                                  slowdowns);
      double throughput = 0;
      for (double sd : slowdowns) {
        if (sd > options_.max_dilation) {
          return {std::nullopt, obs::ReasonCode::kDilationCap};
        }
        // Combine order is pinned: slowdowns come back in stress-vector
        // submission order, and any future parallel split must reduce the
        // partials in that same order to stay bit-identical.
        throughput += 1.0 / sd;  // cosched-lint: fixed-combine
      }
      const auto extra_jobs = static_cast<double>(nstress - 1);
      if (throughput < 1.0 + options_.pairing_threshold * extra_jobs) {
        return {std::nullopt, obs::ReasonCode::kBelowThreshold};
      }
      return {throughput, obs::ReasonCode::kAccepted};
    }

    case GateMode::kClassRule: {
      for (const apps::AppModel* app : residents) {
        if (!classes_complementary(cand_app.app_class, app->app_class)) {
          return {std::nullopt, obs::ReasonCode::kClassMismatch};
        }
      }
      // No quantitative prediction: all admits rank equal.
      return {1.0, obs::ReasonCode::kAccepted};
    }

    case GateMode::kLearned: {
      const interference::PairEstimator* est = host.pair_estimator();
      COSCHED_CHECK_MSG(est != nullptr,
                        "learned gate mode requires a host pair estimator");
      double score = kLearnedFallbackScore;
      for (const apps::AppModel* app : residents) {
        const auto tput = est->combined_throughput(cand_app.id, app->id,
                                                   options_.min_samples);
        if (!tput) {
          // Unseen pair: explore via the class rule.
          if (!classes_complementary(cand_app.app_class, app->app_class)) {
            return {std::nullopt, obs::ReasonCode::kClassMismatch};
          }
          continue;
        }
        // Seen pair: quantitative gate from history.
        if (est->estimate(cand_app.id, app->id).dilation >
                options_.max_dilation ||
            est->estimate(app->id, cand_app.id).dilation >
                options_.max_dilation) {
          return {std::nullopt, obs::ReasonCode::kDilationCap};
        }
        if (*tput < 1.0 + options_.pairing_threshold) {
          return {std::nullopt, obs::ReasonCode::kBelowThreshold};
        }
        score = std::min(score == kLearnedFallbackScore ? *tput : score,
                         *tput);
      }
      return {score, obs::ReasonCode::kAccepted};
    }
  }
  COSCHED_CHECK(false);
  return {std::nullopt, obs::ReasonCode::kAccepted};
}

std::optional<std::vector<NodeId>> CoAllocator::select_nodes(
    SchedulerHost& host, JobId candidate, bool respect_deadline) const {
  obs::Tracer* tracer = host.tracer();
  const workload::Job& cand = host.job(candidate);
  const SimTime now = host.now();
  const SimTime walltime_end = now + cand.walltime_limit;
  const int wanted = cand.nodes;
  // Held rejections (DESIGN.md): observed calls walk so every record and
  // sample keeps its bytes, and learned verdicts can move while the
  // machine stands still. Without the fence E plays no part, so such a
  // rejection holds for any end.
  const bool memo = tracer == nullptr && host.registry() == nullptr &&
                    options_.gate_mode != GateMode::kLearned;
  const SimTime held_end = respect_deadline
                               ? walltime_end
                               : std::numeric_limits<SimTime>::min();
  if (memo && held(host.machine(), now, cand.app, wanted, held_end)) {
    return std::nullopt;
  }
  const apps::AppModel& cand_app = host.app_of(candidate);
  if (!cand.shareable || !cand_app.shareable) {
    if (tracer != nullptr) {
      tracer->co_decision(candidate, /*accepted=*/false,
                          obs::ReasonCode::kCandidateNotShareable,
                          /*scanned=*/0, /*admissible=*/0, nullptr,
                          obs::ReasonCounts{});
    }
    return std::nullopt;
  }
  refresh_table(host);
  // Every free-secondary node is accounted for exactly as a node-by-node
  // scan would: fenced rows first (a resident that would end before the
  // candidate), then the group's verdict for the rest.
  obs::ReasonCounts rejects;
  int admissible = 0;
  std::uint64_t evals = 0;
  admitted_.clear();
  const auto fenced = [&](const Row& r) { return r.fence < walltime_end; };
  for (const Group& group : groups_) {
    const auto first = rows_.begin() + static_cast<std::ptrdiff_t>(group.begin);
    const auto last = rows_.begin() + static_cast<std::ptrdiff_t>(group.end);
    // Rows ascend by F, so the fenced ones form a prefix.
    const auto survivors =
        respect_deadline ? std::partition_point(first, last, fenced) : first;
    rejects.add(obs::ReasonCode::kWalltimeFence,
                static_cast<int>(survivors - first));
    const int cleared = static_cast<int>(last - survivors);
    if (cleared == 0) continue;
    if (sigs_[static_cast<std::size_t>(group.sig)].blocked) {
      rejects.add(obs::ReasonCode::kResidentNotShareable, cleared);
      continue;
    }
    const Verdict v = verdict(host, group.sig, cand_app, evals);
    if (!v.score) {
      rejects.add(v.reason, cleared);
      continue;
    }
    admissible += cleared;
    admitted_.push_back(Admitted{group.end - static_cast<std::size_t>(cleared),
                                 group.end, *v.score});
  }
  const int scanned = static_cast<int>(rows_.size());
  if (obs::Registry* registry = host.registry()) {
    registry
        ->histogram("co_nodes_scanned",
                    {1, 2, 4, 8, 16, 32, 64, 128, 256, 512})
        .observe(scanned);
    registry->counter("co_gate_evals").inc(evals);
  }
  if (admissible < wanted) {
    if (tracer != nullptr) {
      tracer->co_decision(candidate, /*accepted=*/false,
                          obs::ReasonCode::kInsufficientNodes, scanned,
                          admissible, nullptr, rejects);
    }
    // Exactly `admissible` rows clear this end, so every candidate of the
    // app wanting more is rejected until the machine moves.
    if (memo) hold(cand.app, admissible + 1, held_end);
    return std::nullopt;
  }
  ranked_.clear();
  for (const Admitted& a : admitted_) {
    for (std::size_t i = a.begin; i < a.end; ++i) {
      ranked_.emplace_back(-a.score, rows_[i].node);
    }
  }
  // Only the best `wanted` entries are taken; keys (-score, id) are unique,
  // so a partial sort yields exactly the full sort's prefix — including
  // the tie-break: equal scores order by lower node id.
  std::partial_sort(ranked_.begin(),
                    ranked_.begin() + static_cast<std::ptrdiff_t>(wanted),
                    ranked_.end());
  std::vector<NodeId> nodes;
  nodes.reserve(static_cast<std::size_t>(wanted));
  for (int i = 0; i < wanted; ++i) {
    nodes.push_back(ranked_[static_cast<std::size_t>(i)].second);
  }
  if (tracer != nullptr) {
    tracer->co_decision(candidate, /*accepted=*/true,
                        obs::ReasonCode::kAccepted, scanned, admissible,
                        &nodes, rejects);
  }
  return nodes;
}

}  // namespace cosched::core
