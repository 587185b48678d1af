#include "core/strategies.hpp"

#include <algorithm>

#include "core/strategy_common.hpp"
#include "util/check.hpp"

namespace cosched::core {

// --- FCFS --------------------------------------------------------------------

void FcfsScheduler::schedule(SchedulerHost& host) {
  queue_.assign(host.pending().begin(), host.pending().end());
  for (JobId id : queue_) {
    if (!try_start_primary(host, id)) break;  // head-of-line blocking
  }
}

// --- FirstFit ------------------------------------------------------------------

void FirstFitScheduler::schedule(SchedulerHost& host) {
  queue_.assign(host.pending().begin(), host.pending().end());
  for (JobId id : queue_) {
    try_start_primary(host, id);
  }
}

// --- EASY backfill --------------------------------------------------------------

const std::vector<JobId>& EasyBackfillScheduler::easy_pass(
    SchedulerHost& host) {
  queue_.assign(host.pending().begin(), host.pending().end());
  leftover_.clear();

  // Phase 1: start from the head while jobs fit.
  std::size_t head_idx = 0;
  while (head_idx < queue_.size() &&
         try_start_primary(host, queue_[head_idx])) {
    ++head_idx;
  }
  // The remaining jobs are queue_[head_idx..); indexing in place avoids the
  // per-pass copy the old remaining vector made.
  const std::size_t remaining = queue_.size() - head_idx;
  if (remaining == 0) return leftover_;

  // Phase 2: backfill behind the head's reservation. The shadow moves when
  // a backfill start consumes nodes, so recompute after every start.
  obs::Tracer* tracer = host.tracer();
  const JobId head = queue_[head_idx];
  ShadowInfo shadow = compute_shadow(host, host.job(head).nodes);
  if (tracer != nullptr) {
    tracer->shadow(head, shadow.shadow_time, shadow.extra_nodes);
  }
  leftover_.push_back(head);
  const std::size_t limit =
      backfill_depth_ > 0
          ? std::min(remaining,
                     static_cast<std::size_t>(backfill_depth_) + 1)
          : remaining;
  const cluster::Machine& machine = host.machine();
  std::size_t i = 1;
  for (; i < limit && machine.free_node_count() > 0; ++i) {
    const JobId id = queue_[head_idx + i];
    const workload::Job& job = host.job(id);
    if (machine.free_node_count() < job.nodes) {
      if (tracer != nullptr) {
        tracer->backfill_reject(id, obs::ReasonCode::kCapacity);
      }
      leftover_.push_back(id);
      continue;
    }
    const SimDuration candidate_runtime =
        use_prediction_ ? host.predicted_runtime(id) : job.walltime_limit;
    const bool ends_before_shadow =
        host.now() + candidate_runtime <= shadow.shadow_time;
    const bool fits_in_extra = job.nodes <= shadow.extra_nodes;
    if ((ends_before_shadow || fits_in_extra) &&
        try_start_primary(host, id)) {
      shadow = compute_shadow(host, host.job(head).nodes);
      if (tracer != nullptr) {
        tracer->shadow(head, shadow.shadow_time, shadow.extra_nodes);
      }
    } else {
      if (tracer != nullptr) {
        tracer->backfill_reject(id,
                                (ends_before_shadow || fits_in_extra)
                                    ? obs::ReasonCode::kCapacity
                                    : obs::ReasonCode::kBackfillWindow);
      }
      leftover_.push_back(id);
    }
  }
  // The rest stays queued untouched: it lies beyond the test budget, or
  // the machine is full. Mid-pass only starts change the machine and
  // starts only take nodes, so on a full machine every job left would be
  // rejected for capacity.
  if (tracer != nullptr) {
    for (std::size_t j = i; j < remaining; ++j) {
      tracer->backfill_reject(queue_[head_idx + j],
                              j < limit ? obs::ReasonCode::kCapacity
                                        : obs::ReasonCode::kBeyondDepth);
    }
  }
  leftover_.insert(leftover_.end(),
                   queue_.begin() + static_cast<std::ptrdiff_t>(head_idx + i),
                   queue_.end());
  return leftover_;
}

void EasyBackfillScheduler::schedule(SchedulerHost& host) {
  (void)easy_pass(host);
}

// --- Conservative backfill -------------------------------------------------------

const std::vector<JobId>& ConservativeBackfillScheduler::conservative_pass(
    SchedulerHost& host) {
  queue_.assign(host.pending().begin(), host.pending().end());
  leftover_.clear();
  build_profile_into(host, profile_);
  for (JobId id : queue_) {
    const workload::Job& job = host.job(id);
    const SimTime start =
        profile_.find_start(host.now(), job.walltime_limit, job.nodes);
    if (start == kTimeInfinity) {
      // Never fits: only a job wider than the whole profile gets here. It
      // holds no reservation (one would end past kTimeInfinity).
      leftover_.push_back(id);
      continue;
    }
    if (start == host.now() && try_start_primary(host, id)) {
      profile_.reserve(start, start + job.walltime_limit, job.nodes);
    } else {
      // Either the profile says "later" or free primary slots disagreed
      // (should not happen — profile mirrors the machine); reserve at the
      // computed start so later jobs cannot displace this one. A job that
      // needs a down node starts "later" at kTimeInfinity / 2, where
      // build_profile_into ends the down nodes' reservations, so it blocks
      // no one until the node returns.
      profile_.reserve(start, start + job.walltime_limit, job.nodes);
      leftover_.push_back(id);
    }
  }
  return leftover_;
}

void ConservativeBackfillScheduler::schedule(SchedulerHost& host) {
  (void)conservative_pass(host);
}

// --- Co-allocation-aware conservative backfill (this repo's extension) -----------------

void CoConservativeScheduler::schedule(SchedulerHost& host) {
  // Leftovers are pending: the pass started none of them, and this loop
  // starts each at most once.
  const std::vector<JobId>& leftover = conservative_pass(host);
  for (JobId id : leftover) {
    if (auto nodes = co_.select_nodes(host, id, /*respect_deadline=*/true)) {
      host.start_secondary(id, *nodes);
    }
  }
}

// --- Co-allocation-aware first fit -------------------------------------------------

void CoFirstFitScheduler::schedule(SchedulerHost& host) {
  queue_.assign(host.pending().begin(), host.pending().end());
  for (JobId id : queue_) {
    if (try_start_primary(host, id)) continue;
    if (auto nodes =
            co_.select_nodes(host, id, /*respect_deadline=*/false)) {
      host.start_secondary(id, *nodes);
    }
  }
}

// --- Co-allocation-aware backfill ---------------------------------------------------

void CoBackfillScheduler::schedule(SchedulerHost& host) {
  // Phases 1-2: plain EASY. Co-allocations never invalidate its math: they
  // consume no primary slots and the deadline gate keeps every secondary
  // within its hosts' walltime bounds.
  const std::vector<JobId>& leftover = easy_pass(host);

  // Phase 3: co-allocation pass over the leftovers, queue order. They are
  // all pending: phases 1-2 started none of them, and this loop starts
  // each at most once.
  for (JobId id : leftover) {
    if (auto nodes = co_.select_nodes(host, id, /*respect_deadline=*/true)) {
      host.start_secondary(id, *nodes);
    }
  }
}

// --- Factory -------------------------------------------------------------------------

const char* to_string(GateMode mode) {
  switch (mode) {
    case GateMode::kOracle: return "oracle";
    case GateMode::kClassRule: return "class-rule";
    case GateMode::kLearned: return "learned";
  }
  return "?";
}

const char* to_string(StrategyKind kind) {
  switch (kind) {
    case StrategyKind::kFcfs: return "fcfs";
    case StrategyKind::kFirstFit: return "firstfit";
    case StrategyKind::kEasyBackfill: return "easy";
    case StrategyKind::kConservativeBackfill: return "conservative";
    case StrategyKind::kCoFirstFit: return "cofirstfit";
    case StrategyKind::kCoBackfill: return "cobackfill";
    case StrategyKind::kCoConservative: return "coconservative";
  }
  return "?";
}

StrategyKind parse_strategy(const std::string& name) {
  std::string lower;
  lower.reserve(name.size());
  for (char c : name) {
    lower += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  for (StrategyKind kind : all_strategies()) {
    if (lower == to_string(kind)) return kind;
  }
  throw Error("unknown strategy '" + name +
              "' (want fcfs|firstfit|easy|conservative|cofirstfit|"
              "cobackfill|coconservative)");
}

std::vector<StrategyKind> all_strategies() {
  return {StrategyKind::kFcfs,
          StrategyKind::kFirstFit,
          StrategyKind::kEasyBackfill,
          StrategyKind::kConservativeBackfill,
          StrategyKind::kCoFirstFit,
          StrategyKind::kCoBackfill,
          StrategyKind::kCoConservative};
}

bool is_co_strategy(StrategyKind kind) {
  return kind == StrategyKind::kCoFirstFit ||
         kind == StrategyKind::kCoBackfill ||
         kind == StrategyKind::kCoConservative;
}

std::unique_ptr<Scheduler> make_scheduler(StrategyKind kind,
                                          SchedulerOptions options) {
  switch (kind) {
    case StrategyKind::kFcfs:
      return std::make_unique<FcfsScheduler>();
    case StrategyKind::kFirstFit:
      return std::make_unique<FirstFitScheduler>();
    case StrategyKind::kEasyBackfill:
      return std::make_unique<EasyBackfillScheduler>(
          options.use_walltime_prediction, options.backfill_depth);
    case StrategyKind::kConservativeBackfill:
      return std::make_unique<ConservativeBackfillScheduler>();
    case StrategyKind::kCoFirstFit:
      return std::make_unique<CoFirstFitScheduler>(options.co);
    case StrategyKind::kCoBackfill:
      return std::make_unique<CoBackfillScheduler>(
          options.co, options.use_walltime_prediction,
          options.backfill_depth);
    case StrategyKind::kCoConservative:
      return std::make_unique<CoConservativeScheduler>(options.co);
  }
  COSCHED_CHECK(false);
  return nullptr;
}

}  // namespace cosched::core
