// Co-allocation policy: which pending job may share which busy nodes.
//
// The gate has three parts (DESIGN.md "Core contribution"):
//   1. consent  — both the candidate and every job already on the node are
//      marked shareable;
//   2. benefit  — the interference model predicts node combined throughput
//      of at least 1 + theta per extra job (theta = pairing_threshold);
//   3. safety   — no job's predicted dilation exceeds max_dilation, and
//      (when the caller asks, as CoBackfill does) the candidate's walltime
//      end does not outlive any primary it would join, so backfill
//      reservations computed from walltime bounds stay valid.
//
// select_nodes() answers from a gate table (DESIGN.md "Per-pass gate
// tables") instead of re-gating every node with a free secondary slot.
// The table groups those nodes by resident signature — the resident apps
// in slot order, up to the first resident that refuses sharing — and
// keeps each group sorted by fence end F, the earliest resident walltime
// end in that prefix. Apart from the walltime fence, the gate's verdict
// is a function of (signature, candidate app), so one binary search per
// group yields exactly the scanned/admissible counts and per-reason
// tallies of a node-by-node scan, and every co_decision trace record
// keeps its bytes (tests/co_scan_fuzz_test.cpp checks this against that
// scan). When the machine changes, only the nodes stamped since the last
// refresh are filed again and merged into the rows that were kept.
//
// On a fixed table an app's admissible count can only fall as the
// candidate's walltime end E grows (more rows meet the fence). So a walk
// that rejects a candidate of an app because only k rows clear its end E
// also answers every later candidate of that app wanting more than k
// nodes with an E no earlier. Such held rejections answer without walking
// the table until the machine changes (DESIGN.md "Held rejections").
// Learned verdicts and observed calls (tracer or registry attached)
// always walk.
#pragma once

#include <compare>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/scheduler.hpp"
#include "obs/trace.hpp"

namespace cosched::core {

class CoAllocator {
 public:
  explicit CoAllocator(CoAllocationOptions options);

  const CoAllocationOptions& options() const { return options_; }

  /// Chooses nodes for `candidate` as a secondary allocation: all
  /// admissible nodes ranked by predicted combined throughput (ties by
  /// node id for determinism), truncated to the job's node request.
  /// Returns nullopt when fewer admissible nodes exist than requested.
  std::optional<std::vector<NodeId>> select_nodes(
      SchedulerHost& host, JobId candidate, bool respect_deadline) const;

  /// Ranking score given to class-rule admits and learned-mode admits of
  /// unseen pairs (no quantitative prediction available).
  static constexpr double kLearnedFallbackScore = 1.0;

 private:
  /// The gate's answer for one (signature, candidate app): the node's
  /// predicted combined throughput when admitted, else the first fence
  /// the residents hit.
  struct Verdict {
    std::optional<double> score;
    obs::ReasonCode reason;
  };

  /// A resident signature: the prefix's apps in slot order, and whether a
  /// resident refusing to share ends the prefix. A blocked one rejects
  /// every candidate that clears the fence with kResidentNotShareable,
  /// whatever the apps.
  struct Signature {
    std::vector<const apps::AppModel*> apps;
    bool blocked = false;
    /// Oracle/class-rule verdicts by candidate AppId, filled on first use.
    std::vector<std::optional<Verdict>> verdicts;
  };

  /// One free-secondary node in the table, ordered by group, then F. A
  /// row stays valid until its node's generation stamp moves.
  struct Row {
    int sig;
    SimTime fence;  ///< F; infinite for an empty prefix
    NodeId node;
    auto operator<=>(const Row&) const = default;
  };

  /// The rows [begin, end) of one signature, ascending by (F, node).
  struct Group {
    int sig;
    std::size_t begin;
    std::size_t end;
  };

  /// Rows [begin, end) the current candidate is admitted to, all at one
  /// score (select_nodes scratch).
  struct Admitted {
    std::size_t begin;
    std::size_t end;
    double score;
  };

  /// A held rejection: fewer than `nodes` rows are admissible to the app
  /// at walltime end `end` (the lowest SimTime when no fence applied).
  struct Held {
    int nodes;
    SimTime end;
  };

  /// Brings rows_/groups_ up to the machine by re-filing the nodes stamped
  /// since the last refresh (every node on a new machine instance).
  void refresh_table(SchedulerHost& host) const;

  /// The node's row, read from the host; interns its signature.
  Row file_row(SchedulerHost& host, NodeId node) const;

  /// True when a held rejection of `app` with no more than `nodes` and an
  /// end no later than `end` answers this call. Drops every held
  /// rejection first if the machine changed or the clock ran backwards.
  bool held(const cluster::Machine& machine, SimTime now, AppId app,
            int nodes, SimTime end) const;

  /// Files on the app's front a rejection no held one answers.
  void hold(AppId app, int nodes, SimTime end) const;

  /// The verdict for signature `sig` and the candidate's app: memoized
  /// for the oracle and class-rule gates, worked out afresh in learned
  /// mode (the pair estimator learns while the machine stands still).
  /// Counts every evaluation actually performed into `evals`.
  Verdict verdict(SchedulerHost& host, int sig,
                  const apps::AppModel& cand_app, std::uint64_t& evals) const;

  /// The gate-mode rule itself over shareable residents in slot order.
  Verdict evaluate(SchedulerHost& host,
                   const std::vector<const apps::AppModel*>& residents,
                   const apps::AppModel& cand_app) const;

  CoAllocationOptions options_;

  // The table and its caches. A CoAllocator belongs to one scheduler,
  // which belongs to one simulation cell, so this mutable state needs no
  // synchronization. Buffers are reused across passes.
  /// Machine::instance_id() everything below describes; 0 = nothing yet.
  /// Distinct machines can share generation histories, so generation
  /// stamps alone cannot tell that the host switched machines.
  mutable std::uint64_t table_machine_ = 0;
  /// Machine::generation() rows_/groups_ describe; 0 = no rows yet.
  mutable std::uint64_t table_gen_ = 0;
  /// Interned signatures, indexed by id. Few exist (one per resident app
  /// mix), so interning is a linear search.
  mutable std::vector<Signature> sigs_;
  mutable std::vector<Row> rows_;
  mutable std::vector<Group> groups_;
  /// The machine state and clock the held rejections were filed under.
  mutable std::uint64_t held_machine_ = 0;
  mutable std::uint64_t held_gen_ = 0;
  mutable SimTime held_now_ = 0;
  /// Held rejections by candidate AppId, each app's a Pareto front:
  /// ascending by nodes, strictly descending by end.
  mutable std::vector<std::vector<Held>> held_;
  // Per-call scratch.
  mutable Signature sig_scratch_;
  mutable std::vector<Row> merged_;  ///< refresh_table's merge target
  mutable std::vector<Admitted> admitted_;
  mutable std::vector<std::pair<double, NodeId>> ranked_;  ///< (-score, node)
};

}  // namespace cosched::core
