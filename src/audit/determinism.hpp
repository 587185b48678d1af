// Determinism checking: hash a simulation's event/decision stream and
// compare two same-seed runs.
//
// EventStreamHasher folds every executed event (time, priority, insertion
// id) into an FNV-1a digest through the engine observer seam; the caller
// then folds the final per-job decision records on top (mix_jobs). Two
// runs of the same seeded spec must agree on the digest bit-for-bit —
// check_determinism runs the caller-supplied runner twice and reports
// divergence. slurmlite::check_determinism wires this to run_simulation;
// `cosched audit` exposes it on the command line.
#pragma once

#include <cstdint>
#include <functional>

#include "audit/fnv.hpp"
#include "sim/engine.hpp"
#include "workload/job.hpp"

namespace cosched::audit {

class EventStreamHasher final : public sim::EventObserver {
 public:
  void on_event_executed(SimTime when, sim::EventPriority priority,
                         sim::EventId id, const char* /*label*/) override {
    // The label deliberately stays out of the digest: it is observability
    // metadata, and relabeling a schedule site must not change digests.
    hash_.mix_i64(when)
        .mix_byte(static_cast<std::uint8_t>(priority))
        .mix_u64(id);
    ++events_;
  }

  /// Access for folding in non-event decisions (job records, stats).
  Fnv64& hash() { return hash_; }
  std::uint64_t digest() const { return hash_.digest(); }
  std::size_t events() const { return events_; }

 private:
  Fnv64 hash_;
  std::size_t events_ = 0;
};

/// FNV-1a digest of one job's decision-visible lifecycle record, computed
/// from a fresh offset basis. The per-job subdigest is the unit the run
/// digest is built from: mix_jobs folds the job count and then each job's
/// subdigest in submit order. Retire-mode runs (Controller retiring
/// finished-job state to keep memory flat) compute the same subdigest at
/// the moment a job reaches its final state and store only the 8-byte
/// value, so a retired run reproduces the exact digest of a
/// record-keeping one without keeping any job record alive.
std::uint64_t job_subdigest(const workload::Job& job);

/// Folds every job's decision-visible lifecycle record into `hash`:
/// the job count, then each job's subdigest in list (submit) order.
void mix_jobs(Fnv64& hash, const workload::JobList& jobs);

/// One run's digest: the event-stream hash and how many events produced it.
struct RunDigest {
  std::uint64_t hash = 0;
  std::size_t events = 0;

  bool operator==(const RunDigest& other) const = default;
};

struct DeterminismReport {
  RunDigest first;
  RunDigest second;

  bool deterministic() const { return first == second; }
};

/// Invokes `run_once` twice (same inputs — the runner must re-seed itself)
/// and compares the digests.
DeterminismReport check_determinism(
    const std::function<RunDigest()>& run_once);

}  // namespace cosched::audit
