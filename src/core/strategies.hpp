// Concrete scheduling strategies. Baselines implement their standard
// published behaviour; the Co* variants add SMT co-allocation gated by
// CoAllocator (see DESIGN.md).
#pragma once

#include "core/pairing.hpp"
#include "core/profile.hpp"
#include "core/scheduler.hpp"

namespace cosched::core {

/// Strict queue order; the head blocks everything behind it.
class FcfsScheduler final : public Scheduler {
 public:
  std::string name() const override { return "fcfs"; }
  void schedule(SchedulerHost& host) override;

 private:
  std::vector<JobId> queue_;  ///< per-pass scratch, reused across passes
};

/// Scans the whole queue and starts anything that fits now.
class FirstFitScheduler final : public Scheduler {
 public:
  std::string name() const override { return "firstfit"; }
  void schedule(SchedulerHost& host) override;

 private:
  std::vector<JobId> queue_;  ///< per-pass scratch, reused across passes
};

/// EASY backfill (Lifka): reservation for the head job; later jobs may
/// start if they end by the shadow time or fit in the extra nodes.
class EasyBackfillScheduler : public Scheduler {
 public:
  explicit EasyBackfillScheduler(bool use_prediction = false,
                                 int backfill_depth = 0)
      : use_prediction_(use_prediction), backfill_depth_(backfill_depth) {}
  std::string name() const override { return "easy"; }
  void schedule(SchedulerHost& host) override;

 protected:
  /// Runs head starts + primary backfill; returns the pending ids that
  /// remain. The result references a scratch member reused across passes
  /// (valid until the next easy_pass call on this scheduler).
  const std::vector<JobId>& easy_pass(SchedulerHost& host);

 private:
  /// Candidate-end test uses predicted runtimes instead of raw requests.
  bool use_prediction_;
  /// Max candidates examined behind the head; 0 = unlimited.
  int backfill_depth_;
  // Per-pass scratch, reused across passes so steady-state passes stop
  // allocating once capacity reaches the queue's working-set size.
  std::vector<JobId> queue_;
  std::vector<JobId> leftover_;
};

/// Conservative backfill: a reservation for every queued job; a job may
/// only start now if that does not displace any earlier reservation.
class ConservativeBackfillScheduler : public Scheduler {
 public:
  std::string name() const override { return "conservative"; }
  void schedule(SchedulerHost& host) override;

 protected:
  /// Runs the reservation pass; returns the pending ids that remain. The
  /// result references a scratch member reused across passes (valid until
  /// the next conservative_pass call on this scheduler).
  const std::vector<JobId>& conservative_pass(SchedulerHost& host);

 private:
  // Per-pass scratch, reused across passes: the queue snapshot, the
  // leftover list, and the availability profile's breakpoint storage.
  std::vector<JobId> queue_;
  std::vector<JobId> leftover_;
  AvailabilityProfile profile_{0, 0};
};

/// First fit extended with co-allocation: a job that cannot claim free
/// nodes may start on admissible SMT secondary slots.
class CoFirstFitScheduler final : public Scheduler {
 public:
  explicit CoFirstFitScheduler(CoAllocationOptions options)
      : co_(options) {}
  std::string name() const override { return "cofirstfit"; }
  void schedule(SchedulerHost& host) override;

 private:
  CoAllocator co_;
  std::vector<JobId> queue_;  ///< per-pass scratch, reused across passes
};

/// EASY backfill extended with a co-allocation pass: jobs left pending
/// after primary backfill may start on secondary slots, gated so the head
/// reservation's walltime bounds stay valid (respect_deadline).
class CoBackfillScheduler final : public EasyBackfillScheduler {
 public:
  CoBackfillScheduler(CoAllocationOptions options,
                      bool use_prediction = false, int backfill_depth = 0)
      : EasyBackfillScheduler(use_prediction, backfill_depth),
        co_(options) {}
  std::string name() const override { return "cobackfill"; }
  void schedule(SchedulerHost& host) override;

 private:
  CoAllocator co_;
};

/// Conservative backfill extended with the co-allocation pass — this
/// repo's extension completing the strategy matrix. Co-allocations never
/// disturb conservative reservations for the same reason they never
/// disturb the EASY shadow: they consume no primary slots and the
/// deadline gate keeps secondaries inside their hosts' walltime bounds.
class CoConservativeScheduler final : public ConservativeBackfillScheduler {
 public:
  explicit CoConservativeScheduler(CoAllocationOptions options)
      : co_(options) {}
  std::string name() const override { return "coconservative"; }
  void schedule(SchedulerHost& host) override;

 private:
  CoAllocator co_;
};

}  // namespace cosched::core
