// Availability profile: the free-node count as a step function of time.
//
// Backfill schedulers build one from the running jobs' walltime ends, then
// carve out reservations to answer "when is the earliest time a job of
// size n can run for duration d?". Conservative backfill keeps carving for
// every queued job; EASY only for the head.
#pragma once

#include <vector>

#include "util/types.hpp"

namespace cosched::core {

class AvailabilityProfile {
 public:
  /// Starts with `total_nodes` free from `origin` to infinity.
  AvailabilityProfile(int total_nodes, SimTime origin);

  /// Re-initializes to `total_nodes` free from `origin`, keeping the step
  /// storage's capacity so a scheduler can reuse one instance across
  /// passes instead of reallocating the breakpoint vector every pass.
  void reset(int total_nodes, SimTime origin);

  int total_nodes() const { return total_; }

  /// Free nodes at time t (t >= origin).
  int free_at(SimTime t) const;

  /// Removes `count` nodes over [from, to). May drive segments negative if
  /// the caller over-reserves.
  void reserve(SimTime from, SimTime to, int count);

  /// Earliest t >= earliest with `count` nodes free throughout
  /// [t, t + duration); kTimeInfinity if none exists (count > total).
  SimTime find_start(SimTime earliest, SimDuration duration, int count) const;

  /// Breakpoints (time, free-count), for tests and debugging.
  const std::vector<std::pair<SimTime, int>>& steps() const { return steps_; }

 private:
  int total_;
  /// Sorted (time, free) pairs; the value holds until the next breakpoint,
  /// the last holds forever.
  std::vector<std::pair<SimTime, int>> steps_;

  /// Index of the step active at time t.
  std::size_t step_index(SimTime t) const;
  /// Ensures a breakpoint exists exactly at t; returns its index.
  std::size_t split_at(SimTime t);
};

}  // namespace cosched::core
