// Share-nothing parallel experiment runner.
//
// Simulation cells — one (seed, config) pair each — are deterministic and
// fully independent: run_simulation touches no global mutable state, so a
// sweep of N cells parallelizes embarrassingly. ParallelRunner fans cells
// out over a fixed pool of worker threads (no work stealing: workers claim
// the next unclaimed cell index from a shared atomic counter) and writes
// each result into a slot pre-addressed by submission index, so collected
// results are in submission order regardless of completion order and the
// output is bit-identical for every thread count. tests/runner_test.cpp
// pins that contract: per-cell metrics AND audit event-stream digests match
// a serial reference run cell-for-cell at 1, 2, and 8 threads.
//
// This is the only place in the tree allowed to spawn threads; the project
// lint's `no-raw-thread` rule rejects bare std::thread elsewhere.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "apps/catalog.hpp"
#include "slurmlite/simulation.hpp"

namespace cosched::runner {

/// The most workers a --threads flag may ask for; each is an OS thread.
inline constexpr int kMaxThreads = 256;

/// Resolves a --threads request: values > 0 pass through; 0 (the default)
/// means std::thread::hardware_concurrency(), floored at 1.
int resolve_threads(int requested);

class ParallelRunner {
 public:
  /// Spawns `threads` workers (0 = hardware_concurrency). With a resolved
  /// count of 1 no thread is spawned and cells run inline on the caller —
  /// the serial reference the parity tests compare against.
  explicit ParallelRunner(int threads = 0);
  ~ParallelRunner();
  ParallelRunner(const ParallelRunner&) = delete;
  ParallelRunner& operator=(const ParallelRunner&) = delete;

  int threads() const { return threads_; }

  /// Runs fn(i) once for every i in [0, count), spread over the pool, and
  /// returns when all cells finished. Cells must not touch shared mutable
  /// state (share-nothing contract). If any cell throws, the exception of
  /// the lowest-indexed failing cell is rethrown on the caller after the
  /// batch drains — the same exception a serial loop would surface first.
  void for_each(std::size_t count, const std::function<void(std::size_t)>& fn);

  /// for_each with a result slot per cell, collected in submission order.
  template <typename R>
  std::vector<R> map(std::size_t count,
                     const std::function<R(std::size_t)>& fn) {
    std::vector<R> out(count);
    for_each(count, [&](std::size_t i) { out[i] = fn(i); });
    return out;
  }

 private:
  void worker_loop();
  /// Claims cells until the batch is exhausted; records the first error.
  /// Entered and left with `lock` (over mu_) held.
  void drain_batch(std::unique_lock<std::mutex>& lock);

  const int threads_;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable work_cv_;  // workers wait for a new batch
  std::condition_variable done_cv_;  // for_each waits for batch completion
  // Current batch, all guarded by mu_ except next_ which workers race on.
  const std::function<void(std::size_t)>* fn_ = nullptr;
  std::size_t count_ = 0;
  std::size_t next_ = 0;       // next unclaimed cell (guarded by mu_)
  std::size_t in_flight_ = 0;  // claimed but not yet finished
  std::uint64_t batch_ = 0;    // bumped per for_each so workers wake once
  bool stop_ = false;
  bool failed_ = false;
  std::size_t error_cell_ = 0;
  std::exception_ptr error_;
};

/// Runs `cells` simulations of `proto` over the pool, cell c seeded with
/// derive_seed(base_seed, c) (util/rng.hpp). Results are in cell order.
std::vector<slurmlite::SimulationResult> run_seed_sweep(
    ParallelRunner& pool, const slurmlite::SimulationSpec& proto,
    const apps::Catalog& catalog, std::uint64_t base_seed, int cells);

/// Runs one simulation per spec over the pool; results are in spec order.
std::vector<slurmlite::SimulationResult> run_specs(
    ParallelRunner& pool, const std::vector<slurmlite::SimulationSpec>& specs,
    const apps::Catalog& catalog);

}  // namespace cosched::runner
