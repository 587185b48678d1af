// Deterministic random number generation for the simulator.
//
// We carry our own PCG32 implementation instead of <random> engines because
// (a) its output is specified, so simulation results are reproducible across
// standard-library implementations, and (b) each subsystem draws from its
// own stream of a (seed, stream) pair, keeping experiments with shared
// seeds comparable even when one subsystem draws more numbers.
#pragma once

#include <cstdint>
#include <vector>

#include "util/check.hpp"

namespace cosched {

/// SplitMix64 finalizer: a bijective avalanche mix of `x` (Steele et al.,
/// "Fast splittable pseudorandom number generators"). Every output bit
/// depends on every input bit, so consecutive inputs give statistically
/// independent outputs.
std::uint64_t splitmix64(std::uint64_t x);

/// Derives the seed for experiment cell `cell` of a sweep rooted at
/// `base`. Raw loop indices (1, 2, 3, ...) are low-entropy seeds; routing
/// (base, cell) through SplitMix64 decorrelates the per-cell RNG streams
/// while keeping the derivation pure, so sweeps stay reproducible and the
/// same cell index yields the same seed across configs (paired-seed
/// comparisons remain valid). The exact values are pinned by a test —
/// changing this function invalidates tests/golden/*.json.
std::uint64_t derive_seed(std::uint64_t base, std::uint64_t cell);

/// PCG32 (Melissa O'Neill's pcg32_random_r): 64-bit state, 32-bit output,
/// period 2^64 per stream, 2^63 selectable streams.
class Pcg32 {
 public:
  /// Seeds the generator. Distinct `stream` values give statistically
  /// independent sequences for the same `seed`.
  explicit Pcg32(std::uint64_t seed = 0x853c49e6748fea9bULL,
                 std::uint64_t stream = 0xda3e39cb94b95bdbULL);

  /// Returns the next raw 32-bit value.
  std::uint32_t next_u32();

  /// Returns an unbiased integer in [0, bound). Requires bound > 0.
  std::uint32_t next_below(std::uint32_t bound);

  /// Returns a double uniformly distributed in [0, 1).
  double next_double();

  // --- Distributions -------------------------------------------------------

  /// Uniform real in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Exponential with given rate (mean 1/rate). Requires rate > 0.
  double exponential(double rate);

  /// Log-normal with parameters of the underlying normal.
  double lognormal(double mu, double sigma);

  /// Standard normal via Box-Muller (no cached spare: deterministic draws).
  double normal(double mean, double stddev);

  /// Returns true with probability p.
  bool bernoulli(double p);

  /// Samples an index according to non-negative weights (sum > 0).
  std::size_t weighted_index(const std::vector<double>& weights);

 private:
  std::uint64_t state_;
  std::uint64_t inc_;
};

}  // namespace cosched
