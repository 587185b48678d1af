#include "util/rng.hpp"

#include <cmath>
#include <numbers>

namespace cosched {

std::uint64_t splitmix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

std::uint64_t derive_seed(std::uint64_t base, std::uint64_t cell) {
  // The golden-ratio increment is SplitMix64's stream step; offsetting by
  // (cell + 1) keeps cell 0 distinct from the bare base seed.
  return splitmix64(base + (cell + 1) * 0x9e3779b97f4a7c15ULL);
}

Pcg32::Pcg32(std::uint64_t seed, std::uint64_t stream)
    : state_(0), inc_((stream << 1u) | 1u) {
  next_u32();
  state_ += seed;
  next_u32();
}

std::uint32_t Pcg32::next_u32() {
  const std::uint64_t old = state_;
  state_ = old * 6364136223846793005ULL + inc_;
  const auto xorshifted =
      static_cast<std::uint32_t>(((old >> 18u) ^ old) >> 27u);
  const auto rot = static_cast<std::uint32_t>(old >> 59u);
  return (xorshifted >> rot) | (xorshifted << ((32u - rot) & 31u));
}

std::uint32_t Pcg32::next_below(std::uint32_t bound) {
  COSCHED_CHECK(bound > 0);
  // Debiased modulo (Lemire-style rejection on the low range).
  const std::uint32_t threshold = (-bound) % bound;
  for (;;) {
    const std::uint32_t r = next_u32();
    if (r >= threshold) return r % bound;
  }
}

double Pcg32::next_double() {
  // 32 bits of entropy is enough resolution for simulation draws and keeps
  // one state advance per double, which makes stream accounting simple.
  return static_cast<double>(next_u32()) * 0x1.0p-32;
}

double Pcg32::uniform(double lo, double hi) {
  COSCHED_CHECK(lo <= hi);
  return lo + (hi - lo) * next_double();
}

std::int64_t Pcg32::uniform_int(std::int64_t lo, std::int64_t hi) {
  COSCHED_CHECK(lo <= hi);
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) {  // full 64-bit range requested
    return static_cast<std::int64_t>(
        (static_cast<std::uint64_t>(next_u32()) << 32) | next_u32());
  }
  if (span <= 0xffffffffULL) {
    return lo + static_cast<std::int64_t>(
                    next_below(static_cast<std::uint32_t>(span)));
  }
  // Rare wide-range case: rejection sample over 64 bits.
  const std::uint64_t limit = ~0ULL - (~0ULL % span);
  for (;;) {
    const std::uint64_t r =
        (static_cast<std::uint64_t>(next_u32()) << 32) | next_u32();
    if (r < limit) return lo + static_cast<std::int64_t>(r % span);
  }
}

double Pcg32::exponential(double rate) {
  COSCHED_CHECK(rate > 0);
  // 1 - U in (0, 1] avoids log(0).
  return -std::log(1.0 - next_double()) / rate;
}

double Pcg32::lognormal(double mu, double sigma) {
  return std::exp(normal(mu, sigma));
}

double Pcg32::normal(double mean, double stddev) {
  const double u1 = 1.0 - next_double();  // (0, 1]
  const double u2 = next_double();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  return mean + stddev * radius * std::cos(2.0 * std::numbers::pi * u2);
}

bool Pcg32::bernoulli(double p) { return next_double() < p; }

std::size_t Pcg32::weighted_index(const std::vector<double>& weights) {
  double total = 0;
  for (double w : weights) {
    COSCHED_CHECK(w >= 0);
    total += w;
  }
  COSCHED_CHECK(total > 0);
  double x = next_double() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    x -= weights[i];
    if (x < 0) return i;
  }
  return weights.size() - 1;  // floating-point edge: last positive weight
}

}  // namespace cosched
