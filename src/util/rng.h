// Deterministic, fast random number generation for workload synthesis.
//
// All randomness in fbedge flows through Rng so that every experiment is
// reproducible from a single seed. The engine is xoshiro256++, which is far
// faster than std::mt19937_64 and has excellent statistical quality for
// simulation workloads.
#pragma once

#include <cstdint>
#include <cmath>
#include <limits>

#include "util/ids.h"

namespace fbedge {

/// xoshiro256++ PRNG (Blackman & Vigna). Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) { reseed(seed); }

  /// Re-initializes the state from a single 64-bit seed via splitmix64.
  void reseed(std::uint64_t seed) {
    for (auto& word : state_) {
      seed += 0x9e3779b97f4a7c15ULL;
      std::uint64_t z = seed;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      word = z ^ (z >> 31);
    }
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return std::numeric_limits<result_type>::max(); }

  result_type operator()() {
    const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() { return static_cast<double>((*this)() >> 11) * 0x1.0p-53; }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [lo, hi] (inclusive).
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(uniform() * static_cast<double>(hi - lo + 1));
  }

  /// Bernoulli trial with success probability p.
  bool bernoulli(double p) { return uniform() < p; }

  /// Standard normal via Box-Muller (no cached spare; simplicity over speed).
  double normal() {
    double u1 = uniform();
    while (u1 <= 1e-300) u1 = uniform();
    const double u2 = uniform();
    return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
  }

  double normal(double mean, double stddev) { return mean + stddev * normal(); }

  /// Consumes exactly the draws normal() would (its u1 redraw rule
  /// included) without computing the value: the count-only cursor skips
  /// in workload/generator.h replay a draw sequence this way.
  void skip_normal() {
    while (uniform() <= 1e-300) {
    }
    (*this)();
  }

  /// Lognormal with given parameters of the underlying normal.
  double lognormal(double mu, double sigma) { return std::exp(normal(mu, sigma)); }

  /// Exponential with the given mean (not rate).
  double exponential(double mean) {
    double u = uniform();
    while (u <= 1e-300) u = uniform();
    return -mean * std::log(u);
  }

  /// Consumes exactly the draws exponential() would, without the log.
  void skip_exponential() {
    while (uniform() <= 1e-300) {
    }
  }

  /// Pareto with scale xm > 0 and shape alpha > 0.
  double pareto(double xm, double alpha) {
    double u = uniform();
    while (u <= 1e-300) u = uniform();
    return xm / std::pow(u, 1.0 / alpha);
  }

  /// Derives an independent child generator; use to give each entity
  /// (session, prefix, window) its own stream without correlation.
  Rng fork() { return Rng((*this)() ^ 0xd1b54a32d192ed03ULL); }

  /// Same state: both generators produce the same sequence from here on.
  bool operator==(const Rng&) const = default;

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t state_[4]{};
};

/// Derives the deterministic Rng stream for entity `key` of an experiment
/// seeded with `seed`. The stream depends on (seed, key) only — never on
/// which shard or thread processes the entity, or in what order — which is
/// what lets the sharded runtime replay any entity's randomness exactly.
/// DatasetGenerator uses this per user group; the sharded pipeline relies
/// on it for thread-count-independent results.
inline Rng entity_stream(std::uint64_t seed, std::uint64_t key) {
  return Rng(hash_mix(seed ^ key));
}

}  // namespace fbedge
