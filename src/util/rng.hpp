// Deterministic pseudo-random number generation for the Aegis simulator.
//
// Every stochastic component in the library (PMU noise, workload jitter,
// DP noise sampling, fuzzing order) draws from an aegis::util::Rng seeded
// explicitly by the caller, so that experiments are reproducible run-to-run
// and results can be compared against EXPERIMENTS.md.
#pragma once

#include <cstdint>
#include <vector>
#include <algorithm>
#include <cstddef>

namespace aegis::util {

/// SplitMix64 step; used to expand a single 64-bit seed into stream state.
std::uint64_t split_mix64(std::uint64_t& state) noexcept;

/// Derives the seed of an independent child stream: splittable-RNG
/// construction where stream i starts from `seed` offset by (i+1) golden
/// gammas and takes one SplitMix64 output. Used to give every shard of a
/// parallel campaign its own deterministic stream — results depend only on
/// (seed, stream), never on which thread runs the shard. Feed the result to
/// Rng's constructor. Streams are pairwise uncorrelated (see util_test's
/// chi-square coverage).
std::uint64_t split_mix64(std::uint64_t seed, std::uint64_t stream) noexcept;

/// xoshiro256** PRNG (Blackman & Vigna). Fast, 256-bit state, suitable for
/// simulation workloads; not cryptographically secure (not needed here).
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  /// Uniform 64-bit value.
  std::uint64_t next_u64() noexcept;

  // UniformRandomBitGenerator interface so Rng works with <algorithm>.
  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ULL; }
  result_type operator()() noexcept { return next_u64(); }

  /// Uniform double in [0, 1).
  double uniform() noexcept;

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept;

  /// Uniform integer in [0, n). Requires n > 0.
  std::uint64_t uniform_index(std::uint64_t n) noexcept;

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept;

  /// Standard normal via Box-Muller (cached second deviate).
  double normal() noexcept;

  /// Normal with the given mean and standard deviation.
  double normal(double mean, double stddev) noexcept;

  /// Exponential with the given rate lambda (> 0).
  double exponential(double lambda) noexcept;

  /// Laplace(mu, b) via inverse CDF of a single uniform draw. This is the
  /// same uniform->Laplace transform the paper's noise calculator uses to
  /// avoid library-API latency (Section VII-C).
  double laplace(double mu, double b) noexcept;

  /// Bernoulli trial with probability p of returning true.
  bool bernoulli(double p) noexcept;

  /// Poisson-distributed count (Knuth for small lambda, normal approx above).
  std::uint64_t poisson(double lambda) noexcept;

  /// The same draw with Knuth's stopping limit supplied by the caller:
  /// `limit` must be std::exp(-lambda). Callers drawing at a constant rate
  /// compute it once instead of once per draw; the draws and their bits
  /// are those of poisson(lambda).
  std::uint64_t poisson(double lambda, double limit) noexcept;

  /// Derive an independent child generator; used to give each simulated
  /// entity (site, VM, event) its own stream without cross-correlation.
  Rng fork() noexcept;

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) noexcept {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(uniform_index(i));
      std::swap(v[i - 1], v[j]);
    }
  }

  /// Pick a uniformly random element. Requires non-empty v.
  template <typename T>
  const T& pick(const std::vector<T>& v) noexcept {
    return v[static_cast<std::size_t>(uniform_index(v.size()))];
  }

 private:
  std::uint64_t s_[4];
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace aegis::util
