#include "util/rng.hpp"

#include <cmath>
#include <numbers>

namespace aegis::util {

std::uint64_t split_mix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t split_mix64(std::uint64_t seed, std::uint64_t stream) noexcept {
  std::uint64_t state = seed + (stream + 1) * 0x9e3779b97f4a7c15ULL;
  return split_mix64(state);
}

namespace {
inline std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = split_mix64(sm);
}

std::uint64_t Rng::next_u64() noexcept {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() noexcept {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::uniform_index(std::uint64_t n) noexcept {
  // Lemire's nearly-divisionless bounded generation would be overkill here;
  // modulo bias is negligible for the n (<< 2^32) used in this library.
  return next_u64() % n;
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
  return lo + static_cast<std::int64_t>(
                  uniform_index(static_cast<std::uint64_t>(hi - lo + 1)));
}

double Rng::normal() noexcept {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = uniform();
  double u2 = uniform();
  while (u1 <= 1e-300) u1 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

double Rng::normal(double mean, double stddev) noexcept {
  return mean + stddev * normal();
}

double Rng::exponential(double lambda) noexcept {
  double u = uniform();
  while (u <= 1e-300) u = uniform();
  return -std::log(u) / lambda;
}

double Rng::laplace(double mu, double b) noexcept {
  // Inverse CDF: u ~ U(-1/2, 1/2); x = mu - b * sgn(u) * ln(1 - 2|u|).
  const double u = uniform() - 0.5;
  const double a = 1.0 - 2.0 * std::abs(u);
  const double clipped = a <= 1e-300 ? 1e-300 : a;
  return mu - b * (u < 0 ? -1.0 : 1.0) * std::log(clipped);
}

bool Rng::bernoulli(double p) noexcept { return uniform() < p; }

std::uint64_t Rng::poisson(double lambda) noexcept {
  return poisson(lambda, std::exp(-lambda));
}

std::uint64_t Rng::poisson(double lambda, double limit) noexcept {
  if (lambda <= 0.0) return 0;
  if (lambda < 30.0) {
    std::uint64_t k = 0;
    double p = 1.0;
    do {
      ++k;
      p *= uniform();
    } while (p > limit);
    return k - 1;
  }
  // Normal approximation with continuity correction for large lambda.
  const double x = normal(lambda, std::sqrt(lambda));
  return x < 0.5 ? 0 : static_cast<std::uint64_t>(x + 0.5);
}

// aegis-rng: stream(rng-fork)
Rng Rng::fork() noexcept { return Rng(next_u64() ^ 0xd1b54a32d192ed03ULL); }

}  // namespace aegis::util
