#include "dp/dstar.hpp"

#include <cmath>
#include <stdexcept>

namespace aegis::dp {

std::uint64_t largest_dividing_pow2(std::uint64_t t) noexcept {
  return t == 0 ? 0 : (t & (~t + 1));  // lowest set bit
}

std::uint64_t dstar_parent(std::uint64_t t) noexcept {
  if (t <= 1) return 0;
  const std::uint64_t d = largest_dividing_pow2(t);
  if (t == d) return t / 2;   // t is a power of two
  return t - d;               // t > D(t)
}

DStarMechanism::DStarMechanism(double epsilon, std::uint64_t seed)
    : epsilon_(epsilon), rng_(seed) {
  if (!(std::isfinite(epsilon) && epsilon > 0.0)) {
    throw std::invalid_argument(
        "DStarMechanism: epsilon must be finite and > 0");
  }
  reset();
}

void DStarMechanism::reset() {
  x_.assign(1, 0.0);      // x[0] = 0
  noisy_.assign(1, 0.0);  // x~[0] = 0
}

// aegis-rng: stream(dstar-noisy-value)
double DStarMechanism::noisy_value(double x_t) {
  const std::uint64_t t = x_.size();  // next index (1-based)
  x_.push_back(x_t);
  const std::uint64_t d = largest_dividing_pow2(t);
  double scale;
  if (t == d) {
    scale = 1.0 / epsilon_;
  } else {
    const double log2_t = std::floor(std::log2(static_cast<double>(t)));
    scale = log2_t / epsilon_;
  }
  const double r_t = rng_.laplace(0.0, scale);
  const std::uint64_t g = dstar_parent(t);
  const double value = noisy_[g] + (x_t - x_[g]) + r_t;
  noisy_.push_back(value);
  return value;
}

}  // namespace aegis::dp
