#include "dp/laplace.hpp"

#include <cmath>
#include <stdexcept>

namespace aegis::dp {

std::string_view to_string(MechanismKind k) noexcept {
  switch (k) {
    case MechanismKind::kLaplace: return "Laplace";
    case MechanismKind::kDStar: return "d*";
    case MechanismKind::kUniformRandom: return "UniformRandom";
    case MechanismKind::kConstantOutput: return "ConstantOutput";
  }
  return "?";
}

LaplaceMechanism::LaplaceMechanism(double epsilon, double sensitivity,
                                   std::uint64_t seed)
    : epsilon_(epsilon), sensitivity_(sensitivity), rng_(seed) {
  if (!(std::isfinite(epsilon) && epsilon > 0.0) ||
      !(std::isfinite(sensitivity) && sensitivity > 0.0)) {
    throw std::invalid_argument(
        "LaplaceMechanism: epsilon and sensitivity must be finite and > 0");
  }
}

// aegis-rng: stream(laplace-noisy-value)
double LaplaceMechanism::noisy_value(double x_t) {
  return x_t + rng_.laplace(0.0, scale());
}

void LaplaceMechanism::reset() {}  // i.i.d. noise; no per-series state

}  // namespace aegis::dp
