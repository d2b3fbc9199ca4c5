#include "dp/baselines.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "dp/dstar.hpp"
#include "dp/laplace.hpp"

namespace aegis::dp {

UniformRandomMechanism::UniformRandomMechanism(double bound, std::uint64_t seed)
    : bound_(bound), rng_(seed) {
  if (!(std::isfinite(bound) && bound >= 0.0)) {
    throw std::invalid_argument(
        "UniformRandomMechanism: bound must be finite and >= 0");
  }
}

// aegis-rng: stream(baselines-noisy-value)
double UniformRandomMechanism::noisy_value(double x_t) {
  return x_t + rng_.uniform(0.0, bound_);
}

ConstantOutputMechanism::ConstantOutputMechanism(double level) : level_(level) {
  if (!std::isfinite(level)) {
    throw std::invalid_argument(
        "ConstantOutputMechanism: level must be finite");
  }
}

double ConstantOutputMechanism::noisy_value(double x_t) {
  return std::max(x_t, level_);
}

std::unique_ptr<NoiseMechanism> make_mechanism(const MechanismConfig& config) {
  switch (config.kind) {
    case MechanismKind::kLaplace:
      return std::make_unique<LaplaceMechanism>(config.epsilon,
                                                config.sensitivity, config.seed);
    case MechanismKind::kDStar:
      return std::make_unique<DStarMechanism>(config.epsilon, config.seed);
    case MechanismKind::kUniformRandom:
      return std::make_unique<UniformRandomMechanism>(config.uniform_bound,
                                                      config.seed);
    case MechanismKind::kConstantOutput:
      return std::make_unique<ConstantOutputMechanism>(config.constant_level);
  }
  throw std::invalid_argument("make_mechanism: unknown kind");
}

}  // namespace aegis::dp
