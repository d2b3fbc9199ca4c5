#include "obf/noise_calculator.hpp"

namespace aegis::obf {

NoiseCalculator::NoiseCalculator(dp::MechanismConfig config)
    : config_(config),
      mechanism_(dp::make_mechanism(config)),
      rng_(config.seed ^ 0xCA1CULL) {}

// aegis-rng: stream(noise-calculator-noise-for)
double NoiseCalculator::noise_for(double x_t) {
  if (config_.kind == dp::MechanismKind::kLaplace) {
    // Input-independent noise: one direct-transform draw per call.
    return rng_.laplace(0.0, config_.sensitivity / config_.epsilon);
  }
  return mechanism_->noisy_value(x_t) - x_t;
}

}  // namespace aegis::obf
