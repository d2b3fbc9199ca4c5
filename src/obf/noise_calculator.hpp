// Noise calculator (paper Section VII-C, userspace daemon component).
//
// Computes the per-slice noise amount from the configured mechanism.
// Laplace draws use the direct uniform->Laplace inverse-CDF transform — the
// paper notes that calling library APIs per draw is too slow (see
// bench_micro_components for the comparison). Each draw is made when it is
// asked for: a session reads one draw per gadget stream per slice, so a
// precomputed buffer would mostly hold draws that are never read.
#pragma once

#include <memory>

#include "dp/mechanism.hpp"
#include "util/rng.hpp"

namespace aegis::obf {

class NoiseCalculator {
 public:
  explicit NoiseCalculator(dp::MechanismConfig config);

  /// Normalized noise to inject at the next slice, given the normalized
  /// observation x_t of the protected series (x_t is ignored by mechanisms
  /// with input-independent noise, e.g. Laplace).
  double noise_for(double x_t);

  const dp::MechanismConfig& config() const noexcept { return config_; }

 private:
  dp::MechanismConfig config_;
  std::unique_ptr<dp::NoiseMechanism> mechanism_;
  util::Rng rng_;
};

}  // namespace aegis::obf
