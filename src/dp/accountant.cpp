#include "dp/accountant.hpp"

#include <cmath>

namespace aegis::dp {

namespace {

double sanitize_delta(double delta) noexcept {
  return (delta <= 0.0 || delta >= 1.0) ? 1e-6 : delta;
}

/// eps (e^eps - 1): the per-release additive term of advanced composition.
double overhead_term(double epsilon) noexcept {
  return epsilon * (std::exp(epsilon) - 1.0);
}

}  // namespace

void PrivacyAccountant::record_releases(double epsilon,
                                        std::size_t k) noexcept {
  if (epsilon <= 0.0 || k == 0) return;
  const double kd = static_cast<double>(k);
  releases_ += k;
  basic_epsilon_ += kd * epsilon;
  sum_squares_ += kd * epsilon * epsilon;
  overhead_sum_ += kd * overhead_term(epsilon);
}

double PrivacyAccountant::advanced_epsilon(double delta) const noexcept {
  if (releases_ == 0) return 0.0;
  return std::sqrt(2.0 * std::log(1.0 / sanitize_delta(delta)) * sum_squares_) +
         overhead_sum_;
}

double PrivacyAccountant::advanced_epsilon_if(double epsilon, std::size_t k,
                                              double delta) const noexcept {
  double squares = sum_squares_;
  double overhead = overhead_sum_;
  if (epsilon > 0.0 && k > 0) {
    const double kd = static_cast<double>(k);
    squares += kd * epsilon * epsilon;
    overhead += kd * overhead_term(epsilon);
  }
  if (squares <= 0.0) return 0.0;
  return std::sqrt(2.0 * std::log(1.0 / sanitize_delta(delta)) * squares) +
         overhead;
}

double PrivacyAccountant::advanced_composition(double epsilon, std::size_t k,
                                               double delta) noexcept {
  if (k == 0 || epsilon <= 0.0) return 0.0;
  const double kd = static_cast<double>(k);
  return epsilon * std::sqrt(2.0 * kd * std::log(1.0 / sanitize_delta(delta))) +
         kd * overhead_term(epsilon);
}

}  // namespace aegis::dp
