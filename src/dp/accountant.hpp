// Privacy-budget accounting across a protection session.
//
// The Laplace mechanism gives eps-DP PER SLICE (Theorem 1); a monitoring
// window of T slices therefore composes. The accountant tracks the
// cumulative budget under two standard bounds so a deployment can reason
// about session-level privacy:
//   * basic (sequential) composition: eps_total = sum of per-release eps;
//   * advanced composition (Dwork–Rothblum–Vadhan), in its heterogeneous
//     form: for releases at eps_1..eps_k and slack delta,
//       eps_total = sqrt(2 ln(1/delta) sum_i eps_i^2)
//                   + sum_i eps_i (e^{eps_i} - 1).
//     For k releases at a common eps this reduces to the familiar
//       eps sqrt(2 k ln(1/delta)) + k eps (e^eps - 1),
//     which is far tighter than basic for small eps and large k. The
//     accountant tracks the exact per-release sum of squares (and the
//     sum of eps_i (e^{eps_i} - 1) overhead terms), so mixing release
//     granularities — as the service's BudgetGovernor does when it
//     degrades a tenant to coarser slices — is accounted exactly rather
//     than approximated through the mean epsilon.
// The d* mechanism's guarantee is already series-level ((d*, 2 eps) over
// the whole trace, Theorem 2) and does not compose per slice.
#pragma once

#include <cstddef>

namespace aegis::dp {

class PrivacyAccountant {
 public:
  /// Records k eps-DP releases (k protected monitoring slices: one admitted
  /// monitoring window).
  void record_releases(double epsilon, std::size_t k) noexcept;

  std::size_t releases() const noexcept { return releases_; }

  /// Basic sequential composition: the sum of recorded epsilons.
  double basic_epsilon() const noexcept { return basic_epsilon_; }

  /// Heterogeneous advanced composition over the exact recorded releases
  /// with the given delta slack.
  double advanced_epsilon(double delta) const noexcept;

  /// Advanced-composition epsilon IF k further releases at `epsilon` were
  /// recorded on top of the current history. The BudgetGovernor uses this
  /// to decide admission without mutating the accountant.
  double advanced_epsilon_if(double epsilon, std::size_t k,
                             double delta) const noexcept;

  /// The standalone advanced-composition bound for k releases at `epsilon`:
  /// the closed form HomogeneousReleasesMatchTheClosedForm checks the
  /// accountant against.
  static double advanced_composition(double epsilon, std::size_t k,
                                     double delta) noexcept;

 private:
  std::size_t releases_ = 0;
  double basic_epsilon_ = 0.0;
  double sum_squares_ = 0.0;     // sum of eps_i^2
  double overhead_sum_ = 0.0;    // sum of eps_i (e^{eps_i} - 1)
};

}  // namespace aegis::dp
