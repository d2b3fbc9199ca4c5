// Principal Component Analysis via power iteration with deflation.
//
// The profiler compresses each leakage time series to a scalar feature with
// PCA before Gaussian modelling (Section V-B, following the paper). Sizes
// here are small (hundreds of samples, tens-to-hundreds of dimensions), so
// a dependency-free power-iteration implementation is plenty. fit() forms
// the d x d covariance once and iterates on it, so an iteration costs d * d
// instead of a pass over all n samples.
#pragma once

#include <cstddef>
#include <vector>

namespace aegis::trace {

class Pca {
 public:
  /// Fits `components` principal directions on row-major samples X (n x d).
  void fit(const std::vector<std::vector<double>>& X, std::size_t components);

  /// Projects one sample onto the fitted components.
  std::vector<double> transform(const std::vector<double>& x) const;

  /// Convenience: projection onto the first principal component.
  double first_component(const std::vector<double>& x) const;

  const std::vector<double>& mean() const noexcept { return mean_; }
  const std::vector<std::vector<double>>& components() const noexcept {
    return components_;
  }
  const std::vector<double>& explained_variance() const noexcept {
    return eigenvalues_;
  }

 private:
  std::vector<double> mean_;
  std::vector<std::vector<double>> components_;  // k x d, unit norm
  std::vector<double> eigenvalues_;
};

}  // namespace aegis::trace
