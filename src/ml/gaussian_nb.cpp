#include "ml/gaussian_nb.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace aegis::ml {

void GaussianNbClassifier::fit(const FeatureMatrix& X, const Labels& y,
                               int num_classes) {
  if (X.empty() || X.size() != y.size() || num_classes <= 0) {
    throw std::invalid_argument("GaussianNb::fit: bad inputs");
  }
  const std::size_t d = X.front().size();
  const std::size_t c = static_cast<std::size_t>(num_classes);
  for (std::size_t i = 0; i < X.size(); ++i) {
    if (X[i].size() != d) throw std::invalid_argument("GaussianNb::fit: ragged rows");
    if (y[i] < 0 || y[i] >= num_classes) {
      throw std::invalid_argument("GaussianNb::fit: label out of range");
    }
  }
  mu_.assign(c, std::vector<double>(d, 0.0));
  var_.assign(c, std::vector<double>(d, 0.0));
  std::vector<double> counts(c, 0.0);
  for (std::size_t i = 0; i < X.size(); ++i) {
    const auto k = static_cast<std::size_t>(y[i]);
    counts[k] += 1.0;
    for (std::size_t j = 0; j < d; ++j) mu_[k][j] += X[i][j];
  }
  for (std::size_t k = 0; k < c; ++k) {
    if (counts[k] > 0.0) {
      for (double& m : mu_[k]) m /= counts[k];
    }
  }
  for (std::size_t i = 0; i < X.size(); ++i) {
    const auto k = static_cast<std::size_t>(y[i]);
    for (std::size_t j = 0; j < d; ++j) {
      const double diff = X[i][j] - mu_[k][j];
      var_[k][j] += diff * diff;
    }
  }
  log_prior_.assign(c, -std::numeric_limits<double>::infinity());
  const double n = static_cast<double>(X.size());
  for (std::size_t k = 0; k < c; ++k) {
    if (counts[k] > 0.0) {
      for (double& v : var_[k]) v = v / counts[k] + 1e-6;  // variance smoothing
      log_prior_[k] = std::log(counts[k] / n);
    }
  }
}

int GaussianNbClassifier::predict(const std::vector<double>& x) const {
  int best = 0;
  double best_score = -std::numeric_limits<double>::infinity();
  for (std::size_t k = 0; k < mu_.size(); ++k) {
    double score = log_prior_[k];
    if (!std::isfinite(score)) continue;
    for (std::size_t j = 0; j < x.size() && j < mu_[k].size(); ++j) {
      const double diff = x[j] - mu_[k][j];
      score += -0.5 * (std::log(2.0 * 3.141592653589793 * var_[k][j]) +
                       diff * diff / var_[k][j]);
    }
    if (score > best_score) {
      best_score = score;
      best = static_cast<int>(k);
    }
  }
  return best;
}

double GaussianNbClassifier::accuracy(const FeatureMatrix& X, const Labels& y) const {
  if (X.size() != y.size()) {
    throw std::invalid_argument("GaussianNb::accuracy: size mismatch");
  }
  if (X.empty()) return 0.0;
  std::size_t correct = 0;
  for (std::size_t i = 0; i < X.size(); ++i) {
    if (predict(X[i]) == y[i]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(X.size());
}

}  // namespace aegis::ml
