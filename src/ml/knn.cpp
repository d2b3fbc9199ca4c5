#include "ml/knn.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace aegis::ml {

void KnnClassifier::fit(FeatureMatrix X, Labels y, int num_classes) {
  if (X.size() != y.size() || X.empty() || num_classes <= 0) {
    throw std::invalid_argument("Knn::fit: bad inputs");
  }
  for (int label : y) {
    if (label < 0 || label >= num_classes) {
      throw std::invalid_argument("Knn::fit: label out of range");
    }
  }
  X_ = std::move(X);
  y_ = std::move(y);
  num_classes_ = num_classes;
}

int KnnClassifier::predict(const std::vector<double>& x) const {
  std::vector<std::pair<double, int>> dist;
  dist.reserve(X_.size());
  for (std::size_t i = 0; i < X_.size(); ++i) {
    double d2 = 0.0;
    for (std::size_t j = 0; j < x.size() && j < X_[i].size(); ++j) {
      const double diff = x[j] - X_[i][j];
      d2 += diff * diff;
    }
    dist.emplace_back(d2, y_[i]);
  }
  const std::size_t k = std::min(k_, dist.size());
  std::partial_sort(dist.begin(), dist.begin() + static_cast<std::ptrdiff_t>(k),
                    dist.end());
  std::vector<int> votes(static_cast<std::size_t>(num_classes_), 0);
  for (std::size_t i = 0; i < k; ++i) {
    ++votes[static_cast<std::size_t>(dist[i].second)];
  }
  return static_cast<int>(std::max_element(votes.begin(), votes.end()) -
                          votes.begin());
}

double KnnClassifier::accuracy(const FeatureMatrix& X, const Labels& y) const {
  if (X.size() != y.size()) throw std::invalid_argument("Knn::accuracy: size mismatch");
  if (X.empty()) return 0.0;
  std::size_t correct = 0;
  for (std::size_t i = 0; i < X.size(); ++i) {
    if (predict(X[i]) == y[i]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(X.size());
}

}  // namespace aegis::ml
