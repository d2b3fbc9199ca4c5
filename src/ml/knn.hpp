// k-nearest-neighbours classifier — the third attack-model family used to
// cross-check that the defense degrades every learner, not just the MLP.
#pragma once

#include <vector>

#include "ml/mlp.hpp"  // FeatureMatrix / Labels aliases

namespace aegis::ml {

class KnnClassifier {
 public:
  explicit KnnClassifier(std::size_t k = 5) : k_(k) {}

  /// Throws std::invalid_argument on empty or mismatched X/y, a
  /// non-positive class count or a label outside [0, num_classes).
  void fit(FeatureMatrix X, Labels y, int num_classes);
  int predict(const std::vector<double>& x) const;
  /// Throws std::invalid_argument when X and y differ in size.
  double accuracy(const FeatureMatrix& X, const Labels& y) const;

 private:
  std::size_t k_;
  int num_classes_ = 0;
  FeatureMatrix X_;
  Labels y_;
};

}  // namespace aegis::ml
