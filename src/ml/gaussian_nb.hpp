// Gaussian naive Bayes classifier — a second, structurally different attack
// model. The Fig. 9 defense claim is model-agnostic, so the evaluation
// cross-checks the MLP results with this generative learner (and kNN).
#pragma once

#include <vector>

#include "ml/mlp.hpp"  // FeatureMatrix / Labels aliases

namespace aegis::ml {

class GaussianNbClassifier {
 public:
  /// Throws std::invalid_argument on empty or mismatched X/y, a
  /// non-positive class count, ragged rows or a label outside
  /// [0, num_classes).
  void fit(const FeatureMatrix& X, const Labels& y, int num_classes);
  int predict(const std::vector<double>& x) const;
  /// Throws std::invalid_argument when X and y differ in size.
  double accuracy(const FeatureMatrix& X, const Labels& y) const;

 private:
  std::vector<std::vector<double>> mu_;     // class x dim
  std::vector<std::vector<double>> var_;    // class x dim
  std::vector<double> log_prior_;
};

}  // namespace aegis::ml
