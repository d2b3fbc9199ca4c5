// Multi-layer perceptron classifier, from scratch.
//
// Stands in for the paper's CNN attack models (Section III-B). The defense
// claim is model-agnostic — it bounds the information in the traces, not a
// particular architecture — so any sufficiently strong learner reproduces
// the evaluation shape: >90 % accuracy on clean traces, random-guess
// accuracy under the DP defense. Training records per-epoch accuracy/loss
// so the Fig. 1 training curves can be regenerated.
//
// Training and inference run on contiguous minibatch matrices through three
// order-preserving kernels (DESIGN.md, "MLP training engine").
#pragma once

#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace aegis::ml {

using FeatureMatrix = std::vector<std::vector<double>>;
using Labels = std::vector<int>;

struct MlpConfig {
  std::vector<std::size_t> hidden = {96, 48};
  double learning_rate = 0.03;
  double momentum = 0.9;
  double weight_decay = 1e-4;
  std::size_t epochs = 40;
  std::size_t batch_size = 32;
  double lr_decay = 0.97;       // multiplicative per epoch
  double input_noise = 0.0;     // train-time Gaussian input jitter (regularizer)
  std::uint64_t seed = 1;
};

struct EpochStats {
  std::size_t epoch = 0;
  double train_loss = 0.0;
  double train_accuracy = 0.0;
  double val_accuracy = 0.0;
};

class MlpClassifier {
 public:
  /// Throws std::invalid_argument for zero classes or a zero batch size.
  MlpClassifier(std::size_t input_dim, std::size_t num_classes, MlpConfig config);

  /// Trains with minibatch SGD + momentum; returns the per-epoch history
  /// (train loss/accuracy and validation accuracy — the Fig. 1 curves).
  /// Throws std::invalid_argument on mismatched X/y or X_val/y_val sizes, a
  /// label outside [0, num_classes) or a row of the wrong width.
  std::vector<EpochStats> fit(const FeatureMatrix& X, const Labels& y,
                              const FeatureMatrix& X_val, const Labels& y_val);

  int predict(const std::vector<double>& x) const;
  /// Softmax class probabilities.
  std::vector<double> predict_proba(const std::vector<double>& x) const;
  /// Throws std::invalid_argument when X and y differ in size.
  double accuracy(const FeatureMatrix& X, const Labels& y) const;

  std::size_t input_dim() const noexcept { return input_dim_; }
  std::size_t num_classes() const noexcept { return num_classes_; }

 private:
  struct Layer {
    std::size_t in = 0, out = 0;
    std::vector<double> w;   // out x in, row-major
    std::vector<double> wt;  // in x out: w transposed, read by the forward pass
    std::vector<double> b;   // out
    std::vector<double> vw;  // momentum buffers
    std::vector<double> vb;
  };

  /// Row-major activation matrices for up to `capacity` samples: acts[0]
  /// holds the input rows, acts[l + 1] the output of layer l (post-ReLU on
  /// hidden layers, logits on the last).
  struct Batch {
    std::size_t capacity = 0;
    std::vector<std::vector<double>> acts;
  };

  Batch make_batch(std::size_t capacity) const;
  /// Copies x into input row r; throws on a width mismatch.
  void load_row(Batch& batch, std::size_t r, const std::vector<double>& x) const;
  /// Forward pass over the first `rows` input rows.
  void forward(Batch& batch, std::size_t rows) const;

  std::size_t input_dim_;
  std::size_t num_classes_;
  MlpConfig config_;
  std::vector<Layer> layers_;
  util::Rng rng_;
};

/// Softmax in place (numerically stable); an empty vector is left alone.
void softmax(std::vector<double>& logits) noexcept;

}  // namespace aegis::ml
