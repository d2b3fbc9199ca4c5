#include "ml/mlp.hpp"

#include <algorithm>
#include <cmath>
#include <experimental/simd>
#include <numeric>
#include <span>
#include <stdexcept>

namespace aegis::ml {

namespace {

namespace stdx = std::experimental;

/// Rows per forward batch when scoring a data set (accuracy).
constexpr std::size_t kEvalRows = 64;

/// out = init + left · right for a rows x cols result, where left element
/// (r, k) sits at left[r * left_row + k * left_k] and right is depth x cols,
/// row-major. Every cell starts from init[c] (or 0.0) and adds its terms in
/// ascending k — the order a scalar loop over that one cell would use.
struct Product {
  const double* left;
  std::size_t left_row, left_k;
  const double* right;
  const double* init;  // cols values, or nullptr for 0.0
  double* out;
  std::size_t rows, depth, cols;
};

/// One R x C register tile of a Product: R rows of C lanes, one lane per
/// output cell. Each k step adds left(r, k) * right(k, c) to every lane;
/// lanes never combine, so no sum is split or reassociated and the result
/// is bit-identical to the per-cell scalar loop.
template <std::size_t R, std::size_t C>
void product_tile(const Product& p, std::size_t r0, std::size_t c0) {
  using Lanes = stdx::fixed_size_simd<double, C>;
  Lanes acc[R];
#pragma GCC unroll 4
  for (std::size_t r = 0; r < R; ++r) {
    if (p.init != nullptr) {
      acc[r].copy_from(p.init + c0, stdx::element_aligned);
    } else {
      acc[r] = 0.0;
    }
  }
  for (std::size_t k = 0; k < p.depth; ++k) {
    const Lanes w(p.right + k * p.cols + c0, stdx::element_aligned);
#pragma GCC unroll 4
    for (std::size_t r = 0; r < R; ++r) {
      acc[r] += p.left[(r0 + r) * p.left_row + k * p.left_k] * w;
    }
  }
#pragma GCC unroll 4
  for (std::size_t r = 0; r < R; ++r) {
    acc[r].copy_to(p.out + (r0 + r) * p.cols + c0, stdx::element_aligned);
  }
}

template <std::size_t C>
void product_columns(const Product& p, std::size_t c0) {
  std::size_t r = 0;
  for (; r + 2 <= p.rows; r += 2) product_tile<2, C>(p, r, c0);
  if (r < p.rows) product_tile<1, C>(p, r, c0);
}

/// Covers the columns with 8-wide tiles, then a 4, 2 and 1-wide tail.
void tiled_product(const Product& p) {
  std::size_t c = 0;
  for (; c + 8 <= p.cols; c += 8) product_columns<8>(p, c);
  if (c + 4 <= p.cols) {
    product_columns<4>(p, c);
    c += 4;
  }
  if (c + 2 <= p.cols) {
    product_columns<2>(p, c);
    c += 2;
  }
  if (c < p.cols) product_columns<1>(p, c);
}

/// out (rows x n_out) = bias + in (rows x n_in) · wt (n_in x n_out), with
/// ReLU when `relu`: each unit starts from its bias and adds its inputs in
/// ascending i.
// aegis-lint: noalloc
void affine(const double* wt, const double* bias, std::size_t n_in,
            std::size_t n_out, const double* in, std::size_t rows, bool relu,
            double* out) {
  tiled_product({in, n_in, 1, wt, bias, out, rows, n_in, n_out});
  if (!relu) return;
  for (std::size_t k = 0; k < rows * n_out; ++k) {
    if (out[k] < 0.0) out[k] = 0.0;
  }
}

/// grad_w (n_out x n_in) = Σ_b delta_b · in_bᵀ and grad_b = Σ_b delta_b
/// over `rows` samples: each cell starts from 0.0 and adds the samples in
/// batch order.
// aegis-lint: noalloc
void outer_accumulate(const double* delta, const double* in, std::size_t rows,
                      std::size_t n_out, std::size_t n_in, double* grad_w,
                      double* grad_b) {
  tiled_product({delta, 1, n_out, in, nullptr, grad_w, n_out, rows, n_in});
  std::fill(grad_b, grad_b + n_out, 0.0);
  for (std::size_t r = 0; r < rows; ++r) {
    const double* d = delta + r * n_out;
    for (std::size_t o = 0; o < n_out; ++o) grad_b[o] += d[o];
  }
}

/// prev (rows x n_in) = delta (rows x n_out) · w (n_out x n_in), masked by
/// the ReLU of the layer's (post-activation) input `in`: each cell starts
/// from 0.0 and adds the outputs in ascending o.
// aegis-lint: noalloc
void back_project(const double* w, const double* delta, const double* in,
                  std::size_t rows, std::size_t n_out, std::size_t n_in,
                  double* prev) {
  tiled_product({delta, n_out, 1, w, nullptr, prev, rows, n_out, n_in});
  for (std::size_t k = 0; k < rows * n_in; ++k) {
    if (in[k] <= 0.0) prev[k] = 0.0;
  }
}

void transpose(const std::vector<double>& w, std::size_t rows,
               std::size_t cols, std::vector<double>& wt) {
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) wt[c * rows + r] = w[r * cols + c];
  }
}

int argmax(std::span<const double> values) {
  return static_cast<int>(std::max_element(values.begin(), values.end()) -
                          values.begin());
}

/// Softmax over one row of a batch matrix, in place.
void softmax_row(std::span<double> logits) noexcept {
  if (logits.empty()) return;
  const double peak = *std::max_element(logits.begin(), logits.end());
  double sum = 0.0;
  for (double& z : logits) {
    z = std::exp(z - peak);
    sum += z;
  }
  for (double& z : logits) z /= sum;
}

}  // namespace

void softmax(std::vector<double>& logits) noexcept { softmax_row(logits); }

// aegis-rng: stream(mlp-init)
MlpClassifier::MlpClassifier(std::size_t input_dim, std::size_t num_classes,
                             MlpConfig config)
    : input_dim_(input_dim),
      num_classes_(num_classes),
      config_(std::move(config)),
      rng_(config_.seed) {
  if (num_classes_ == 0) throw std::invalid_argument("Mlp: zero classes");
  if (config_.batch_size == 0) throw std::invalid_argument("Mlp: zero batch size");
  std::size_t prev = input_dim_;
  std::vector<std::size_t> sizes = config_.hidden;
  sizes.push_back(num_classes_);
  for (std::size_t out : sizes) {
    Layer layer;
    layer.in = prev;
    layer.out = out;
    layer.w.resize(out * prev);
    layer.wt.resize(out * prev);
    layer.b.assign(out, 0.0);
    layer.vw.assign(out * prev, 0.0);
    layer.vb.assign(out, 0.0);
    // He initialization for the ReLU stack.
    const double scale = std::sqrt(2.0 / static_cast<double>(prev));
    for (double& w : layer.w) w = rng_.normal(0.0, scale);
    transpose(layer.w, out, prev, layer.wt);
    layers_.push_back(std::move(layer));
    prev = out;
  }
}

MlpClassifier::Batch MlpClassifier::make_batch(std::size_t capacity) const {
  Batch batch;
  batch.capacity = capacity;
  batch.acts.emplace_back(capacity * input_dim_);
  for (const Layer& layer : layers_) batch.acts.emplace_back(capacity * layer.out);
  return batch;
}

void MlpClassifier::load_row(Batch& batch, std::size_t r,
                             const std::vector<double>& x) const {
  if (x.size() != input_dim_) {
    // Out-of-bounds reads in the kernels would otherwise be silent.
    throw std::invalid_argument("Mlp: input dimension mismatch");
  }
  std::copy(x.begin(), x.end(), batch.acts[0].begin() + r * input_dim_);
}

void MlpClassifier::forward(Batch& batch, std::size_t rows) const {
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    const Layer& layer = layers_[l];
    // ReLU on hidden layers; logits on the last.
    affine(layer.wt.data(), layer.b.data(), layer.in, layer.out,
           batch.acts[l].data(), rows, l + 1 < layers_.size(),
           batch.acts[l + 1].data());
  }
}

// aegis-rng: stream(mlp-fit)
std::vector<EpochStats> MlpClassifier::fit(const FeatureMatrix& X, const Labels& y,
                                           const FeatureMatrix& X_val,
                                           const Labels& y_val) {
  if (X.size() != y.size()) throw std::invalid_argument("Mlp::fit: size mismatch");
  if (X_val.size() != y_val.size()) {
    throw std::invalid_argument("Mlp::fit: validation size mismatch");
  }
  for (int label : y) {
    if (label < 0 || static_cast<std::size_t>(label) >= num_classes_) {
      throw std::invalid_argument("Mlp::fit: label out of range");
    }
  }
  std::vector<EpochStats> history;
  if (X.empty()) return history;

  std::vector<std::size_t> order(X.size());
  std::iota(order.begin(), order.end(), 0);
  double lr = config_.learning_rate;

  // Batch matrices, per-layer deltas and gradients, reused across batches.
  Batch batch = make_batch(std::min(config_.batch_size, X.size()));
  std::vector<std::vector<double>> delta(layers_.size());
  std::vector<std::vector<double>> grad_w(layers_.size()), grad_b(layers_.size());
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    delta[l].resize(batch.capacity * layers_[l].out);
    grad_w[l].resize(layers_[l].w.size());
    grad_b[l].resize(layers_[l].b.size());
  }

  const std::size_t k = num_classes_;
  for (std::size_t epoch = 0; epoch < config_.epochs; ++epoch) {
    rng_.shuffle(order);
    double loss_sum = 0.0;
    std::size_t correct = 0;

    for (std::size_t start = 0; start < order.size(); start += config_.batch_size) {
      const std::size_t rows = std::min(order.size(), start + config_.batch_size) - start;
      // Input-noise draws run in sample order, one row at a time.
      for (std::size_t r = 0; r < rows; ++r) {
        load_row(batch, r, X[order[start + r]]);
        if (config_.input_noise > 0.0) {
          double* row = &batch.acts[0][r * input_dim_];
          for (std::size_t i = 0; i < input_dim_; ++i) {
            row[i] += rng_.normal(0.0, config_.input_noise);
          }
        }
      }
      forward(batch, rows);

      // Loss and accuracy in sample order; the delta at the logits is
      // probs - onehot.
      for (std::size_t r = 0; r < rows; ++r) {
        const std::span<double> probs(&delta.back()[r * k], k);
        std::copy_n(&batch.acts.back()[r * k], k, probs.begin());
        softmax_row(probs);
        const int label = y[order[start + r]];
        loss_sum += -std::log(std::max(probs[static_cast<std::size_t>(label)], 1e-12));
        if (argmax(probs) == label) ++correct;
        probs[static_cast<std::size_t>(label)] -= 1.0;
      }

      for (std::size_t l = layers_.size(); l-- > 0;) {
        const Layer& layer = layers_[l];
        outer_accumulate(delta[l].data(), batch.acts[l].data(), rows, layer.out,
                         layer.in, grad_w[l].data(), grad_b[l].data());
        if (l == 0) break;
        back_project(layer.w.data(), delta[l].data(), batch.acts[l].data(), rows,
                     layer.out, layer.in, delta[l - 1].data());
      }

      const double inv_batch = 1.0 / static_cast<double>(rows);
      for (std::size_t l = 0; l < layers_.size(); ++l) {
        Layer& layer = layers_[l];
        for (std::size_t j = 0; j < layer.w.size(); ++j) {
          const double g = grad_w[l][j] * inv_batch + config_.weight_decay * layer.w[j];
          layer.vw[j] = config_.momentum * layer.vw[j] - lr * g;
          layer.w[j] += layer.vw[j];
        }
        for (std::size_t j = 0; j < layer.b.size(); ++j) {
          const double g = grad_b[l][j] * inv_batch;
          layer.vb[j] = config_.momentum * layer.vb[j] - lr * g;
          layer.b[j] += layer.vb[j];
        }
        transpose(layer.w, layer.out, layer.in, layer.wt);
      }
    }

    EpochStats stats;
    stats.epoch = epoch;
    stats.train_loss = loss_sum / static_cast<double>(X.size());
    stats.train_accuracy = static_cast<double>(correct) / static_cast<double>(X.size());
    stats.val_accuracy = X_val.empty() ? 0.0 : accuracy(X_val, y_val);
    history.push_back(stats);
    lr *= config_.lr_decay;
  }
  return history;
}

std::vector<double> MlpClassifier::predict_proba(const std::vector<double>& x) const {
  Batch batch = make_batch(1);
  load_row(batch, 0, x);
  forward(batch, 1);
  std::vector<double> probs = std::move(batch.acts.back());
  softmax(probs);
  return probs;
}

int MlpClassifier::predict(const std::vector<double>& x) const {
  return argmax(predict_proba(x));
}

double MlpClassifier::accuracy(const FeatureMatrix& X, const Labels& y) const {
  if (X.size() != y.size()) throw std::invalid_argument("Mlp::accuracy: size mismatch");
  if (X.empty()) return 0.0;
  Batch batch = make_batch(std::min(kEvalRows, X.size()));
  const std::size_t k = num_classes_;
  std::size_t correct = 0;
  for (std::size_t start = 0; start < X.size(); start += batch.capacity) {
    const std::size_t rows = std::min(batch.capacity, X.size() - start);
    for (std::size_t r = 0; r < rows; ++r) load_row(batch, r, X[start + r]);
    forward(batch, rows);
    for (std::size_t r = 0; r < rows; ++r) {
      const std::span<double> probs(&batch.acts.back()[r * k], k);
      softmax_row(probs);
      if (argmax(probs) == y[start + r]) ++correct;
    }
  }
  return static_cast<double>(correct) / static_cast<double>(X.size());
}

}  // namespace aegis::ml
