#include "trace/pca.hpp"

#include <cmath>
#include <stdexcept>

#include "util/rng.hpp"

namespace aegis::trace {

namespace {

double dot(const std::vector<double>& a, const std::vector<double>& b) {
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

double norm(const std::vector<double>& a) { return std::sqrt(dot(a, a)); }

}  // namespace

// aegis-rng: stream(pca-fit)
void Pca::fit(const std::vector<std::vector<double>>& X, std::size_t components) {
  if (X.empty()) throw std::invalid_argument("Pca::fit: empty sample set");
  const std::size_t n = X.size();
  const std::size_t d = X.front().size();
  components = std::min(components, d);

  mean_.assign(d, 0.0);
  for (const auto& x : X) {
    for (std::size_t i = 0; i < d; ++i) mean_[i] += x[i];
  }
  for (double& m : mean_) m /= static_cast<double>(n);

  // The covariance, formed once (upper triangle, then mirrored): each
  // power-iteration step then costs d * d, not a pass over the n rows.
  std::vector<double> cov(d * d, 0.0);
  std::vector<double> centered(d);
  for (const auto& x : X) {
    for (std::size_t i = 0; i < d; ++i) centered[i] = x[i] - mean_[i];
    for (std::size_t i = 0; i < d; ++i) {
      for (std::size_t j = i; j < d; ++j) {
        cov[i * d + j] += centered[i] * centered[j];
      }
    }
  }
  for (std::size_t i = 0; i < d; ++i) {
    for (std::size_t j = i; j < d; ++j) {
      cov[i * d + j] /= static_cast<double>(n);
      cov[j * d + i] = cov[i * d + j];
    }
  }
  const auto times_cov = [&](const std::vector<double>& v) {
    std::vector<double> w(d, 0.0);
    for (std::size_t i = 0; i < d; ++i) {
      for (std::size_t j = 0; j < d; ++j) w[i] += cov[i * d + j] * v[j];
    }
    return w;
  };

  components_.clear();
  eigenvalues_.clear();
  util::Rng rng(0xACA5ULL);
  // Power iteration v <- C v, deflating previously-found directions.
  for (std::size_t k = 0; k < components; ++k) {
    std::vector<double> v(d);
    for (double& vi : v) vi = rng.normal();
    double lambda = 0.0;
    for (int iter = 0; iter < 120; ++iter) {
      const std::vector<double> w = times_cov(v);
      const double w_norm = norm(w);
      if (w_norm < 1e-15) break;
      double delta = 0.0;
      for (std::size_t i = 0; i < d; ++i) {
        const double next = w[i] / w_norm;
        delta += std::abs(next - v[i]);
        v[i] = next;
      }
      lambda = w_norm;
      if (delta < 1e-10) break;
    }
    components_.push_back(v);
    eigenvalues_.push_back(lambda);
    // Deflate: C <- P C P with P = I - v v^T, the covariance of the samples
    // with the found direction removed from each.
    const std::vector<double> u = times_cov(v);
    const double s = dot(v, u);
    for (std::size_t i = 0; i < d; ++i) {
      for (std::size_t j = 0; j < d; ++j) {
        cov[i * d + j] += s * v[i] * v[j] - u[i] * v[j] - v[i] * u[j];
      }
    }
  }
}

std::vector<double> Pca::transform(const std::vector<double>& x) const {
  std::vector<double> out(components_.size(), 0.0);
  for (std::size_t k = 0; k < components_.size(); ++k) {
    double s = 0.0;
    for (std::size_t i = 0; i < x.size() && i < mean_.size(); ++i) {
      s += (x[i] - mean_[i]) * components_[k][i];
    }
    out[k] = s;
  }
  return out;
}

double Pca::first_component(const std::vector<double>& x) const {
  if (components_.empty()) throw std::logic_error("Pca: not fitted");
  double s = 0.0;
  for (std::size_t i = 0; i < x.size() && i < mean_.size(); ++i) {
    s += (x[i] - mean_[i]) * components_[0][i];
  }
  return s;
}

}  // namespace aegis::trace
