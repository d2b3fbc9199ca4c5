#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>
#include <numeric>

namespace aegis::util {

double mean(std::span<const double> v) noexcept {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

double variance(std::span<const double> v) noexcept {
  if (v.size() < 2) return 0.0;
  const double m = mean(v);
  double acc = 0.0;
  for (double x : v) acc += (x - m) * (x - m);
  return acc / static_cast<double>(v.size() - 1);
}

double stddev(std::span<const double> v) noexcept { return std::sqrt(variance(v)); }

double median(std::span<const double> v) {
  if (v.empty()) return 0.0;
  std::vector<double> tmp(v.begin(), v.end());
  return median_inplace(tmp);
}

double median_inplace(std::span<double> v) noexcept {
  if (v.empty()) return 0.0;
  const std::size_t mid = v.size() / 2;
  if (v.size() <= kSmallMedian) {
    // Insertion sort: for the fuzzer's R = 10 repeats it beats
    // nth_element's partitioning plus the max_element scan, and it picks
    // the same order statistics.
    for (std::size_t i = 1; i < v.size(); ++i) {
      const double x = v[i];
      std::size_t j = i;
      for (; j > 0 && x < v[j - 1]; --j) v[j] = v[j - 1];
      v[j] = x;
    }
    return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
  }
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid), v.end());
  const double hiv = v[mid];
  if (v.size() % 2 == 1) return hiv;
  const double lov = *std::max_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid));
  return 0.5 * (lov + hiv);
}

double quantile(std::span<const double> v, double q) {
  if (v.empty()) return 0.0;
  std::vector<double> tmp(v.begin(), v.end());
  std::sort(tmp.begin(), tmp.end());
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(tmp.size() - 1);
  const std::size_t i = static_cast<std::size_t>(pos);
  if (i + 1 >= tmp.size()) return tmp.back();
  const double frac = pos - static_cast<double>(i);
  return tmp[i] * (1.0 - frac) + tmp[i + 1] * frac;
}

double min_value(std::span<const double> v) noexcept {
  if (v.empty()) return 0.0;
  return *std::min_element(v.begin(), v.end());
}

double max_value(std::span<const double> v) noexcept {
  if (v.empty()) return 0.0;
  return *std::max_element(v.begin(), v.end());
}

double pearson(std::span<const double> x, std::span<const double> y) noexcept {
  if (x.size() != y.size() || x.size() < 2) return 0.0;
  const double mx = mean(x), my = mean(y);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double dx = x[i] - mx, dy = y[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx <= 0.0 || syy <= 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

GaussianFit fit_gaussian(std::span<const double> v) noexcept {
  GaussianFit fit;
  fit.mu = mean(v);
  // ML estimate (n denominator); floored so pdf/cdf stay finite.
  double acc = 0.0;
  for (double x : v) acc += (x - fit.mu) * (x - fit.mu);
  const double var = v.empty() ? 0.0 : acc / static_cast<double>(v.size());
  fit.sigma = std::max(std::sqrt(var), 1e-9);
  return fit;
}

double gaussian_pdf(double x, double mu, double sigma) noexcept {
  const double z = (x - mu) / sigma;
  return std::exp(-0.5 * z * z) / (sigma * std::sqrt(2.0 * std::numbers::pi));
}

double gaussian_cdf(double x, double mu, double sigma) noexcept {
  return 0.5 * std::erfc(-(x - mu) / (sigma * std::numbers::sqrt2));
}

double inverse_normal_cdf(double p) noexcept {
  // Peter Acklam's approximation; relative error < 1.15e-9.
  if (p <= 0.0) return -std::numeric_limits<double>::infinity();
  if (p >= 1.0) return std::numeric_limits<double>::infinity();
  static constexpr double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                                 -2.759285104469687e+02, 1.383577518672690e+02,
                                 -3.066479806614716e+01, 2.506628277459239e+00};
  static constexpr double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                                 -1.556989798598866e+02, 6.680131188771972e+01,
                                 -1.328068155288572e+01};
  static constexpr double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                                 -2.400758277161838e+00, -2.549732539343734e+00,
                                 4.374664141464968e+00,  2.938163982698783e+00};
  static constexpr double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                                 2.445134137142996e+00, 3.754408661907416e+00};
  constexpr double plow = 0.02425;
  constexpr double phigh = 1.0 - plow;
  if (p < plow) {
    const double q = std::sqrt(-2.0 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  if (p > phigh) {
    const double q = std::sqrt(-2.0 * std::log(1.0 - p));
    return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  const double q = p - 0.5;
  const double r = q * q;
  return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q /
         (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
}

double qq_normal_correlation(std::span<const double> v) {
  if (v.size() < 3) return 0.0;
  std::vector<double> sample(v.begin(), v.end());
  standardize(sample);
  std::sort(sample.begin(), sample.end());
  std::vector<double> theo(sample.size());
  const double n = static_cast<double>(sample.size());
  for (std::size_t i = 0; i < sample.size(); ++i) {
    // Blom plotting positions.
    theo[i] = inverse_normal_cdf((static_cast<double>(i) + 1.0 - 0.375) / (n + 0.25));
  }
  return pearson(sample, theo);
}

Histogram make_histogram(std::span<const double> v, std::size_t bins) {
  return make_histogram(v, bins, min_value(v), max_value(v));
}

Histogram make_histogram(std::span<const double> v, std::size_t bins, double lo,
                         double hi) {
  Histogram h;
  h.lo = lo;
  h.hi = hi;
  h.counts.assign(bins == 0 ? 1 : bins, 0);
  if (v.empty()) return h;
  const double width = (hi > lo) ? (hi - lo) : 1.0;
  for (double x : v) {
    double f = (x - lo) / width;
    f = std::clamp(f, 0.0, 1.0);
    std::size_t idx = static_cast<std::size_t>(f * static_cast<double>(h.counts.size()));
    if (idx >= h.counts.size()) idx = h.counts.size() - 1;
    ++h.counts[idx];
  }
  return h;
}

void standardize(std::vector<double>& v) noexcept {
  const double m = mean(v);
  const double s = stddev(v);
  if (s <= 0.0) {
    std::fill(v.begin(), v.end(), 0.0);
    return;
  }
  for (double& x : v) x = (x - m) / s;
}

}  // namespace aegis::util
