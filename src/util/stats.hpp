// Descriptive statistics, Gaussian utilities and histogram helpers shared by
// the profiler (Gaussian modelling of event values, Q-Q analysis, Fig. 3),
// the fuzzer (median-of-repeats confirmation) and the evaluation benches.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace aegis::util {

double mean(std::span<const double> v) noexcept;

/// Unbiased sample variance (n-1 denominator); 0 for fewer than 2 samples.
double variance(std::span<const double> v) noexcept;

double stddev(std::span<const double> v) noexcept;

/// Median; copies and partially sorts. Returns 0 for empty input.
double median(std::span<const double> v);

/// median() over a MUTABLE span: partitions in place instead of copying,
/// so hot paths (fuzzer confirmation) can take the median of scratch
/// buffers without allocating. Spans of up to kSmallMedian values are
/// insertion-sorted instead; both paths return the same value. Element
/// order after the call is unspecified.
double median_inplace(std::span<double> v) noexcept;
inline constexpr std::size_t kSmallMedian = 16;

/// Linear-interpolated quantile, q in [0, 1]. Returns 0 for empty input.
double quantile(std::span<const double> v, double q);

double min_value(std::span<const double> v) noexcept;
double max_value(std::span<const double> v) noexcept;

/// Pearson correlation coefficient; 0 if either side is constant.
double pearson(std::span<const double> x, std::span<const double> y) noexcept;

/// Parameters of a fitted univariate Gaussian.
struct GaussianFit {
  double mu = 0.0;
  double sigma = 0.0;
};

/// Maximum-likelihood Gaussian fit (sigma floored at a tiny epsilon so the
/// pdf stays usable for degenerate constant samples).
GaussianFit fit_gaussian(std::span<const double> v) noexcept;

/// Gaussian pdf / cdf.
double gaussian_pdf(double x, double mu, double sigma) noexcept;
double gaussian_cdf(double x, double mu, double sigma) noexcept;

/// Inverse standard-normal CDF (Acklam's rational approximation), used to
/// produce theoretical quantiles for Q-Q plots (Fig. 3b).
double inverse_normal_cdf(double p) noexcept;

/// Q-Q plot correlation of the sample against N(0,1) after standardizing.
/// Values near 1 indicate the sample is Gaussian-like (paper Fig. 3b).
double qq_normal_correlation(std::span<const double> v);

/// Fixed-width histogram over [lo, hi] with `bins` buckets.
struct Histogram {
  double lo = 0.0;
  double hi = 0.0;
  std::vector<std::size_t> counts;
};

Histogram make_histogram(std::span<const double> v, std::size_t bins);
Histogram make_histogram(std::span<const double> v, std::size_t bins,
                         double lo, double hi);

/// z-score normalization in place; constant input maps to all zeros.
void standardize(std::vector<double>& v) noexcept;

}  // namespace aegis::util
