#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>

#include "trace/gaussian.hpp"
#include "trace/mutual_information.hpp"
#include "trace/pca.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"

namespace aegis::trace {
namespace {

Trace make_trace(std::size_t slices, std::size_t events, double base) {
  Trace t;
  t.samples.assign(slices, std::vector<double>(events, 0.0));
  for (std::size_t s = 0; s < slices; ++s) {
    for (std::size_t e = 0; e < events; ++e) {
      t.samples[s][e] = base + static_cast<double>(s) + 10.0 * static_cast<double>(e);
    }
  }
  return t;
}

TEST(Trace, ShapeAccessors) {
  const Trace t = make_trace(10, 4, 0.0);
  EXPECT_EQ(t.slices(), 10u);
  EXPECT_EQ(t.events(), 4u);
  EXPECT_EQ(Trace{}.events(), 0u);
}

TEST(Trace, EventSeriesExtractsColumn) {
  const Trace t = make_trace(5, 3, 1.0);
  const auto series = t.event_series(2);
  ASSERT_EQ(series.size(), 5u);
  EXPECT_DOUBLE_EQ(series[0], 21.0);
  EXPECT_DOUBLE_EQ(series[4], 25.0);
}

TEST(Trace, WindowFeaturesAverageCorrectly) {
  Trace t;
  t.samples = {{2.0}, {4.0}, {10.0}, {20.0}};
  const auto f = t.window_features(2);
  ASSERT_EQ(f.size(), 2u);
  EXPECT_DOUBLE_EQ(f[0], 3.0);
  EXPECT_DOUBLE_EQ(f[1], 15.0);
}

TEST(Trace, WindowFeaturesLayoutIsEventMajor) {
  Trace t;
  t.samples = {{1.0, 100.0}, {3.0, 300.0}};
  const auto f = t.window_features(2);
  ASSERT_EQ(f.size(), 4u);
  // Layout: e0w0, e0w1, e1w0, e1w1.
  EXPECT_DOUBLE_EQ(f[0], 1.0);
  EXPECT_DOUBLE_EQ(f[1], 3.0);
  EXPECT_DOUBLE_EQ(f[2], 100.0);
  EXPECT_DOUBLE_EQ(f[3], 300.0);
}

TEST(Trace, WindowCountClampedToSlices) {
  Trace t;
  t.samples = {{1.0}, {2.0}};
  EXPECT_EQ(t.window_features(10).size(), 2u);
}

TEST(Trace, PaddedWindowFeaturesKeepFixedDimension) {
  // Attacker-stepped sampling produces variable-length traces; classifiers
  // need a dimension that depends only on `windows`, never on T.
  Trace shorter, longer;
  shorter.samples = {{1.0}, {3.0}};
  longer.samples.assign(12, {2.0});
  EXPECT_EQ(shorter.window_features(4, /*pad=*/true).size(), 4u);
  EXPECT_EQ(longer.window_features(4, /*pad=*/true).size(), 4u);
  // Samples land at w = t * windows / T; untouched windows stay zero.
  const auto f = shorter.window_features(4, /*pad=*/true);
  EXPECT_DOUBLE_EQ(f[0], 1.0);
  EXPECT_DOUBLE_EQ(f[1], 0.0);
  EXPECT_DOUBLE_EQ(f[2], 3.0);
  EXPECT_DOUBLE_EQ(f[3], 0.0);
  // With T >= windows, pad changes nothing.
  EXPECT_EQ(longer.window_features(4, /*pad=*/true),
            longer.window_features(4));
}

TEST(Trace, SortedWindowFeaturesAreBurstPositionInvariant) {
  Trace early, late;
  early.samples.assign(20, {0.0});
  late.samples.assign(20, {0.0});
  early.samples[2][0] = 50.0;  // burst at the start
  late.samples[17][0] = 50.0;  // same burst at the end
  EXPECT_EQ(early.sorted_window_features(20), late.sorted_window_features(20));
  EXPECT_NE(early.window_features(20), late.window_features(20));
}

// Splits a set into train/validation halves by moving its traces by id,
// the way every attack splits its runs.
void split_set(TraceSet& set, double train_fraction, std::uint64_t seed,
               TraceSet& train, TraceSet& val) {
  const IdSplit split = split_by_id(set.size(), train_fraction, seed);
  for (auto* half : {&train, &val}) half->num_classes = set.num_classes;
  for (std::size_t id : split.train) {
    train.traces.push_back(std::move(set.traces[id]));
    train.labels.push_back(set.labels[id]);
  }
  for (std::size_t id : split.validation) {
    val.traces.push_back(std::move(set.traces[id]));
    val.labels.push_back(set.labels[id]);
  }
}

TEST(TraceSet, SplitPreservesAllSamples) {
  TraceSet set;
  set.num_classes = 2;
  for (int i = 0; i < 10; ++i) {
    set.traces.push_back(make_trace(3, 1, i));
    set.labels.push_back(i % 2);
  }
  TraceSet train, val;
  split_set(set, 0.7, 5, train, val);
  EXPECT_EQ(train.size(), 7u);
  EXPECT_EQ(val.size(), 3u);
  EXPECT_EQ(train.num_classes, 2);
  // Each moved trace keeps its samples and its label.
  for (const TraceSet* half : {&train, &val}) {
    for (std::size_t i = 0; i < half->size(); ++i) {
      const double base = half->traces[i].samples[0][0];
      EXPECT_EQ(half->traces[i].samples, make_trace(3, 1, base).samples);
      EXPECT_EQ(half->labels[i], static_cast<int>(base) % 2);
    }
  }
}

TEST(TraceSet, SplitByIdPreservesAllSamplesAndIsDisjoint) {
  TraceSet set;
  set.num_classes = 2;
  for (int i = 0; i < 10; ++i) {
    set.traces.push_back(make_trace(3, 1, i));
    set.labels.push_back(i % 2);
  }
  TraceSet train, val;
  split_set(set, 0.7, 5, train, val);
  EXPECT_EQ(train.size(), 7u);
  EXPECT_EQ(val.size(), 3u);
  EXPECT_EQ(train.num_classes, 2);
  // Every trace lands in exactly one half (identity = its base value).
  std::vector<double> seen;
  for (const auto& t : train.traces) seen.push_back(t.samples[0][0]);
  for (const auto& t : val.traces) seen.push_back(t.samples[0][0]);
  std::sort(seen.begin(), seen.end());
  for (int i = 0; i < 10; ++i) EXPECT_DOUBLE_EQ(seen[i], i);
}

TEST(Trace, SplitByIdCutsTheTrainFractionAndIsDisjoint) {
  const IdSplit split = split_by_id(10, 0.7, 5);
  EXPECT_EQ(split.train.size(), 7u);
  EXPECT_EQ(split.validation.size(), 3u);
  // Every id lands in exactly one half, each half in split order.
  std::vector<std::size_t> seen = split.train;
  seen.insert(seen.end(), split.validation.begin(), split.validation.end());
  EXPECT_EQ(seen, split_order_by_id(10, 5));
  std::sort(seen.begin(), seen.end());
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(seen[i], i);
}

TEST(Trace, SplitOrderByIdIsDeterministicPermutation) {
  const std::vector<std::size_t> a = split_order_by_id(20, 7);
  const std::vector<std::size_t> b = split_order_by_id(20, 7);
  EXPECT_EQ(a, b);
  std::vector<std::size_t> sorted = a;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < 20; ++i) EXPECT_EQ(sorted[i], i);
  EXPECT_NE(split_order_by_id(20, 8), a);
}

TEST(Trace, SplitOrderByIdRanksIdsIndependentlyOfSetSize) {
  // Each id's rank key is split_mix64(seed, id): adding traces to the set
  // must not reshuffle the relative order of the ids already present.
  const std::vector<std::size_t> small = split_order_by_id(10, 11);
  const std::vector<std::size_t> large = split_order_by_id(14, 11);
  std::vector<std::size_t> restricted;
  for (std::size_t id : large) {
    if (id < 10) restricted.push_back(id);
  }
  EXPECT_EQ(restricted, small);
}

TEST(Standardizer, NormalizesTrainDistribution) {
  util::Rng rng(6);
  std::vector<std::vector<double>> X;
  for (int i = 0; i < 2000; ++i) {
    X.push_back({rng.normal(5.0, 2.0), rng.normal(-1.0, 0.5)});
  }
  Standardizer s;
  s.fit(X);
  s.apply_all(X);
  std::vector<double> col0, col1;
  for (const auto& x : X) {
    col0.push_back(x[0]);
    col1.push_back(x[1]);
  }
  EXPECT_NEAR(util::mean(col0), 0.0, 1e-9);
  EXPECT_NEAR(util::stddev(col0), 1.0, 1e-2);
  EXPECT_NEAR(util::mean(col1), 0.0, 1e-9);
}

TEST(Standardizer, ConstantDimensionMapsToZero) {
  std::vector<std::vector<double>> X = {{3.0, 1.0}, {3.0, 2.0}};
  Standardizer s;
  s.fit(X);
  std::vector<double> f{3.0, 1.5};
  s.apply(f);
  EXPECT_DOUBLE_EQ(f[0], 0.0);
}

TEST(Standardizer, ThrowsOnEmptyFit) {
  Standardizer s;
  EXPECT_THROW(s.fit({}), std::invalid_argument);
  const Standardizer::Rows empty;
  const std::vector<const Standardizer::Rows*> blocks = {&empty, &empty};
  EXPECT_THROW(s.fit_blocks(blocks), std::invalid_argument);
  EXPECT_FALSE(s.fitted());
}

TEST(Standardizer, FitBlocksMatchesFitOnTheConcatenation) {
  util::Rng rng(8);
  Standardizer::Rows a, b, all;
  for (int i = 0; i < 37; ++i) {
    (i < 20 ? a : b).push_back({rng.normal(5.0, 2.0), rng.normal(-1.0, 0.5)});
  }
  all = a;
  all.insert(all.end(), b.begin(), b.end());
  const Standardizer::Rows empty;
  const std::vector<const Standardizer::Rows*> blocks = {&empty, &a, &b};
  Standardizer whole, blocked;
  whole.fit(all);
  blocked.fit_blocks(blocks);
  Standardizer::Rows x = all, y = all;
  whole.apply_all(x);
  blocked.apply_all(y);
  EXPECT_EQ(x, y);  // bit for bit: the same sums in the same order
}

TEST(Pca, RecoversDominantDirection) {
  util::Rng rng(7);
  // Data varies strongly along (1, 1)/sqrt(2) and weakly along (1, -1).
  std::vector<std::vector<double>> X;
  for (int i = 0; i < 3000; ++i) {
    const double major = rng.normal(0.0, 10.0);
    const double minor = rng.normal(0.0, 0.5);
    X.push_back({major + minor, major - minor});
  }
  Pca pca;
  pca.fit(X, 2);
  const auto& c0 = pca.components()[0];
  EXPECT_NEAR(std::abs(c0[0]), std::abs(c0[1]), 0.02);
  EXPECT_GT(pca.explained_variance()[0], 50.0);
  EXPECT_LT(pca.explained_variance()[1], 2.0);
}

TEST(Pca, FirstComponentMatchesClosedForm2D) {
  // Centered points with covariance (1/n) [[2.5, 0.5], [0.5, 1.0]]. A
  // symmetric 2 x 2 matrix [[a, b], [b, c]] has its top eigenvector at angle
  // atan2(2b, a - c) / 2 and eigenvalues (a + c) / 2 +- hypot((a - c) / 2, b).
  const std::vector<std::vector<double>> X = {
      {2.0, 1.0}, {-2.0, -1.0}, {1.0, -1.0}, {-1.0, 1.0}};
  const double a = 2.5, b = 0.5, c = 1.0;
  const double theta = 0.5 * std::atan2(2.0 * b, a - c);
  const double spread = std::hypot(0.5 * (a - c), b);
  Pca pca;
  pca.fit(X, 2);
  const auto& c0 = pca.components()[0];
  const double sign = c0[0] < 0.0 ? -1.0 : 1.0;
  EXPECT_NEAR(sign * c0[0], std::cos(theta), 1e-9);
  EXPECT_NEAR(sign * c0[1], std::sin(theta), 1e-9);
  EXPECT_NEAR(pca.explained_variance()[0], 0.5 * (a + c) + spread, 1e-9);
  EXPECT_NEAR(pca.explained_variance()[1], 0.5 * (a + c) - spread, 1e-9);
  // The projection onto it is the centered point's dot product.
  EXPECT_NEAR(pca.first_component({2.0, 1.0}),
              sign * (2.0 * std::cos(theta) + std::sin(theta)), 1e-9);
}

TEST(Pca, ComponentsAreOrthonormal) {
  util::Rng rng(8);
  std::vector<std::vector<double>> X;
  for (int i = 0; i < 500; ++i) {
    X.push_back({rng.normal(), rng.normal(0, 3), rng.normal(0, 0.2)});
  }
  Pca pca;
  pca.fit(X, 3);
  for (std::size_t a = 0; a < 3; ++a) {
    double norm = 0.0;
    for (double v : pca.components()[a]) norm += v * v;
    EXPECT_NEAR(norm, 1.0, 1e-6);
    for (std::size_t b = a + 1; b < 3; ++b) {
      double dot = 0.0;
      for (std::size_t i = 0; i < 3; ++i) {
        dot += pca.components()[a][i] * pca.components()[b][i];
      }
      EXPECT_NEAR(dot, 0.0, 1e-4);
    }
  }
}

TEST(Pca, TransformCentersData) {
  std::vector<std::vector<double>> X = {{1.0, 0.0}, {3.0, 0.0}};
  Pca pca;
  pca.fit(X, 1);
  const double proj_mean =
      (pca.first_component(X[0]) + pca.first_component(X[1])) / 2.0;
  EXPECT_NEAR(proj_mean, 0.0, 1e-9);
}

TEST(Pca, ThrowsWhenUnfitted) {
  Pca pca;
  EXPECT_THROW((void)pca.first_component({1.0}), std::logic_error);
  EXPECT_THROW(pca.fit({}, 1), std::invalid_argument);
}

TEST(Gaussian, EntropyBits) {
  std::vector<double> uniform4{0.25, 0.25, 0.25, 0.25};
  EXPECT_NEAR(entropy_bits(uniform4), 2.0, 1e-12);
  std::vector<double> certain{1.0, 0.0};
  EXPECT_NEAR(entropy_bits(certain), 0.0, 1e-12);
}

TEST(Gaussian, FitPerSecret) {
  const auto model = SecretGaussianModel::fit({{1.0, 1.2, 0.8}, {5.0, 5.5, 4.5}});
  ASSERT_EQ(model.per_secret.size(), 2u);
  EXPECT_NEAR(model.per_secret[0].mu, 1.0, 1e-9);
  EXPECT_NEAR(model.per_secret[1].mu, 5.0, 1e-9);
}

class MiSeparationTest : public ::testing::TestWithParam<double> {};

TEST_P(MiSeparationTest, MiGrowsWithSeparation) {
  const double separation = GetParam();
  SecretGaussianModel model;
  model.per_secret = {{0.0, 1.0}, {separation, 1.0}};
  const double mi = mutual_information_eq1(model);
  // Two equiprobable secrets: MI in [0, 1] bits.
  EXPECT_GE(mi, -1e-9);
  EXPECT_LE(mi, 1.0 + 1e-9);
  if (separation < 0.1) {
    EXPECT_LT(mi, 0.02);
  }
  if (separation > 8.0) {
    EXPECT_GT(mi, 0.98);
  }
}

INSTANTIATE_TEST_SUITE_P(Separations, MiSeparationTest,
                         ::testing::Values(0.0, 0.5, 1.0, 2.0, 4.0, 10.0));

TEST(Gaussian, MiMonotoneInSeparation) {
  double prev = -1.0;
  for (double sep : {0.0, 1.0, 2.0, 3.0, 5.0}) {
    SecretGaussianModel model;
    model.per_secret = {{0.0, 1.0}, {sep, 1.0}};
    const double mi = mutual_information_eq1(model);
    EXPECT_GE(mi, prev - 1e-6);
    prev = mi;
  }
}

TEST(Gaussian, MiWithManyWellSeparatedSecretsApproachesLogN) {
  SecretGaussianModel model;
  for (int i = 0; i < 8; ++i) {
    model.per_secret.push_back({i * 50.0, 1.0});
  }
  EXPECT_NEAR(mutual_information_eq1(model, 8001), 3.0, 0.05);
}

TEST(Gaussian, NonUniformPriorsRespectEntropyBound) {
  SecretGaussianModel model;
  model.per_secret = {{0.0, 1.0}, {100.0, 1.0}};
  model.priors = {0.9, 0.1};
  const double h = entropy_bits(model.priors);
  EXPECT_NEAR(mutual_information_eq1(model), h, 0.02);
}

TEST(Gaussian, PriorSizeMismatchThrows) {
  SecretGaussianModel model;
  model.per_secret = {{0.0, 1.0}};
  model.priors = {0.5, 0.5};
  EXPECT_THROW((void)mutual_information_eq1(model), std::invalid_argument);
}

TEST(Mi, GaussianMiZeroForIndependent) {
  util::Rng rng(9);
  std::vector<double> x, y;
  for (int i = 0; i < 5000; ++i) {
    x.push_back(rng.normal());
    y.push_back(rng.normal());
  }
  EXPECT_LT(gaussian_mi_bits(x, y), 0.01);
}

TEST(Mi, GaussianMiHighForIdentical) {
  util::Rng rng(10);
  std::vector<double> x;
  for (int i = 0; i < 1000; ++i) x.push_back(rng.normal());
  EXPECT_GT(gaussian_mi_bits(x, x), 15.0);
}

TEST(Mi, GaussianMiDecreasesWithAddedNoise) {
  util::Rng rng(11);
  std::vector<double> x;
  for (int i = 0; i < 8000; ++i) x.push_back(rng.normal(0.0, 1.0));
  double prev = 1e9;
  for (double noise : {0.1, 0.5, 1.0, 3.0, 10.0}) {
    std::vector<double> y = x;
    for (double& v : y) v += rng.normal(0.0, noise);
    const double mi = gaussian_mi_bits(x, y);
    EXPECT_LT(mi, prev);
    prev = mi;
  }
}

TEST(Mi, HistogramMiAgreesWithGaussianOnLinearData) {
  util::Rng rng(12);
  std::vector<double> x, y;
  for (int i = 0; i < 20000; ++i) {
    const double v = rng.normal();
    x.push_back(v);
    y.push_back(v + rng.normal(0.0, 1.0));
  }
  const double g = gaussian_mi_bits(x, y);
  const double h = histogram_mi_bits(x, y, 24);
  EXPECT_NEAR(g, h, 0.25);
}

TEST(Mi, HistogramMiDegenerateInputsAreZero) {
  std::vector<double> constant(100, 3.0), varying;
  for (int i = 0; i < 100; ++i) varying.push_back(i);
  EXPECT_EQ(histogram_mi_bits(constant, varying), 0.0);
  EXPECT_EQ(histogram_mi_bits({}, {}), 0.0);
}

}  // namespace
}  // namespace aegis::trace
