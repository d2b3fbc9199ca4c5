#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "dp/baselines.hpp"
#include "dp/dstar.hpp"
#include "dp/laplace.hpp"
#include "util/stats.hpp"

namespace aegis::dp {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(Laplace, NoiseIsZeroCenteredWithCorrectScale) {
  LaplaceMechanism mech(0.5, 1.0, 1);
  std::vector<double> noise;
  for (int i = 0; i < 60000; ++i) noise.push_back(mech.noisy_value(0.0));
  EXPECT_NEAR(util::mean(noise), 0.0, 0.05);
  // Lap(b) variance = 2 b^2 with b = sensitivity / epsilon = 2.
  EXPECT_NEAR(util::variance(noise), 8.0, 0.5);
}

TEST(Laplace, ScaleTracksEpsilonAndSensitivity) {
  EXPECT_DOUBLE_EQ(LaplaceMechanism(2.0, 1.0, 1).scale(), 0.5);
  EXPECT_DOUBLE_EQ(LaplaceMechanism(0.5, 3.0, 1).scale(), 6.0);
}

TEST(Laplace, RejectsInvalidParameters) {
  EXPECT_THROW(LaplaceMechanism(0.0, 1.0, 1), std::invalid_argument);
  EXPECT_THROW(LaplaceMechanism(1.0, -1.0, 1), std::invalid_argument);
  // NaN fails every comparison, so it must be rejected explicitly.
  EXPECT_THROW(LaplaceMechanism(std::nan(""), 1.0, 1), std::invalid_argument);
  EXPECT_THROW(LaplaceMechanism(1.0, std::nan(""), 1), std::invalid_argument);
  EXPECT_THROW(LaplaceMechanism(kInf, 1.0, 1), std::invalid_argument);
}

/// Numerical verification of Theorem 1: for adjacent inputs x, x' with
/// |x - x'| <= Delta, the output density ratio is bounded by exp(eps).
/// We estimate densities from histograms of many mechanism outputs.
class LaplaceDpBoundTest : public ::testing::TestWithParam<double> {};

TEST_P(LaplaceDpBoundTest, EpsilonDpRatioBoundHolds) {
  const double eps = GetParam();
  const double x = 0.0, x_adj = 1.0;  // |x - x'| = Delta = 1
  LaplaceMechanism m1(eps, 1.0, 11), m2(eps, 1.0, 22);
  constexpr int kSamples = 200000;
  std::vector<double> out1, out2;
  out1.reserve(kSamples);
  out2.reserve(kSamples);
  for (int i = 0; i < kSamples; ++i) {
    out1.push_back(m1.noisy_value(x));
    out2.push_back(m2.noisy_value(x_adj));
  }
  const double lo = -3.0 / eps, hi = 3.0 / eps + 1.0;
  constexpr std::size_t kBins = 30;
  const auto h1 = util::make_histogram(out1, kBins, lo, hi);
  const auto h2 = util::make_histogram(out2, kBins, lo, hi);
  const double bound = std::exp(eps);
  for (std::size_t b = 0; b < kBins; ++b) {
    const double p1 = static_cast<double>(h1.counts[b]) / kSamples;
    const double p2 = static_cast<double>(h2.counts[b]) / kSamples;
    if (p1 < 2e-3 || p2 < 2e-3) continue;  // skip statistically thin bins
    EXPECT_LT(p1 / p2, bound * 1.25) << "bin " << b << " eps " << eps;
    EXPECT_LT(p2 / p1, bound * 1.25) << "bin " << b << " eps " << eps;
  }
}

INSTANTIATE_TEST_SUITE_P(Epsilons, LaplaceDpBoundTest,
                         ::testing::Values(0.25, 0.5, 1.0, 2.0));

TEST(DStar, LargestDividingPow2) {
  EXPECT_EQ(largest_dividing_pow2(1), 1u);
  EXPECT_EQ(largest_dividing_pow2(2), 2u);
  EXPECT_EQ(largest_dividing_pow2(3), 1u);
  EXPECT_EQ(largest_dividing_pow2(4), 4u);
  EXPECT_EQ(largest_dividing_pow2(6), 2u);
  EXPECT_EQ(largest_dividing_pow2(12), 4u);
  EXPECT_EQ(largest_dividing_pow2(96), 32u);
}

struct GtCase {
  std::uint64_t t, expected;
};

class DStarParentTest : public ::testing::TestWithParam<GtCase> {};

TEST_P(DStarParentTest, MatchesEq4) {
  EXPECT_EQ(dstar_parent(GetParam().t), GetParam().expected);
}

INSTANTIATE_TEST_SUITE_P(
    Eq4Table, DStarParentTest,
    ::testing::Values(GtCase{1, 0},    // t = 1 -> 0
                      GtCase{2, 1},    // t = D(t) = 2 -> t/2
                      GtCase{4, 2},    // power of two -> t/2
                      GtCase{8, 4},
                      GtCase{3, 2},    // t > D(t) -> t - D(t)
                      GtCase{6, 4},
                      GtCase{12, 8},
                      GtCase{13, 12},
                      GtCase{20, 16}));

TEST(DStar, ParentChainTerminatesAtZero) {
  for (std::uint64_t t = 1; t <= 256; ++t) {
    std::uint64_t cursor = t;
    int hops = 0;
    while (cursor != 0 && hops < 64) {
      const std::uint64_t parent = dstar_parent(cursor);
      EXPECT_LT(parent, cursor);
      cursor = parent;
      ++hops;
    }
    EXPECT_EQ(cursor, 0u);
    // Tree property: O(log t) hops to the root.
    EXPECT_LE(hops, 2 * 8 + 2);
  }
}

TEST(DStar, TracksInputWithHighEpsilon) {
  // With a huge privacy budget the noise is negligible and the released
  // series follows x almost exactly through the tree reconstruction.
  DStarMechanism mech(1e6, 3);
  for (int t = 1; t <= 64; ++t) {
    const double x = 10.0 * t + std::sin(t);
    EXPECT_NEAR(mech.noisy_value(x), x, 1e-3) << t;
  }
}

TEST(DStar, NoiseGrowsAsEpsilonShrinks) {
  auto mean_abs_error = [](double eps) {
    DStarMechanism mech(eps, 4);
    double err = 0.0;
    for (int t = 1; t <= 512; ++t) {
      err += std::abs(mech.noisy_value(5.0) - 5.0);
    }
    return err / 512.0;
  };
  EXPECT_LT(mean_abs_error(4.0), mean_abs_error(0.25));
}

TEST(DStar, ResetClearsHistory) {
  DStarMechanism a(1.0, 5), b(1.0, 5);
  std::vector<double> first;
  for (int t = 1; t <= 16; ++t) first.push_back(a.noisy_value(t));
  a.reset();
  for (int t = 1; t <= 16; ++t) {
    // Same seed stream continues, so values differ from the first pass, but
    // the structural reconstruction restarts: the mechanism must not throw
    // and must keep tracking the fresh series.
    const double v = a.noisy_value(t);
    EXPECT_TRUE(std::isfinite(v));
  }
  (void)b;
}

TEST(DStar, NoiseIsCorrelatedAcrossTime) {
  // The tree construction reuses parent noise: adjacent outputs share terms,
  // unlike i.i.d. Laplace. Correlation of consecutive errors is positive.
  DStarMechanism mech(0.5, 6);
  std::vector<double> errors;
  for (int t = 1; t <= 4096; ++t) errors.push_back(mech.noisy_value(0.0));
  std::vector<double> a(errors.begin(), errors.end() - 1);
  std::vector<double> b(errors.begin() + 1, errors.end());
  EXPECT_GT(util::pearson(a, b), 0.2);
}

TEST(DStar, RejectsInvalidEpsilon) {
  EXPECT_THROW(DStarMechanism(0.0, 1), std::invalid_argument);
  EXPECT_THROW(DStarMechanism(std::nan(""), 1), std::invalid_argument);
  EXPECT_THROW(DStarMechanism(kInf, 1), std::invalid_argument);
}

TEST(Baselines, UniformRandomWithinBound) {
  UniformRandomMechanism mech(5.0, 7);
  for (int i = 0; i < 5000; ++i) {
    const double v = mech.noisy_value(2.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 7.0);
  }
}

TEST(Baselines, UniformRandomMeanIsHalfBound) {
  UniformRandomMechanism mech(10.0, 8);
  std::vector<double> noise;
  for (int i = 0; i < 30000; ++i) noise.push_back(mech.noisy_value(0.0));
  EXPECT_NEAR(util::mean(noise), 5.0, 0.15);
}

TEST(Baselines, UniformRandomRejectsNegativeBound) {
  EXPECT_THROW(UniformRandomMechanism(-1.0, 1), std::invalid_argument);
  EXPECT_THROW(UniformRandomMechanism(std::nan(""), 1), std::invalid_argument);
  EXPECT_THROW(UniformRandomMechanism(kInf, 1), std::invalid_argument);
}

TEST(Baselines, ConstantOutputRejectsNonFiniteLevel) {
  EXPECT_THROW(ConstantOutputMechanism{std::nan("")}, std::invalid_argument);
  EXPECT_THROW(ConstantOutputMechanism{kInf}, std::invalid_argument);
}

TEST(Baselines, ConstantOutputPadsToLevel) {
  ConstantOutputMechanism mech(100.0);
  EXPECT_DOUBLE_EQ(mech.noisy_value(30.0), 100.0);
  EXPECT_DOUBLE_EQ(mech.noisy_value(0.0), 100.0);
  // Values above the level pass through (the peak was underestimated).
  EXPECT_DOUBLE_EQ(mech.noisy_value(130.0), 130.0);
}

TEST(Baselines, ConstantOutputCostsFarMoreThanLaplace) {
  // Section IX-A: padding to the peak injects ~18x the Laplace noise.
  ConstantOutputMechanism constant(1.0);  // peak-normalized level
  LaplaceMechanism laplace(1.0, 1.0, 9);
  util::Rng rng(10);
  double constant_cost = 0.0, laplace_cost = 0.0;
  for (int i = 0; i < 20000; ++i) {
    const double x = rng.uniform(0.0, 0.2);  // typical slice well below peak
    constant_cost += constant.noisy_value(x) - x;
    const double lap_noise = laplace.noisy_value(x) - x;
    laplace_cost += std::max(lap_noise, 0.0);  // injection cannot be negative
  }
  EXPECT_GT(constant_cost / laplace_cost, 1.5);
}

TEST(Factory, MakesEveryKind) {
  for (MechanismKind kind :
       {MechanismKind::kLaplace, MechanismKind::kDStar,
        MechanismKind::kUniformRandom, MechanismKind::kConstantOutput}) {
    MechanismConfig config;
    config.kind = kind;
    config.epsilon = 1.0;
    const auto mech = make_mechanism(config);
    ASSERT_NE(mech, nullptr);
    EXPECT_EQ(mech->name(), to_string(kind));
    EXPECT_TRUE(std::isfinite(mech->noisy_value(1.0)));
  }
}

}  // namespace
}  // namespace aegis::dp
