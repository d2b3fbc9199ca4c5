#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string_view>

#include "util/arena.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace aegis::util {
namespace {

// The superblock cache (sim/gadget_runner.cpp) dereferences arena pointers
// from a noalloc loop for the process lifetime; stability across growth is
// the whole contract.
TEST(Arena, AddressesStableAcrossChunkGrowth) {
  Arena<int, 4> arena;
  std::vector<int*> ptrs;
  for (int i = 0; i < 100; ++i) {
    int* p = arena.push();
    *p = i;
    ptrs.push_back(p);
  }
  EXPECT_EQ(arena.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(*ptrs[i], i) << "object " << i << " moved or was overwritten";
  }
}

TEST(Arena, ClearReleasesEverything) {
  Arena<double, 8> arena;
  for (int i = 0; i < 20; ++i) *arena.push() = 1.0;
  EXPECT_EQ(arena.size(), 20u);
  arena.clear();
  EXPECT_EQ(arena.size(), 0u);
  // Reusable after clear; objects are default-constructed again.
  double* p = arena.push();
  EXPECT_EQ(*p, 0.0);
  EXPECT_EQ(arena.size(), 1u);
}

// Golden vectors for FNV-1a 64. The hash names on-disk template-cache
// files (service/template_cache.cpp), so any drift in the offset basis,
// prime, or byte order silently invalidates every cached template; these
// constants pin the algorithm, independently computed from the FNV spec.
TEST(FnvHash, GoldenValuesPinTheAlgorithm) {
  EXPECT_EQ(fnv1a(""), kFnvOffset);
  EXPECT_EQ(fnv1a(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a("aegis"), 0x53ee4f03d03d1a6cULL);
  EXPECT_EQ(fnv1a("The quick brown fox"), 0x2374316b9b449782ULL);
  // hash_combine(double) chains the exact bit pattern.
  EXPECT_EQ(hash_combine(kFnvOffset, 1.5), 0xaa95e93229a27c80ULL);
}

TEST(FnvHash, ChainingMatchesOneShotOverConcatenation) {
  // NB: the chained call must go through the string_view overload by name;
  // a bare literal + state would resolve to fnv1a(const void*, size_t).
  const std::string_view head = "The quick ";
  const std::string_view tail = "brown fox";
  EXPECT_EQ(fnv1a(tail, fnv1a(head)), fnv1a("The quick brown fox"));
  const std::uint64_t word = 0x1122334455667788ULL;
  EXPECT_EQ(hash_combine(kFnvOffset, word),
            fnv1a(&word, sizeof(word)));
}

TEST(SplitMixStreams, GoldenFirstSixteenOutputs) {
  // Platform-stability pin for the shard-stream derivation: the parallel
  // campaign's bit-identical-across-thread-counts guarantee rests on
  // split_mix64(seed, stream) producing these exact seeds everywhere.
  // Pinned from the reference implementation (pure 64-bit integer
  // arithmetic, so any conforming platform must match).
  constexpr std::uint64_t kGolden[16] = {
      0x044c3cd7f43c661cULL, 0xe6984080bab12a02ULL,
      0x953aeb70673e29cbULL, 0x73d33b666a1e21daULL,
      0x3fdabe86cbbeaa11ULL, 0x77cbc4a133c2d0f6ULL,
      0x53fcd6513d02befeULL, 0x225ec07a99506761ULL,
      0x69c3a27688795369ULL, 0x1a82e79b05b5faebULL,
      0xf5ba4eb728dd632cULL, 0xeb0354df4a45b34eULL,
      0xdf0f9924a3016430ULL, 0xdd2f9b2d0b5f15e6ULL,
      0x8c5c906b1aeb85f8ULL, 0xe12e5d006cd3d6afULL,
  };
  for (std::uint64_t stream = 0; stream < 16; ++stream) {
    EXPECT_EQ(split_mix64(7, stream), kGolden[stream]) << stream;
  }
}

TEST(SplitMixStreams, DerivedStreamsAreDeterministicAndDistinct) {
  EXPECT_EQ(split_mix64(7, 3), split_mix64(7, 3));
  EXPECT_NE(split_mix64(7, 3), split_mix64(7, 4));
  EXPECT_NE(split_mix64(7, 3), split_mix64(8, 3));
}

TEST(SplitMixStreams, PairwiseXorPassesChiSquare) {
  // Stream independence: XOR two derived streams' outputs and check the
  // result is still uniform. Correlated streams (e.g. naive seed+i) would
  // concentrate mass in a few buckets. 64 buckets from the low 6 bits,
  // 4096 draws per pair: E = 64 per bucket; chi-square threshold 110 is
  // ~p=0.0001 at 63 dof — far beyond noise, tight against correlation.
  constexpr std::size_t kStreams = 6;
  constexpr std::size_t kDraws = 4096;
  constexpr std::size_t kBuckets = 64;
  std::vector<std::vector<std::uint64_t>> outputs(kStreams);
  for (std::size_t s = 0; s < kStreams; ++s) {
    Rng rng(split_mix64(7, s));
    outputs[s].reserve(kDraws);
    for (std::size_t i = 0; i < kDraws; ++i) outputs[s].push_back(rng.next_u64());
  }
  for (std::size_t a = 0; a < kStreams; ++a) {
    for (std::size_t b = a + 1; b < kStreams; ++b) {
      std::vector<std::size_t> buckets(kBuckets, 0);
      for (std::size_t i = 0; i < kDraws; ++i) {
        ++buckets[(outputs[a][i] ^ outputs[b][i]) & (kBuckets - 1)];
      }
      const double expected =
          static_cast<double>(kDraws) / static_cast<double>(kBuckets);
      double chi2 = 0.0;
      for (std::size_t k = 0; k < kBuckets; ++k) {
        const double d = static_cast<double>(buckets[k]) - expected;
        chi2 += d * d / expected;
      }
      EXPECT_LT(chi2, 110.0) << "streams " << a << " and " << b;
    }
  }
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(8);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIndexCoversRange) {
  Rng rng(9);
  std::vector<int> hits(5, 0);
  for (int i = 0; i < 5000; ++i) ++hits[rng.uniform_index(5)];
  for (int h : hits) EXPECT_GT(h, 800);
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(10);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = rng.uniform_int(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= (v == -2);
    saw_hi |= (v == 2);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(11);
  std::vector<double> samples;
  for (int i = 0; i < 40000; ++i) samples.push_back(rng.normal(2.0, 3.0));
  EXPECT_NEAR(mean(samples), 2.0, 0.1);
  EXPECT_NEAR(stddev(samples), 3.0, 0.1);
}

TEST(Rng, LaplaceMomentsMatch) {
  Rng rng(12);
  std::vector<double> samples;
  const double b = 2.0;
  for (int i = 0; i < 60000; ++i) samples.push_back(rng.laplace(1.0, b));
  EXPECT_NEAR(mean(samples), 1.0, 0.08);
  // Laplace variance = 2 b^2.
  EXPECT_NEAR(variance(samples), 2.0 * b * b, 0.4);
}

TEST(Rng, LaplaceMedianIsMu) {
  Rng rng(13);
  std::vector<double> samples;
  for (int i = 0; i < 20000; ++i) samples.push_back(rng.laplace(-4.0, 1.0));
  EXPECT_NEAR(median(samples), -4.0, 0.06);
}

TEST(Rng, ExponentialMeanIsInverseRate) {
  Rng rng(14);
  std::vector<double> samples;
  for (int i = 0; i < 30000; ++i) samples.push_back(rng.exponential(0.5));
  EXPECT_NEAR(mean(samples), 2.0, 0.1);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(15);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

class PoissonTest : public ::testing::TestWithParam<double> {};

TEST_P(PoissonTest, MeanAndVarianceEqualLambda) {
  const double lambda = GetParam();
  Rng rng(16);
  std::vector<double> samples;
  for (int i = 0; i < 30000; ++i) {
    samples.push_back(static_cast<double>(rng.poisson(lambda)));
  }
  EXPECT_NEAR(mean(samples), lambda, std::max(0.05, lambda * 0.05));
  EXPECT_NEAR(variance(samples), lambda, std::max(0.1, lambda * 0.12));
}

INSTANTIATE_TEST_SUITE_P(Lambdas, PoissonTest,
                         ::testing::Values(0.3, 1.0, 4.0, 12.0, 50.0));

TEST(Rng, PoissonZeroLambdaIsZero) {
  Rng rng(17);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.poisson(0.0), 0u);
}

TEST(Rng, PoissonWithPrecomputedLimitIsTheSameDraw) {
  // Both branches (Knuth below 30, the normal approximation above) and the
  // zero rate: same values and the same generator state afterwards.
  for (double lambda : {0.0, 0.3, 1.2, 17.5, 29.9, 30.0, 48.0}) {
    Rng a(19);
    Rng b(19);
    const double limit = std::exp(-lambda);
    for (int i = 0; i < 500; ++i) {
      ASSERT_EQ(a.poisson(lambda), b.poisson(lambda, limit))
          << "lambda " << lambda << " draw " << i;
    }
    EXPECT_EQ(a.next_u64(), b.next_u64()) << "lambda " << lambda;
  }
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(18);
  Rng child = parent.fork();
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (parent.next_u64() == child.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(19);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto original = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(Stats, MeanAndVariance) {
  std::vector<double> v{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(mean(v), 3.0);
  EXPECT_DOUBLE_EQ(variance(v), 2.5);
}

TEST(Stats, EmptyInputsAreZero) {
  std::vector<double> v;
  EXPECT_EQ(mean(v), 0.0);
  EXPECT_EQ(variance(v), 0.0);
  EXPECT_EQ(median(v), 0.0);
  EXPECT_EQ(quantile(v, 0.5), 0.0);
}

TEST(Stats, MedianOddAndEven) {
  std::vector<double> odd{5, 1, 3};
  EXPECT_DOUBLE_EQ(median(odd), 3.0);
  std::vector<double> even{4, 1, 3, 2};
  EXPECT_DOUBLE_EQ(median(even), 2.5);
}

TEST(Stats, QuantileInterpolates) {
  std::vector<double> v{0, 10};
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 10.0);
}

TEST(Stats, PearsonPerfectCorrelation) {
  std::vector<double> x{1, 2, 3, 4};
  std::vector<double> y{2, 4, 6, 8};
  EXPECT_NEAR(pearson(x, y), 1.0, 1e-12);
  std::vector<double> z{8, 6, 4, 2};
  EXPECT_NEAR(pearson(x, z), -1.0, 1e-12);
}

TEST(Stats, PearsonConstantInputIsZero) {
  std::vector<double> x{1, 1, 1, 1};
  std::vector<double> y{2, 4, 6, 8};
  EXPECT_EQ(pearson(x, y), 0.0);
}

TEST(Stats, GaussianFitRecoverParams) {
  Rng rng(20);
  std::vector<double> samples;
  for (int i = 0; i < 50000; ++i) samples.push_back(rng.normal(7.0, 2.0));
  const GaussianFit fit = fit_gaussian(samples);
  EXPECT_NEAR(fit.mu, 7.0, 0.05);
  EXPECT_NEAR(fit.sigma, 2.0, 0.05);
}

TEST(Stats, GaussianPdfIntegratesToOne) {
  double integral = 0.0;
  const double dx = 0.01;
  for (double x = -8.0; x < 8.0; x += dx) {
    integral += gaussian_pdf(x, 0.0, 1.0) * dx;
  }
  EXPECT_NEAR(integral, 1.0, 1e-3);
}

TEST(Stats, GaussianCdfKnownValues) {
  EXPECT_NEAR(gaussian_cdf(0.0, 0.0, 1.0), 0.5, 1e-9);
  EXPECT_NEAR(gaussian_cdf(1.96, 0.0, 1.0), 0.975, 1e-3);
}

class InverseNormalTest : public ::testing::TestWithParam<double> {};

TEST_P(InverseNormalTest, RoundTripsThroughCdf) {
  const double p = GetParam();
  const double x = inverse_normal_cdf(p);
  EXPECT_NEAR(gaussian_cdf(x, 0.0, 1.0), p, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Probabilities, InverseNormalTest,
                         ::testing::Values(0.001, 0.01, 0.1, 0.25, 0.5, 0.75,
                                           0.9, 0.99, 0.999));

TEST(Stats, QqCorrelationHighForNormalSamples) {
  Rng rng(21);
  std::vector<double> samples;
  for (int i = 0; i < 2000; ++i) samples.push_back(rng.normal(3.0, 5.0));
  EXPECT_GT(qq_normal_correlation(samples), 0.995);
}

TEST(Stats, QqCorrelationLowerForExponentialSamples) {
  Rng rng(22);
  std::vector<double> normal_s, exp_s;
  for (int i = 0; i < 2000; ++i) {
    normal_s.push_back(rng.normal(0.0, 1.0));
    exp_s.push_back(rng.exponential(1.0));
  }
  EXPECT_GT(qq_normal_correlation(normal_s), qq_normal_correlation(exp_s));
}

TEST(Stats, HistogramCountsSumToInput) {
  std::vector<double> v{0.0, 0.5, 1.0, 2.0, 3.0, 3.0};
  const Histogram h = make_histogram(v, 4);
  std::size_t total = 0;
  for (std::size_t c : h.counts) total += c;
  EXPECT_EQ(total, v.size());
}

TEST(Stats, StandardizeYieldsZeroMeanUnitVariance) {
  Rng rng(23);
  std::vector<double> v;
  for (int i = 0; i < 5000; ++i) v.push_back(rng.normal(10.0, 4.0));
  standardize(v);
  EXPECT_NEAR(mean(v), 0.0, 1e-9);
  EXPECT_NEAR(stddev(v), 1.0, 1e-9);
}

TEST(Stats, StandardizeConstantBecomesZeros) {
  std::vector<double> v{5, 5, 5};
  standardize(v);
  for (double x : v) EXPECT_EQ(x, 0.0);
}

TEST(Table, RendersAlignedRows) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22222"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("22222"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, RejectsArityMismatch) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, FormatHelpers) {
  EXPECT_EQ(fmt_f(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_pct(0.1234, 1), "12.3%");
  EXPECT_EQ(fmt_group(11464996), "11,464,996");
  EXPECT_EQ(fmt_group(-1234), "-1,234");
  EXPECT_EQ(fmt_group(0), "0");
}

TEST(Table, CsvOutput) {
  std::ostringstream os;
  write_csv(os, {"a", "b"}, {{"1", "2"}, {"3", "4"}});
  EXPECT_EQ(os.str(), "a,b\n1,2\n3,4\n");
}

}  // namespace
}  // namespace aegis::util
