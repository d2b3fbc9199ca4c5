#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "ml/gaussian_nb.hpp"
#include "ml/knn.hpp"
#include "ml/metrics.hpp"
#include "ml/mlp.hpp"
#include "ml/mlp_kernel.hpp"
#include "ml/sequence_model.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace aegis::ml {
namespace {

/// Gaussian blobs: `classes` clusters around distinct centres.
void make_blobs(std::size_t classes, std::size_t per_class, double spread,
                FeatureMatrix& X, Labels& y, std::uint64_t seed) {
  util::Rng rng(seed);
  for (std::size_t c = 0; c < classes; ++c) {
    const double cx = std::cos(2.0 * 3.14159 * c / classes) * 5.0;
    const double cy = std::sin(2.0 * 3.14159 * c / classes) * 5.0;
    for (std::size_t i = 0; i < per_class; ++i) {
      X.push_back({rng.normal(cx, spread), rng.normal(cy, spread)});
      y.push_back(static_cast<int>(c));
    }
  }
}

TEST(Softmax, NormalizesAndOrders) {
  std::vector<double> logits{1.0, 3.0, 2.0};
  softmax(logits);
  double sum = 0.0;
  for (double p : logits) sum += p;
  EXPECT_NEAR(sum, 1.0, 1e-12);
  EXPECT_GT(logits[1], logits[2]);
  EXPECT_GT(logits[2], logits[0]);
}

TEST(Softmax, StableForLargeLogits) {
  std::vector<double> logits{1000.0, 999.0};
  softmax(logits);
  EXPECT_TRUE(std::isfinite(logits[0]));
  EXPECT_GT(logits[0], logits[1]);
}

TEST(Softmax, EmptyIsLeftAlone) {
  std::vector<double> logits;
  softmax(logits);
  EXPECT_TRUE(logits.empty());
}

class MlpBlobsTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MlpBlobsTest, LearnsSeparableBlobs) {
  const std::size_t classes = GetParam();
  FeatureMatrix X, Xv;
  Labels y, yv;
  make_blobs(classes, 60, 0.6, X, y, 1);
  make_blobs(classes, 20, 0.6, Xv, yv, 2);
  MlpConfig config;
  config.epochs = 40;
  config.hidden = {16};
  MlpClassifier mlp(2, classes, config);
  const auto history = mlp.fit(X, y, Xv, yv);
  ASSERT_EQ(history.size(), 40u);
  EXPECT_GT(history.back().val_accuracy, 0.9);
  // Loss decreases over training.
  EXPECT_LT(history.back().train_loss, history.front().train_loss);
}

INSTANTIATE_TEST_SUITE_P(ClassCounts, MlpBlobsTest,
                         ::testing::Values(2u, 4u, 8u));

TEST(Mlp, RandomLabelsStayNearChance) {
  util::Rng rng(3);
  FeatureMatrix X, Xv;
  Labels y, yv;
  for (int i = 0; i < 300; ++i) {
    X.push_back({rng.normal(), rng.normal()});
    y.push_back(static_cast<int>(rng.uniform_index(4)));
  }
  for (int i = 0; i < 100; ++i) {
    Xv.push_back({rng.normal(), rng.normal()});
    yv.push_back(static_cast<int>(rng.uniform_index(4)));
  }
  MlpConfig config;
  config.epochs = 20;
  MlpClassifier mlp(2, 4, config);
  const auto history = mlp.fit(X, y, Xv, yv);
  EXPECT_LT(history.back().val_accuracy, 0.45);
}

TEST(Mlp, PredictProbaSumsToOne) {
  MlpClassifier mlp(3, 5, MlpConfig{});
  const auto probs = mlp.predict_proba({0.1, -0.2, 0.4});
  ASSERT_EQ(probs.size(), 5u);
  double sum = 0.0;
  for (double p : probs) sum += p;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Mlp, DeterministicGivenSeed) {
  FeatureMatrix X;
  Labels y;
  make_blobs(3, 30, 0.5, X, y, 4);
  MlpConfig config;
  config.epochs = 5;
  config.seed = 77;
  MlpClassifier a(2, 3, config), b(2, 3, config);
  const auto ha = a.fit(X, y, {}, {});
  const auto hb = b.fit(X, y, {}, {});
  EXPECT_DOUBLE_EQ(ha.back().train_loss, hb.back().train_loss);
}

TEST(Mlp, FitRejectsSizeMismatch) {
  MlpClassifier mlp(2, 2, MlpConfig{});
  EXPECT_THROW(mlp.fit({{1.0, 2.0}}, {0, 1}, {}, {}), std::invalid_argument);
}

TEST(Mlp, InputNoiseRegularizerStillLearns) {
  FeatureMatrix X, Xv;
  Labels y, yv;
  make_blobs(3, 60, 0.4, X, y, 5);
  make_blobs(3, 20, 0.4, Xv, yv, 6);
  MlpConfig config;
  config.epochs = 30;
  config.input_noise = 0.3;
  MlpClassifier mlp(2, 3, config);
  const auto history = mlp.fit(X, y, Xv, yv);
  EXPECT_GT(history.back().val_accuracy, 0.85);
}

// ---------------------------------------------------------------------------
// MlpDigest: FNV-1a digests over every double bit of fit()'s history (loss,
// train accuracy, validation accuracy) and of predict_proba over a fixed
// probe set. The digests were captured while fit still ran its forward and
// backward passes one sample at a time, so the batched engine has to keep
// every sum's order, every RNG draw and every update bit for bit.

/// `classes` Gaussian clusters in `dim` dimensions, centres drawn from the
/// same stream, labels interleaved so every batch mixes classes.
void make_task(std::size_t n, std::size_t dim, std::size_t classes,
               std::uint64_t seed, FeatureMatrix& X, Labels& y) {
  util::Rng rng(seed);
  std::vector<std::vector<double>> centres(classes, std::vector<double>(dim));
  for (auto& c : centres) {
    for (double& v : c) v = rng.normal(0.0, 1.5);
  }
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t label = i % classes;
    std::vector<double> row(dim);
    for (std::size_t j = 0; j < dim; ++j) {
      row[j] = rng.normal(centres[label][j], 1.0);
    }
    X.push_back(std::move(row));
    y.push_back(static_cast<int>(label));
  }
}

std::uint64_t digest(const std::vector<EpochStats>& history) {
  std::uint64_t h =
      util::hash_combine(util::kFnvOffset, std::uint64_t{history.size()});
  for (const EpochStats& s : history) {
    h = util::hash_combine(h, std::uint64_t{s.epoch});
    h = util::hash_combine(h, s.train_loss);
    h = util::hash_combine(h, s.train_accuracy);
    h = util::hash_combine(h, s.val_accuracy);
  }
  return h;
}

struct DigestCase {
  std::size_t dim;
  std::size_t classes;
  std::size_t train;
  std::size_t val;
  MlpConfig config;
};

/// Trains one model and returns {history digest, probe digest}; the probe
/// digest covers predict_proba's bits and predict's labels on 24 fresh rows.
std::pair<std::uint64_t, std::uint64_t> train_and_digest(const DigestCase& c) {
  FeatureMatrix X, Xv, probes;
  Labels y, yv, probe_labels;
  make_task(c.train, c.dim, c.classes, 21, X, y);
  make_task(c.val, c.dim, c.classes, 22, Xv, yv);
  make_task(24, c.dim, c.classes, 23, probes, probe_labels);
  MlpClassifier mlp(c.dim, c.classes, c.config);
  const std::uint64_t history = digest(mlp.fit(X, y, Xv, yv));
  std::uint64_t probe = util::kFnvOffset;
  for (const auto& x : probes) {
    for (double p : mlp.predict_proba(x)) probe = util::hash_combine(probe, p);
    probe = util::hash_combine(probe, std::uint64_t(mlp.predict(x)));
  }
  probe = util::hash_combine(probe, mlp.accuracy(probes, probe_labels));
  return {history, probe};
}

MlpConfig digest_config(std::vector<std::size_t> hidden, std::size_t batch) {
  MlpConfig config;
  config.hidden = std::move(hidden);
  config.batch_size = batch;
  config.epochs = 4;
  config.seed = 0xD16E57ULL;
  return config;
}

void expect_digests(const DigestCase& c, std::uint64_t history,
                    std::uint64_t probe) {
  const auto [h, p] = train_and_digest(c);
  EXPECT_EQ(h, history) << std::hex << "history 0x" << h;
  EXPECT_EQ(p, probe) << std::hex << "probe 0x" << p;
}

TEST(MlpDigest, MeaShapePinned) {
  // The MEA frame classifier: 5 frames x 4 events in, {64, 32}, batch 64.
  MlpConfig config = digest_config({64, 32}, 64);
  config.learning_rate = 0.02;
  expect_digests({20, 7, 640, 128, config}, 0xf6516a9992202a2aULL, 0x94bbe27afbc911ebULL);
}

TEST(MlpDigest, WfaShapePinned) {
  // The WFA classifier: 24 windows x 4 events in, {96, 48}, batch 32.
  expect_digests({96, 10, 320, 80, digest_config({96, 48}, 32)}, 0xfc66143a7d92e61eULL,
                 0x61bd587a251a1794ULL);
}

TEST(MlpDigest, PartialLastBatchPinned) {
  // 203 = 6 x 32 + 11: every epoch ends on an 11-sample batch.
  expect_digests({12, 4, 203, 41, digest_config({24, 12}, 32)}, 0xdef328a23a92ac34ULL,
                 0x4766c68732eed8e5ULL);
}

TEST(MlpDigest, InputNoisePinned) {
  MlpConfig config = digest_config({32, 16}, 32);
  config.input_noise = 0.25;
  expect_digests({10, 3, 150, 30, config}, 0xb3383aabf51820b7ULL, 0xef0f95b98574c18eULL);
}

TEST(MlpDigest, SingleHiddenLayerPinned) {
  expect_digests({5, 4, 100, 20, digest_config({16}, 32)}, 0x3b63f876409b446aULL, 0x8fa5d3b51861b740ULL);
}

TEST(MlpDigest, SingleClassPinned) {
  expect_digests({6, 1, 50, 10, digest_config({8, 4}, 16)}, 0xcf2e2074b87c3701ULL, 0x110f5da24d7e88b8ULL);
}

TEST(Mlp, PredictProbaRowsMatchesPredictProbaBitForBit) {
  // 130 rows = two full 64-row forward passes and a 2-row tail.
  FeatureMatrix X;
  Labels y;
  make_task(130, 9, 5, 31, X, y);
  MlpClassifier mlp(9, 5, digest_config({16, 8}, 32));
  (void)mlp.fit(X, y, {}, {});
  std::vector<double> inputs;
  for (const auto& x : X) inputs.insert(inputs.end(), x.begin(), x.end());
  std::vector<double> probs(X.size() * 5);
  mlp.predict_proba_rows(inputs, probs);
  for (std::size_t r = 0; r < X.size(); ++r) {
    const std::vector<double> one = mlp.predict_proba(X[r]);
    ASSERT_EQ(std::memcmp(one.data(), &probs[r * 5], 5 * sizeof(double)), 0) << r;
  }
  std::vector<double> short_probs(4);
  EXPECT_THROW(mlp.predict_proba_rows(inputs, short_probs), std::invalid_argument);
  EXPECT_THROW(mlp.predict_proba_rows(std::span(inputs).first(17), probs),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// MlpKernel: the product kernel's two builds against each other and against
// the per-cell scalar loop its contract names, bit for bit.

struct KernelCase {
  std::size_t rows, depth, cols;
  bool init;
  bool strided;  // left read as outer_accumulate reads it: (r, k) at k * rows + r
};

/// Runs one case through `kernel` on operands drawn from `seed`; values span
/// 2^-30..2^30 so that every add rounds.
std::vector<double> run_kernel(void (*kernel)(const kernel::Product&),
                               const KernelCase& c, std::uint64_t seed) {
  util::Rng rng(seed);
  auto draw = [&](std::size_t n) {
    std::vector<double> v(n);
    for (double& x : v) x = std::ldexp(rng.normal(), static_cast<int>(rng.uniform_int(-30, 30)));
    return v;
  };
  const std::vector<double> left = draw(c.rows * c.depth);
  const std::vector<double> right = draw(c.depth * c.cols);
  const std::vector<double> init = draw(c.cols);
  std::vector<double> out(c.rows * c.cols);
  kernel({left.data(), c.strided ? 1 : c.depth, c.strided ? c.rows : 1,
          right.data(), c.init ? init.data() : nullptr, out.data(), c.rows,
          c.depth, c.cols});
  return out;
}

/// The contract, one cell at a time: init[c] (or 0.0) plus the terms in
/// ascending k.
void scalar_product(const kernel::Product& p) {
  for (std::size_t r = 0; r < p.rows; ++r) {
    for (std::size_t c = 0; c < p.cols; ++c) {
      double sum = p.init != nullptr ? p.init[c] : 0.0;
      for (std::size_t k = 0; k < p.depth; ++k) {
        sum += p.left[r * p.left_row + k * p.left_k] * p.right[k * p.cols + c];
      }
      p.out[r * p.cols + c] = sum;
    }
  }
}

/// Edge shapes plus a seeded sweep over rows 1-70, depth 1-130, cols 1-100.
std::vector<KernelCase> kernel_cases() {
  std::vector<KernelCase> cases;
  for (bool init : {false, true}) {
    for (bool strided : {false, true}) {
      for (std::size_t cols : {1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 100}) {
        cases.push_back({1, 1, cols, init, strided});
        cases.push_back({70, 130, cols, init, strided});
      }
      util::Rng rng(0x6E7E1 + 2 * init + strided);
      for (int i = 0; i < 60; ++i) {
        cases.push_back({1 + rng.uniform_index(70), 1 + rng.uniform_index(130),
                         1 + rng.uniform_index(100), init, strided});
      }
    }
  }
  return cases;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(MlpKernel, BaselineMatchesScalarLoopBitForBit) {
  const std::vector<KernelCase> cases = kernel_cases();
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const KernelCase& c = cases[i];
    ASSERT_TRUE(same_bits(run_kernel(kernel::tiled_product_baseline, c, i),
                          run_kernel(scalar_product, c, i)))
        << c.rows << "x" << c.depth << "x" << c.cols << " init " << c.init
        << " strided " << c.strided;
  }
}

TEST(MlpKernel, Avx2MatchesBaselineBitForBit) {
#if defined(__x86_64__)
  if (!__builtin_cpu_supports("avx2")) GTEST_SKIP() << "CPU has no AVX2";
  const std::vector<KernelCase> cases = kernel_cases();
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const KernelCase& c = cases[i];
    ASSERT_TRUE(same_bits(run_kernel(kernel::tiled_product_avx2, c, i),
                          run_kernel(kernel::tiled_product_baseline, c, i)))
        << c.rows << "x" << c.depth << "x" << c.cols << " init " << c.init
        << " strided " << c.strided;
  }
#else
  GTEST_SKIP() << "the AVX2 build exists only on x86-64";
#endif
}

TEST(GaussianNb, ClassifiesBlobs) {
  FeatureMatrix X, Xv;
  Labels y, yv;
  make_blobs(4, 60, 0.5, X, y, 7);
  make_blobs(4, 20, 0.5, Xv, yv, 8);
  GaussianNbClassifier nb;
  nb.fit(X, y, 4);
  EXPECT_GT(nb.accuracy(Xv, yv), 0.9);
}

TEST(GaussianNb, RespectsPriors) {
  // All training mass in class 1 at the origin: prediction must be 1.
  FeatureMatrix X = {{0.0, 0.0}, {0.1, 0.1}, {-0.1, 0.0}};
  Labels y = {1, 1, 1};
  GaussianNbClassifier nb;
  nb.fit(X, y, 3);
  EXPECT_EQ(nb.predict({0.05, 0.05}), 1);
}

TEST(GaussianNb, ThrowsOnBadInput) {
  GaussianNbClassifier nb;
  EXPECT_THROW(nb.fit({}, {}, 2), std::invalid_argument);
}

TEST(Knn, ClassifiesBlobs) {
  FeatureMatrix X, Xv;
  Labels y, yv;
  make_blobs(4, 50, 0.5, X, y, 9);
  make_blobs(4, 20, 0.5, Xv, yv, 10);
  KnnClassifier knn(5);
  knn.fit(std::move(X), std::move(y), 4);
  EXPECT_GT(knn.accuracy(Xv, yv), 0.9);
}

TEST(Knn, KOneMatchesNearestTrainingPoint) {
  KnnClassifier knn(1);
  knn.fit({{0.0}, {10.0}}, {0, 1}, 2);
  EXPECT_EQ(knn.predict({1.0}), 0);
  EXPECT_EQ(knn.predict({9.0}), 1);
}

TEST(Metrics, EditDistanceCases) {
  EXPECT_EQ(edit_distance(std::vector<int>{}, std::vector<int>{}), 0u);
  EXPECT_EQ(edit_distance(std::vector<int>{1, 2, 3}, std::vector<int>{1, 2, 3}), 0u);
  EXPECT_EQ(edit_distance(std::vector<int>{1, 2, 3}, std::vector<int>{1, 3}), 1u);
  EXPECT_EQ(edit_distance(std::vector<int>{1, 2}, std::vector<int>{3, 4}), 2u);
  EXPECT_EQ(edit_distance(std::vector<int>{}, std::vector<int>{1, 2}), 2u);
}

TEST(Metrics, SequenceMatchAccuracy) {
  EXPECT_DOUBLE_EQ(
      sequence_match_accuracy(std::vector<int>{1, 2, 3, 4}, std::vector<int>{1, 2, 3, 4}),
      1.0);
  EXPECT_DOUBLE_EQ(
      sequence_match_accuracy(std::vector<int>{1, 2, 3, 4}, std::vector<int>{1, 2, 3, 5}),
      0.75);
  EXPECT_DOUBLE_EQ(sequence_match_accuracy(std::vector<int>{}, std::vector<int>{}), 1.0);
}

TEST(Metrics, CtcCollapse) {
  const int blank = 9;
  // Repeated labels merge; blank separates repeats; blanks vanish.
  EXPECT_EQ(ctc_collapse(std::vector<int>{1, 1, 9, 1, 2, 2, 9, 9, 3}, blank),
            (std::vector<int>{1, 1, 2, 3}));
  EXPECT_EQ(ctc_collapse(std::vector<int>{9, 9, 9}, blank), (std::vector<int>{}));
  EXPECT_EQ(ctc_collapse(std::vector<int>{}, blank), (std::vector<int>{}));
}

/// Builds synthetic frame sequences: each label paints a distinct constant
/// pattern over the frame features, with short blank gaps.
FrameSequence make_sequence(const std::vector<int>& tokens, int blank,
                            util::Rng& rng) {
  FrameSequence seq;
  for (int token : tokens) {
    const std::size_t dur = 2 + rng.uniform_index(3);
    for (std::size_t d = 0; d < dur; ++d) {
      seq.frames.push_back({static_cast<double>(token) + rng.normal(0.0, 0.08),
                            static_cast<double>(token * token) / 4.0 +
                                rng.normal(0.0, 0.08)});
      seq.labels.push_back(token);
    }
    seq.frames.push_back({rng.normal(-2.0, 0.08), rng.normal(-2.0, 0.08)});
    seq.labels.push_back(blank);
  }
  return seq;
}

TEST(SequenceModel, LearnsAndDecodesTokenSequences) {
  util::Rng rng(11);
  const int blank = 4;
  SequenceModelConfig config;
  config.blank_label = blank;
  config.context = 1;
  config.mlp.epochs = 25;
  config.mlp.hidden = {24};
  FrameSequenceModel model(config);

  std::vector<FrameSequence> train, val;
  std::vector<std::vector<int>> val_refs;
  for (int i = 0; i < 40; ++i) {
    std::vector<int> tokens;
    for (int k = 0; k < 5; ++k) {
      tokens.push_back(static_cast<int>(rng.uniform_index(4)));
    }
    if (i < 32) {
      train.push_back(make_sequence(tokens, blank, rng));
    } else {
      val.push_back(make_sequence(tokens, blank, rng));
      val_refs.push_back(tokens);
    }
  }
  const auto history = model.fit(train, val, blank + 1);
  EXPECT_GT(history.back().val_accuracy, 0.9);

  std::vector<FrameSequence> test_seqs;
  for (auto& seq : val) {
    FrameSequence s;
    s.frames = seq.frames;
    test_seqs.push_back(std::move(s));
  }
  EXPECT_GT(model.evaluate(test_seqs, val_refs), 0.85);
}

TEST(SequenceModel, RepeatedTokensSurviveDecoding) {
  util::Rng rng(12);
  const int blank = 3;
  SequenceModelConfig config;
  config.blank_label = blank;
  config.context = 1;
  config.mlp.epochs = 25;
  config.mlp.hidden = {16};
  FrameSequenceModel model(config);
  std::vector<FrameSequence> train;
  for (int i = 0; i < 30; ++i) {
    train.push_back(make_sequence({1, 1, 2}, blank, rng));
  }
  (void)model.fit(train, {}, blank + 1);
  const FrameSequence probe = make_sequence({1, 1, 2}, blank, rng);
  FrameSequence unlabeled;
  unlabeled.frames = probe.frames;
  const auto decoded = model.decode_beam(unlabeled);
  EXPECT_EQ(decoded, (std::vector<int>{1, 1, 2}));
}

TEST(SequenceModel, GreedyAndBeamAgreeOnCleanData) {
  util::Rng rng(13);
  const int blank = 4;
  SequenceModelConfig config;
  config.blank_label = blank;
  config.mlp.epochs = 20;
  config.mlp.hidden = {16};
  FrameSequenceModel model(config);
  std::vector<FrameSequence> train;
  for (int i = 0; i < 30; ++i) {
    train.push_back(make_sequence({0, 2, 1, 3}, blank, rng));
  }
  (void)model.fit(train, {}, blank + 1);
  FrameSequence probe;
  probe.frames = make_sequence({0, 2, 1, 3}, blank, rng).frames;
  EXPECT_EQ(model.decode_greedy(probe), model.decode_beam(probe));
}

TEST(SequenceModel, DecodeBeamDigestPinned) {
  util::Rng rng(14);
  const int blank = 4;
  SequenceModelConfig config;
  config.blank_label = blank;
  config.context = 1;
  config.mlp.epochs = 6;
  config.mlp.hidden = {16, 8};
  FrameSequenceModel model(config);
  std::vector<FrameSequence> train, val;
  for (int i = 0; i < 12; ++i) {
    std::vector<int> tokens;
    for (int k = 0; k < 4; ++k) {
      tokens.push_back(static_cast<int>(rng.uniform_index(4)));
    }
    (i < 9 ? train : val).push_back(make_sequence(tokens, blank, rng));
  }
  const std::uint64_t history = digest(model.fit(train, val, blank + 1));
  std::uint64_t decoded = util::kFnvOffset;
  for (int i = 0; i < 4; ++i) {
    FrameSequence probe;
    probe.frames = make_sequence({3, 1, 1, 0, 2}, blank, rng).frames;
    const std::vector<int> labels = model.decode_beam(probe);
    decoded = util::hash_combine(decoded, std::uint64_t{labels.size()});
    for (int label : labels) {
      decoded = util::hash_combine(decoded, std::uint64_t(label));
    }
  }
  EXPECT_EQ(history, 0x836bf337665e6d53ULL) << std::hex << "history 0x" << history;
  EXPECT_EQ(decoded, 0x5348812e7e704c4aULL) << std::hex << "decoded 0x" << decoded;
}

TEST(SequenceModel, ThrowsBeforeTraining) {
  FrameSequenceModel model(SequenceModelConfig{});
  FrameSequence seq;
  seq.frames = {{0.0}};
  EXPECT_THROW((void)model.decode_greedy(seq), std::logic_error);
  EXPECT_THROW((void)model.fit({}, {}, 2), std::invalid_argument);
}

TEST(SequenceModel, RejectsTrainingSequencesWithoutFrames) {
  FrameSequenceModel model(SequenceModelConfig{});
  FrameSequence empty;
  FrameSequence val;
  val.frames = {{0.0}, {1.0}};
  val.labels = {0, 1};
  EXPECT_THROW((void)model.fit({empty, empty}, {val}, 2),
               std::invalid_argument);
}

TEST(SequenceModel, RejectsUnalignedLabels) {
  FrameSequenceModel model(SequenceModelConfig{});
  FrameSequence bad;
  bad.frames = {{0.0}, {1.0}};
  bad.labels = {0};
  EXPECT_THROW((void)model.fit({bad}, {}, 2), std::invalid_argument);
}

}  // namespace
}  // namespace aegis::ml
