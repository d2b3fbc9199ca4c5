// Failure-injection and edge-case tests: the library must degrade
// gracefully (clear exceptions, empty results) rather than crash or hang
// when configured at the boundaries.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "attack/wfa.hpp"
#include "core/aegis.hpp"
#include "core/serialize.hpp"
#include "fuzzer/fuzzer.hpp"
#include "ml/gaussian_nb.hpp"
#include "ml/knn.hpp"
#include "obf/obfuscator.hpp"
#include "profiler/profiler.hpp"
#include "workload/idle.hpp"

namespace aegis {
namespace {

TEST(Robustness, VmWithZeroBudgetDoesNotHang) {
  sim::VmConfig config;
  config.slice_budget_cycles = 0.0;
  config.interrupt_rate = 0.0;
  sim::VirtualMachine vm(config, 1);
  sim::InstructionBlock b;
  b.uops = 100;
  vm.submit(b);
  // With a zero budget the first block of a slice still executes (budget is
  // checked before each block, and one block may overshoot), so the queue
  // drains one block per slice rather than deadlocking.
  int slices = 0;
  while (vm.pending() && slices < 10) {
    (void)vm.run_slice();
    ++slices;
  }
  EXPECT_FALSE(vm.pending());
}

TEST(Robustness, VmWithExtremeInterruptLoadStillRuns) {
  sim::VmConfig config;
  config.interrupt_rate = 500.0;  // pathological interrupt storm
  sim::VirtualMachine vm(config, 2);
  for (int t = 0; t < 20; ++t) {
    const auto stats = vm.run_slice();
    EXPECT_GT(stats.interrupts, 0.0);
    EXPECT_TRUE(std::isfinite(stats.cycles));
  }
  EXPECT_LE(vm.cpu_usage(), 1.0);
}

TEST(Robustness, MonitorWithNullSourceProducesIdleTrace) {
  const auto db = pmu::EventDatabase::generate(isa::CpuModel::kAmdEpyc7252);
  sim::VirtualMachine vm(sim::VmConfig{}, 3);
  sim::HostMonitor monitor(db, 4);
  const auto result = monitor.monitor(vm, nullptr, {0, 1}, 10);
  EXPECT_EQ(result.samples.size(), 10u);
}

TEST(Robustness, CounterFileWithNoProgrammedEvents) {
  const auto db = pmu::EventDatabase::generate(isa::CpuModel::kAmdEpyc7252);
  pmu::CounterRegisterFile counters(db, 5);
  counters.program({});
  pmu::ExecutionStats stats;
  stats.uops = 100;
  counters.tick(stats);  // must not crash
  counters.read_all(std::span<double>{});  // no slots, nothing to write
  EXPECT_TRUE(counters.programmed().empty());
}

TEST(Robustness, FuzzerWithNoEventsReturnsEmptyResult) {
  const auto db = pmu::EventDatabase::generate(isa::CpuModel::kAmdEpyc7252);
  const auto spec = isa::IsaSpecification::generate(isa::CpuModel::kAmdEpyc7252);
  fuzzer::FuzzerConfig config;
  config.reset_sample = 4;
  config.trigger_sample = 4;
  fuzzer::EventFuzzer fuzzer(db, spec, config);
  const auto result = fuzzer.run({});
  EXPECT_TRUE(result.reports.empty());
  EXPECT_EQ(result.cleaned_instructions, spec.legal_count());
}

TEST(Robustness, SetCoverOfEmptyResultIsEmpty) {
  const fuzzer::GadgetCover cover = fuzzer::minimal_gadget_cover({});
  EXPECT_TRUE(cover.gadgets.empty());
  EXPECT_TRUE(cover.covered_events.empty());
  EXPECT_TRUE(cover.uncovered_events.empty());
}

TEST(Robustness, ProfilerRankWithNoEventsOrSecrets) {
  const auto db = pmu::EventDatabase::generate(isa::CpuModel::kAmdEpyc7252);
  profiler::ProfilerConfig config;
  config.ranking_runs_per_secret = 2;
  profiler::ApplicationProfiler profiler(db, config);
  std::vector<std::unique_ptr<workload::Workload>> secrets;
  secrets.push_back(std::make_unique<workload::IdleWorkload>(40));
  EXPECT_TRUE(profiler.rank(secrets, {}).empty());
}

/// A secret whose visit fails the test: the degenerate-sweep checks must
/// reject their input before any run is simulated.
class NeverVisited final : public workload::Workload {
 public:
  sim::BlockSource visit(std::uint64_t) const override {
    ADD_FAILURE() << "a run was simulated before the input was rejected";
    return nullptr;
  }
  std::size_t trace_slices() const override { return 10; }
  std::string name() const override { return "never visited"; }
};

/// Expects `call` to throw std::invalid_argument naming `who`.
template <typename Call>
void expect_rejected_by(const Call& call, const std::string& who) {
  try {
    call();
    ADD_FAILURE() << "expected " << who << " to reject its input";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(who), std::string::npos) << e.what();
  }
}

TEST(Robustness, ProfilerRankRejectsEventsWithoutSecretsOrRuns) {
  const auto db = pmu::EventDatabase::generate(isa::CpuModel::kAmdEpyc7252);
  profiler::ProfilerConfig config;
  config.ranking_runs_per_secret = 2;
  std::vector<std::unique_ptr<workload::Workload>> none;
  profiler::ApplicationProfiler profiler(db, config);
  expect_rejected_by([&] { (void)profiler.rank(none, {0, 1}); },
                     "ApplicationProfiler::rank");
  // Nothing to rank and nothing to rank against: still an empty result.
  EXPECT_TRUE(profiler.rank(none, {}).empty());

  std::vector<std::unique_ptr<workload::Workload>> secrets;
  secrets.push_back(std::make_unique<NeverVisited>());
  config.ranking_runs_per_secret = 0;
  profiler::ApplicationProfiler no_runs(db, config);
  expect_rejected_by([&] { (void)no_runs.rank(secrets, {0, 1}); },
                     "ApplicationProfiler::rank");
}

TEST(Robustness, ProfilerWarmupRejectsZeroRepeats) {
  const auto db = pmu::EventDatabase::generate(isa::CpuModel::kAmdEpyc7252);
  profiler::ProfilerConfig config;
  config.warmup_repeats = 0;
  const NeverVisited app;
  expect_rejected_by(
      [&] { (void)profiler::ApplicationProfiler(db, config).warmup(app); },
      "ApplicationProfiler::warmup");
}

TEST(Robustness, CalibrateEventsRejectsNoSecretsOrNoRuns) {
  const auto db = pmu::EventDatabase::generate(isa::CpuModel::kAmdEpyc7252);
  std::vector<std::unique_ptr<workload::Workload>> secrets;
  expect_rejected_by(
      [&] { (void)obf::calibrate_events(db, {0, 1}, secrets, 2, 1); },
      "calibrate_events");
  secrets.push_back(std::make_unique<NeverVisited>());
  expect_rejected_by(
      [&] { (void)obf::calibrate_events(db, {0, 1}, secrets, 0, 1); },
      "calibrate_events");
}

/// A cover that reaches one event, so make_obfuscator would calibrate it
/// against `secrets` if it accepted its parameters.
core::OfflineResult one_event_analysis() {
  core::OfflineResult analysis;
  analysis.cover.covered_events = {0};
  return analysis;
}

TEST(Robustness, MakeObfuscatorRejectsInvalidBuildOptionsBeforeCalibrating) {
  const core::Aegis aegis(isa::CpuModel::kAmdEpyc7252);
  const core::OfflineResult analysis = one_event_analysis();
  std::vector<std::unique_ptr<workload::Workload>> secrets;
  secrets.push_back(std::make_unique<NeverVisited>());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (double bad : {nan, inf, -1.0, 0.0}) {
    obf::ObfuscatorOptions clip;
    clip.clip_sigma = bad;
    expect_rejected_by(
        [&] { (void)aegis.make_obfuscator(analysis, secrets, {}, clip); },
        "Aegis::make_obfuscator");
  }
}

TEST(Robustness, MakeObfuscatorRejectsInvalidMechanismBeforeCalibrating) {
  const core::Aegis aegis(isa::CpuModel::kAmdEpyc7252);
  const core::OfflineResult analysis = one_event_analysis();
  std::vector<std::unique_ptr<workload::Workload>> secrets;
  secrets.push_back(std::make_unique<NeverVisited>());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const auto rejected = [&](const dp::MechanismConfig& mechanism,
                            const std::string& who) {
    expect_rejected_by(
        [&] { (void)aegis.make_obfuscator(analysis, secrets, mechanism); },
        who);
  };
  for (double bad : {nan, inf, -1.0, 0.0}) {
    dp::MechanismConfig laplace;
    laplace.epsilon = bad;
    rejected(laplace, "LaplaceMechanism");
    laplace.epsilon = 1.0;
    laplace.sensitivity = bad;
    rejected(laplace, "LaplaceMechanism");
    dp::MechanismConfig dstar;
    dstar.kind = dp::MechanismKind::kDStar;
    dstar.epsilon = bad;
    rejected(dstar, "DStarMechanism");
  }
  for (double bad : {nan, inf, -1.0}) {
    dp::MechanismConfig uniform;
    uniform.kind = dp::MechanismKind::kUniformRandom;
    uniform.uniform_bound = bad;
    rejected(uniform, "UniformRandomMechanism");
  }
  for (double bad : {nan, inf}) {
    dp::MechanismConfig constant;
    constant.kind = dp::MechanismKind::kConstantOutput;
    constant.constant_level = bad;
    rejected(constant, "ConstantOutputMechanism");
  }
}

TEST(Robustness, TraceFeaturesOnEmptyTrace) {
  trace::Trace empty;
  EXPECT_TRUE(empty.window_features(8).empty());
  EXPECT_TRUE(empty.sorted_window_features(8).empty());
  EXPECT_EQ(empty.events(), 0u);
}

TEST(Robustness, TraceZeroWindowsIsEmpty) {
  trace::Trace t;
  t.samples = {{1.0}, {2.0}};
  EXPECT_TRUE(t.window_features(0).empty());
}

TEST(Robustness, MlpSingleSampleSingleClass) {
  ml::MlpConfig config;
  config.epochs = 3;
  ml::MlpClassifier mlp(2, 1, config);
  const auto history = mlp.fit({{0.5, -0.5}}, {0}, {}, {});
  EXPECT_EQ(history.size(), 3u);
  EXPECT_EQ(mlp.predict({0.0, 0.0}), 0);
}

TEST(Robustness, MlpEmptyFitReturnsEmptyHistory) {
  ml::MlpClassifier mlp(2, 2, ml::MlpConfig{});
  EXPECT_TRUE(mlp.fit({}, {}, {}, {}).empty());
  EXPECT_EQ(mlp.accuracy({}, {}), 0.0);
}

// Classifier inputs are rejected loudly instead of read or written out of
// bounds: X/y of different sizes, labels outside [0, num_classes), ragged
// rows, and a model with no classes.

TEST(Robustness, ClassifierAccuracyRejectsSizeMismatch) {
  const ml::FeatureMatrix X = {{0.0, 0.0}, {1.0, 1.0}};
  const ml::Labels y = {0, 1};
  const ml::Labels short_y = {0};
  ml::MlpClassifier mlp(2, 2, ml::MlpConfig{});
  EXPECT_THROW((void)mlp.accuracy(X, short_y), std::invalid_argument);
  ml::KnnClassifier knn(1);
  knn.fit(X, y, 2);
  EXPECT_THROW((void)knn.accuracy(X, short_y), std::invalid_argument);
  ml::GaussianNbClassifier nb;
  nb.fit(X, y, 2);
  EXPECT_THROW((void)nb.accuracy(X, short_y), std::invalid_argument);
}

TEST(Robustness, MlpFitRejectsValidationSizeMismatch) {
  ml::MlpClassifier mlp(2, 2, ml::MlpConfig{});
  EXPECT_THROW(mlp.fit({{0.0, 0.0}}, {0}, {{1.0, 1.0}, {2.0, 2.0}}, {1}),
               std::invalid_argument);
}

TEST(Robustness, MlpFitRejectsOutOfRangeLabels) {
  ml::MlpClassifier mlp(2, 3, ml::MlpConfig{});
  EXPECT_THROW(mlp.fit({{0.0, 0.0}}, {3}, {}, {}), std::invalid_argument);
  EXPECT_THROW(mlp.fit({{0.0, 0.0}}, {-1}, {}, {}), std::invalid_argument);
}

TEST(Robustness, MlpRejectsZeroClassesAndZeroBatch) {
  EXPECT_THROW(ml::MlpClassifier(2, 0, ml::MlpConfig{}), std::invalid_argument);
  ml::MlpConfig config;
  config.batch_size = 0;
  EXPECT_THROW(ml::MlpClassifier(2, 2, config), std::invalid_argument);
}

TEST(Robustness, MlpRejectsRowsOfTheWrongWidth) {
  ml::MlpClassifier mlp(2, 2, ml::MlpConfig{});
  EXPECT_THROW(mlp.fit({{0.0, 0.0}, {1.0}}, {0, 1}, {}, {}), std::invalid_argument);
  EXPECT_THROW((void)mlp.accuracy({{0.0, 0.0, 0.0}}, {0}), std::invalid_argument);
  EXPECT_THROW((void)mlp.predict_proba({0.0}), std::invalid_argument);
}

TEST(Robustness, GaussianNbFitRejectsBadLabelsAndRaggedRows) {
  ml::GaussianNbClassifier nb;
  EXPECT_THROW(nb.fit({{0.0, 0.0}, {1.0, 1.0}}, {0, 2}, 2), std::invalid_argument);
  EXPECT_THROW(nb.fit({{0.0, 0.0}, {1.0, 1.0}}, {-1, 0}, 2), std::invalid_argument);
  EXPECT_THROW(nb.fit({{0.0, 0.0}, {1.0}}, {0, 1}, 2), std::invalid_argument);
  EXPECT_THROW(nb.fit({{0.0}}, {0}, 0), std::invalid_argument);
}

TEST(Robustness, KnnFitRejectsOutOfRangeLabels) {
  ml::KnnClassifier knn(1);
  EXPECT_THROW(knn.fit({{0.0}, {1.0}}, {0, 2}, 2), std::invalid_argument);
  EXPECT_THROW(knn.fit({{0.0}, {1.0}}, {-1, 1}, 2), std::invalid_argument);
  EXPECT_THROW(knn.fit({{0.0}}, {0}, 0), std::invalid_argument);
}

TEST(Robustness, EventDatabaseFindEmptyName) {
  const auto db = pmu::EventDatabase::generate(isa::CpuModel::kAmdEpyc7252);
  EXPECT_FALSE(db.find("").has_value());
}

TEST(Robustness, SerializeEmptyResultRoundTrips) {
  const auto db = pmu::EventDatabase::generate(isa::CpuModel::kAmdEpyc7252);
  core::OfflineResult empty;
  std::stringstream stream;
  core::save_offline_result(stream, empty, db);
  const core::OfflineResult loaded = core::load_offline_result(
      stream, db, isa::IsaSpecification::generate(isa::CpuModel::kAmdEpyc7252));
  EXPECT_TRUE(loaded.ranking.empty());
  EXPECT_TRUE(loaded.cover.gadgets.empty());
  EXPECT_TRUE(loaded.fuzz.reports.empty());
}

TEST(Robustness, GadgetRunnerEmptySequenceMeasuresNothing) {
  const auto db = pmu::EventDatabase::generate(isa::CpuModel::kAmdEpyc7252);
  sim::GadgetRunner runner(db, 6);
  runner.program({*db.find("RETIRED_UOPS")});
  const auto delta = runner.execute_once({});
  ASSERT_EQ(delta.size(), 1u);
  EXPECT_NEAR(delta[0], 0.0, 1.0);
}

TEST(Robustness, WorkloadSliceBeyondWindowIsBenign) {
  workload::WebsiteWorkload site(0, 50);
  auto source = site.visit(1);
  // Asking for slices past the configured window returns no phase work.
  const auto blocks = source(10000);
  for (const auto& b : blocks) {
    EXPECT_TRUE(std::isfinite(b.uops));
  }
}

TEST(Robustness, AttackExploitWithZeroVisits) {
  const auto db = pmu::EventDatabase::generate(isa::CpuModel::kAmdEpyc7252);
  attack::WfaScale scale;
  scale.sites = 2;
  scale.traces_per_site = 6;
  scale.epochs = 3;
  scale.slices = 60;
  auto secrets = attack::make_wfa_secrets(scale);
  std::vector<std::uint32_t> events;
  for (auto name : pmu::kAmdAttackEvents) events.push_back(*db.find(name));
  attack::ClassificationAttack wfa(db, attack::make_wfa_config(events, scale));
  (void)wfa.train(secrets);
  EXPECT_EQ(wfa.exploit(secrets, 0, 1), 0.0);
}

}  // namespace
}  // namespace aegis
