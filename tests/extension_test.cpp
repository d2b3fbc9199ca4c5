// Tests for the future-work extensions: the crypto workload, the key
// extraction attack, and the obfuscator's weighted-segment / per-gadget
// mixture injection machinery.
#include <gtest/gtest.h>

#include <cmath>

#include "attack/kea.hpp"
#include "dp/accountant.hpp"
#include "sim/cache_probe.hpp"
#include "sim/host_monitor.hpp"
#include "obf/injector.hpp"
#include "obf/obfuscator.hpp"
#include "unit_segment.hpp"
#include "workload/crypto.hpp"

namespace aegis {
namespace {

using workload::CryptoOp;
using workload::CryptoWorkload;

TEST(CryptoWorkload, DeriveKeyIsDeterministicAndBalanced) {
  const auto a = CryptoWorkload::derive_key(64, 7);
  const auto b = CryptoWorkload::derive_key(64, 7);
  EXPECT_EQ(a, b);
  const auto c = CryptoWorkload::derive_key(64, 8);
  EXPECT_NE(a, c);
  std::size_t ones = 0;
  for (bool bit : a) ones += bit;
  EXPECT_GT(ones, 16u);
  EXPECT_LT(ones, 48u);
}

TEST(CryptoWorkload, PlanLabelsFollowKeyBits) {
  const std::vector<bool> key{true, false, true, true, false};
  CryptoWorkload wl(key, 120);
  const auto plan = wl.plan(3);
  // Count multiply segments: one per 1-bit.
  std::size_t multiply_runs = 0;
  int prev = workload::kCryptoBlankLabel;
  for (int label : plan.frame_labels) {
    if (label == static_cast<int>(CryptoOp::kMultiply) && label != prev) {
      ++multiply_runs;
    }
    prev = label;
  }
  EXPECT_EQ(multiply_runs, 3u);
}

TEST(CryptoWorkload, MultiplySlicesAreHeavierThanGaps) {
  CryptoWorkload wl(CryptoWorkload::derive_key(16, 1), 160);
  const auto plan = wl.plan(5);
  double op_uops = 0.0, gap_uops = 0.0;
  std::size_t ops = 0, gaps = 0;
  for (std::size_t t = 0; t < 160; ++t) {
    double u = 0.0;
    for (const auto& b : plan.source(t)) u += b.uops;
    if (plan.frame_labels[t] == workload::kCryptoBlankLabel) {
      gap_uops += u;
      ++gaps;
    } else {
      op_uops += u;
      ++ops;
    }
  }
  ASSERT_GT(ops, 0u);
  ASSERT_GT(gaps, 0u);
  EXPECT_GT(op_uops / ops, 5.0 * gap_uops / gaps);
}

TEST(CryptoWorkload, NameEncodesKey) {
  CryptoWorkload wl({true, false, true}, 60);
  EXPECT_EQ(wl.name(), "rsa-exp key=101");
}

TEST(OpsToKey, DecodesTokenStreams) {
  const int S = static_cast<int>(CryptoOp::kSquare);
  const int M = static_cast<int>(CryptoOp::kMultiply);
  // S S -> bits 0,0 ; S M S -> 1,0 ; S M S M -> 1,1.
  EXPECT_EQ(attack::ops_to_key({S, S}), (std::vector<bool>{false, false}));
  EXPECT_EQ(attack::ops_to_key({S, M, S}), (std::vector<bool>{true, false}));
  EXPECT_EQ(attack::ops_to_key({S, M, S, M}), (std::vector<bool>{true, true}));
  EXPECT_TRUE(attack::ops_to_key({}).empty());
  EXPECT_TRUE(attack::ops_to_key({M}).empty());  // multiply before any square
}

TEST(KeyExtraction, RecoversCleanKeys) {
  const auto db = pmu::EventDatabase::generate(isa::CpuModel::kAmdEpyc7252);
  attack::KeaConfig config;
  for (auto name : pmu::kAmdAttackEvents) {
    config.event_ids.push_back(*db.find(name));
  }
  config.key_bits = 20;
  config.training_keys = 8;
  config.traces_per_key = 4;
  config.epochs = 10;
  config.slices = 140;
  attack::KeyExtractionAttack attacker(db, config);
  const auto history = attacker.train();
  EXPECT_GT(history.back().val_accuracy, 0.9);
  EXPECT_GT(attacker.exploit(3, 1, 42), 0.85);
}

TEST(KeyExtraction, ThrowsBeforeTraining) {
  const auto db = pmu::EventDatabase::generate(isa::CpuModel::kAmdEpyc7252);
  attack::KeaConfig config;
  config.event_ids = {0};
  attack::KeyExtractionAttack attacker(db, config);
  EXPECT_THROW((void)attacker.exploit(1, 1, 1), std::logic_error);
}

struct InjectorFixture {
  pmu::EventDatabase db = pmu::EventDatabase::generate(isa::CpuModel::kAmdEpyc7252);
  isa::IsaSpecification spec =
      isa::IsaSpecification::generate(isa::CpuModel::kAmdEpyc7252);

  std::vector<obf::WeightedGadget> weighted() const {
    std::uint32_t nop = 0, div = 0;
    for (const auto& v : spec.variants()) {
      if (!v.legal()) continue;
      if (!nop && v.iclass == isa::InstructionClass::kNop) nop = v.uid;
      if (!div && v.iclass == isa::InstructionClass::kIntDiv) div = v.uid;
    }
    return {{fuzzer::Gadget{nop, div}, 1.0}, {fuzzer::Gadget{div, nop}, 3.0}};
  }
};

TEST(WeightedInjector, WeightsScaleTheSegment) {
  InjectorFixture f;
  auto gadgets = f.weighted();
  obf::NoiseInjector weighted(f.spec, gadgets, 1.0, 10.0);
  gadgets[1].weight = 1.0;
  obf::NoiseInjector unit(f.spec, gadgets, 1.0, 10.0);
  EXPECT_GT(weighted.segment_block().uops, unit.segment_block().uops);
  EXPECT_EQ(weighted.gadget_count(), 2u);
}

TEST(WeightedInjector, MixtureRequiresOneDrawPerGadget) {
  InjectorFixture f;
  obf::NoiseInjector injector(f.spec, f.weighted(), 1.0, 10.0);
  sim::VirtualMachine vm(sim::VmConfig{}, 1);
  const std::vector<double> wrong_arity{1.0};
  EXPECT_THROW((void)injector.inject_mixture(vm, wrong_arity),
               std::invalid_argument);
}

TEST(WeightedInjector, MixtureInjectsPerGadgetIndependently) {
  InjectorFixture f;
  obf::NoiseInjector injector(f.spec, f.weighted(), 10.0, 10.0);
  sim::VirtualMachine vm(sim::VmConfig{}, 2);
  // Gadget 0 gets noise, gadget 1 does not.
  const std::vector<double> noise{2.0, -1.0};
  const double mean_reps = injector.inject_mixture(vm, noise);
  EXPECT_DOUBLE_EQ(mean_reps, 10.0);  // (2*10 + 0)/2
  EXPECT_TRUE(vm.pending());
}

TEST(WeightedInjector, MixtureClipsPerGadget) {
  InjectorFixture f;
  obf::NoiseInjector injector(f.spec, f.weighted(), 1.0, 3.0);
  sim::VirtualMachine vm(sim::VmConfig{}, 3);
  const std::vector<double> noise{100.0, 100.0};
  const double mean_reps = injector.inject_mixture(vm, noise);
  EXPECT_DOUBLE_EQ(mean_reps, 3.0);  // both clipped at 3
}

TEST(Obfuscator, SingleStreamFlagStillInjects) {
  InjectorFixture f;
  fuzzer::GadgetCover cover;
  for (const auto& wg : f.weighted()) cover.gadgets.push_back(wg.gadget);
  const std::uint32_t uops = *f.db.find("RETIRED_UOPS");
  cover.covered_events = {uops};
  cover.segment_effect = {{uops, 10.0}};
  obf::ObfuscatorConfig config;
  config.segment = test::unit_segment(cover, uops, 100.0, 20.0);
  config.mechanism.kind = dp::MechanismKind::kLaplace;
  config.mechanism.epsilon = 0.5;
  config.options.clip_sigma = 6.0;
  config.options.single_stream = true;
  config.seed = 4;
  obf::EventObfuscator obf(f.db, f.spec, config);
  sim::VirtualMachine vm(sim::VmConfig{}, 5);
  auto agent = obf.session();
  for (std::size_t t = 0; t < 60; ++t) {
    agent(vm, t);
    (void)vm.run_slice();
  }
  EXPECT_GT(obf.total_injected_repetitions(), 0.0);
}

TEST(CacheProbe, MissesTrackVictimPressure) {
  sim::MicroArchState uarch;
  sim::CacheProbe probe(9000, sim::MicroArchState::kLlcBytes * 0.8);
  (void)probe.probe(uarch);  // install the probe buffer
  const double quiet = probe.probe(uarch);
  // A victim touching a large working set evicts probe lines.
  (void)uarch.access(1, sim::MicroArchState::kLlcBytes * 0.5, 1.0);
  const double pressured = probe.probe(uarch);
  EXPECT_GT(pressured, quiet + 100.0);
}

TEST(CacheProbe, OccupancyMonitorSeparatesBusyFromIdle) {
  const auto db = pmu::EventDatabase::generate(isa::CpuModel::kAmdEpyc7252);
  auto run = [&](double bytes_per_slice) {
    sim::VirtualMachine vm(sim::VmConfig{}, 7);
    sim::HostMonitor monitor(db, 8);
    sim::CacheProbe probe(9000, sim::MicroArchState::kLlcBytes * 0.8);
    sim::BlockSource source = [bytes_per_slice](std::size_t) {
      sim::InstructionBlock b;
      b.region = 42;
      b.read_bytes = bytes_per_slice;
      b.uops = 100;
      return std::vector<sim::InstructionBlock>{b};
    };
    const auto result = monitor.monitor_occupancy(vm, source, probe, 30);
    double total = 0.0;
    for (const auto& row : result.samples) total += row[0];
    return total;
  };
  EXPECT_GT(run(2e6), run(1e3) * 1.5);
}

TEST(PrivacyAccountant, BasicCompositionSums) {
  dp::PrivacyAccountant accountant;
  for (int i = 0; i < 10; ++i) accountant.record_releases(0.25, 1);
  EXPECT_EQ(accountant.releases(), 10u);
  EXPECT_DOUBLE_EQ(accountant.basic_epsilon(), 2.5);
}

TEST(PrivacyAccountant, NonPositiveEpsilonIgnored) {
  dp::PrivacyAccountant accountant;
  accountant.record_releases(0.0, 1);
  accountant.record_releases(-1.0, 1);
  EXPECT_EQ(accountant.releases(), 0u);
}

TEST(PrivacyAccountant, AdvancedBeatsBasicForManySmallReleases) {
  // k = 3000 slices at eps = 0.01: basic gives 30; advanced is far tighter.
  const double advanced =
      dp::PrivacyAccountant::advanced_composition(0.01, 3000, 1e-6);
  EXPECT_LT(advanced, 30.0 * 0.2);
  EXPECT_GT(advanced, 0.0);
}

TEST(PrivacyAccountant, AdvancedMonotoneInReleases) {
  double prev = 0.0;
  for (std::size_t k : {10u, 100u, 1000u, 10000u}) {
    const double bound = dp::PrivacyAccountant::advanced_composition(0.05, k, 1e-6);
    EXPECT_GT(bound, prev);
    prev = bound;
  }
}

TEST(PrivacyAccountant, HomogeneousReleasesMatchTheClosedForm) {
  dp::PrivacyAccountant accountant;
  for (int i = 0; i < 100; ++i) accountant.record_releases(0.02, 1);
  const double direct =
      dp::PrivacyAccountant::advanced_composition(0.02, 100, 1e-6);
  EXPECT_NEAR(accountant.advanced_epsilon(1e-6), direct, 1e-12);
  EXPECT_DOUBLE_EQ(dp::PrivacyAccountant().advanced_epsilon(1e-6), 0.0);
}

TEST(PrivacyAccountant, HeterogeneousReleasesUseExactSumOfSquares) {
  // Mixed granularities (what the BudgetGovernor produces when it
  // degrades): the bound must come from the exact per-release sum of
  // squares, NOT from k releases at the mean epsilon.
  const std::vector<double> epsilons = {0.4, 0.05, 0.05, 0.2, 0.01,
                                        0.3, 0.05, 0.1,  0.25};
  const double delta = 1e-6;
  dp::PrivacyAccountant accountant;
  for (double eps : epsilons) accountant.record_releases(eps, 1);

  double sum = 0.0, sum_sq = 0.0, overhead = 0.0;
  for (double eps : epsilons) {
    sum += eps;
    sum_sq += eps * eps;
    overhead += eps * (std::exp(eps) - 1.0);
  }
  const double direct =
      std::sqrt(2.0 * std::log(1.0 / delta) * sum_sq) + overhead;
  EXPECT_NEAR(accountant.advanced_epsilon(delta), direct, 1e-12);
  EXPECT_NEAR(accountant.basic_epsilon(), sum, 1e-12);

  // The mean-epsilon approximation is a DIFFERENT (wrong) number here.
  const double mean_based = dp::PrivacyAccountant::advanced_composition(
      sum / static_cast<double>(epsilons.size()), epsilons.size(), delta);
  EXPECT_GT(std::abs(mean_based - direct), 1e-3);
}

TEST(PrivacyAccountant, RecordReleasesBatchesEqualSingles) {
  dp::PrivacyAccountant batched, single;
  batched.record_releases(0.1, 50);
  batched.record_releases(0.02, 7);
  for (int i = 0; i < 50; ++i) single.record_releases(0.1, 1);
  for (int i = 0; i < 7; ++i) single.record_releases(0.02, 1);
  EXPECT_EQ(batched.releases(), single.releases());
  EXPECT_NEAR(batched.advanced_epsilon(1e-6), single.advanced_epsilon(1e-6),
              1e-12);
}

TEST(PrivacyAccountant, AdvancedEpsilonIfIsAPureHypothetical) {
  dp::PrivacyAccountant accountant;
  accountant.record_releases(0.05, 20);
  const double before = accountant.advanced_epsilon(1e-6);
  // The hypothetical equals the value reached by actually recording...
  const double hypothetical = accountant.advanced_epsilon_if(0.2, 5, 1e-6);
  dp::PrivacyAccountant committed = accountant;
  committed.record_releases(0.2, 5);
  EXPECT_NEAR(hypothetical, committed.advanced_epsilon(1e-6), 1e-12);
  // ...without mutating the accountant.
  EXPECT_DOUBLE_EQ(accountant.advanced_epsilon(1e-6), before);
  EXPECT_EQ(accountant.releases(), 20u);
  // Zero extra releases = the current bound.
  EXPECT_NEAR(accountant.advanced_epsilon_if(0.0, 0, 1e-6), before, 1e-12);
}

}  // namespace
}  // namespace aegis
