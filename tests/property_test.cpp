// Cross-module property tests: invariants that must hold across parameter
// sweeps rather than at single points.
#include <gtest/gtest.h>

#include <cmath>

#include "dp/dstar.hpp"
#include "dp/laplace.hpp"
#include "fuzzer/set_cover.hpp"
#include "obf/injector.hpp"
#include "sim/executor.hpp"
#include "sim/virtual_machine.hpp"
#include "trace/gaussian.hpp"
#include "unit_segment.hpp"
#include "util/stats.hpp"
#include "workload/website.hpp"

namespace aegis {
namespace {

// ---------------------------------------------------------------- dp ----

class LaplaceScaleSweep : public ::testing::TestWithParam<double> {};

TEST_P(LaplaceScaleSweep, MeanAbsoluteNoiseIsInverseEpsilon) {
  const double epsilon = GetParam();
  dp::LaplaceMechanism mech(epsilon, 1.0, 77);
  double total = 0.0;
  constexpr int kSamples = 40000;
  for (int i = 0; i < kSamples; ++i) {
    total += std::abs(mech.noisy_value(0.0));
  }
  // E|Lap(b)| = b = 1/epsilon.
  EXPECT_NEAR(total / kSamples, 1.0 / epsilon, 0.05 / epsilon);
}

INSTANTIATE_TEST_SUITE_P(Epsilons, LaplaceScaleSweep,
                         ::testing::Values(0.125, 0.5, 1.0, 4.0, 16.0));

TEST(DStarProperty, ErrorGrowsLogarithmicallyNotLinearly) {
  // The binary-tree construction reconstructs x~[t] from O(log t) noise
  // terms, so the error std at time t grows like sqrt(log t) — far slower
  // than the sqrt(t) random walk naive prefix-summing would give.
  auto error_std_at = [](std::uint64_t horizon) {
    std::vector<double> errors;
    for (std::uint64_t seed = 0; seed < 48; ++seed) {
      dp::DStarMechanism mech(1.0, 1000 + seed);
      double value = 0.0;
      for (std::uint64_t t = 1; t <= horizon; ++t) value = mech.noisy_value(5.0);
      errors.push_back(value - 5.0);
    }
    return util::stddev(errors);
  };
  const double at_16 = error_std_at(16);
  const double at_1024 = error_std_at(1024);
  EXPECT_LT(at_1024, at_16 * 6.0);          // log growth, not 8x (sqrt(64))
  EXPECT_GT(at_1024, at_16 * 0.5);          // but it does not shrink either
}

TEST(DStarProperty, ParentDepthIsLogarithmic) {
  for (std::uint64_t t = 1; t <= 4096; t += 7) {
    int depth = 0;
    std::uint64_t cursor = t;
    while (cursor != 0) {
      cursor = dp::dstar_parent(cursor);
      ++depth;
    }
    EXPECT_LE(depth, 2 * 13);  // 2 * log2(4096) + slack
  }
}

// --------------------------------------------------------------- sim ----

class VmBudgetSweep : public ::testing::TestWithParam<double> {};

TEST_P(VmBudgetSweep, AllSubmittedWorkEventuallyExecutes) {
  // Work conservation: whatever the slice budget, the VM executes exactly
  // the uops submitted (plus interrupt handlers), never losing or
  // duplicating queued blocks.
  const double budget = GetParam();
  sim::VmConfig config;
  config.slice_budget_cycles = budget;
  config.interrupt_rate = 0.0;
  sim::VirtualMachine vm(config, 9);
  double submitted = 0.0;
  for (int i = 0; i < 30; ++i) {
    sim::InstructionBlock b;
    b.uops = 700.0 + 13.0 * i;
    submitted += b.uops;
    vm.submit(b);
  }
  double executed = 0.0;
  int slices = 0;
  while (vm.pending() && slices < 100000) {
    executed += vm.run_slice().uops;
    ++slices;
  }
  EXPECT_FALSE(vm.pending());
  EXPECT_NEAR(executed, submitted, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Budgets, VmBudgetSweep,
                         ::testing::Values(200.0, 1000.0, 10000.0, 3.0e6));

class ExecutorUopSweep : public ::testing::TestWithParam<double> {};

TEST_P(ExecutorUopSweep, CyclesMonotoneInWork) {
  const double uops = GetParam();
  sim::MicroArchState a, b;
  sim::InstructionBlock small, large;
  small.uops = uops;
  large.uops = uops * 2.0;
  EXPECT_LT(sim::execute_block(small, a).cycles,
            sim::execute_block(large, b).cycles);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ExecutorUopSweep,
                         ::testing::Values(10.0, 100.0, 1000.0, 100000.0));

TEST(ExecutorProperty, StatsScaleLinearlyWithBlockScaling) {
  sim::InstructionBlock b;
  b.class_counts[isa::InstructionClass::kIntAlu] = 100;
  b.uops = 120;
  b.read_bytes = 6400;
  for (double f : {0.5, 2.0, 7.0}) {
    sim::MicroArchState fresh_a, fresh_b;
    const auto base = sim::execute_block(b, fresh_a);
    const auto scaled = sim::execute_block(b.scaled(f), fresh_b);
    EXPECT_NEAR(scaled.uops, base.uops * f, 1e-9);
    EXPECT_NEAR(scaled.mem_reads, base.mem_reads * f, 1e-9);
  }
}

// --------------------------------------------------------------- mi -----

TEST(MiProperty, InvariantUnderAffineFeatureTransforms) {
  // Mutual information must not change when every per-secret Gaussian is
  // shifted and scaled identically (the event's units are arbitrary).
  trace::SecretGaussianModel base;
  base.per_secret = {{0.0, 1.0}, {2.0, 1.5}, {5.0, 0.7}};
  const double reference = trace::mutual_information_eq1(base);
  for (double scale : {0.1, 3.0, 50.0}) {
    for (double shift : {-100.0, 0.0, 40.0}) {
      trace::SecretGaussianModel transformed;
      for (const auto& g : base.per_secret) {
        transformed.per_secret.push_back({g.mu * scale + shift, g.sigma * scale});
      }
      EXPECT_NEAR(trace::mutual_information_eq1(transformed), reference, 0.01);
    }
  }
}

class MiClassCountSweep : public ::testing::TestWithParam<int> {};

TEST_P(MiClassCountSweep, WellSeparatedSecretsSaturateAtLogN) {
  const int n = GetParam();
  trace::SecretGaussianModel model;
  for (int i = 0; i < n; ++i) model.per_secret.push_back({i * 100.0, 1.0});
  EXPECT_NEAR(trace::mutual_information_eq1(model, 4001),
              std::log2(static_cast<double>(n)), 0.05);
}

INSTANTIATE_TEST_SUITE_P(Counts, MiClassCountSweep, ::testing::Values(2, 4, 8, 16));

// ------------------------------------------------------------ workload --

class SiteSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SiteSweep, VisitJitterIsBoundedAndNonNegative) {
  workload::WebsiteWorkload site(GetParam(), 160);
  std::vector<double> totals;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    double total = 0.0;
    auto source = site.visit(seed);
    for (std::size_t t = 0; t < 160; ++t) {
      for (const auto& b : source(t)) {
        EXPECT_GE(b.uops, 0.0);
        EXPECT_GE(b.read_bytes, 0.0);
        total += b.uops;
      }
    }
    totals.push_back(total);
  }
  // Visits of one site stay within a modest band of each other.
  EXPECT_LT(util::max_value(totals) / std::max(util::min_value(totals), 1.0), 2.0);
}

INSTANTIATE_TEST_SUITE_P(Sites, SiteSweep, ::testing::Values(0u, 7u, 21u, 44u));

// ------------------------------------------------------------- cover ----

class SetCoverSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SetCoverSweep, CoverIsCompleteAndNeverLargerThanEventCount) {
  // Synthetic instances: `n` events, gadget i covers events {i, i+1}.
  const std::size_t n = GetParam();
  fuzzer::FuzzResult result;
  for (std::size_t e = 0; e < n; ++e) {
    fuzzer::EventFuzzReport report;
    report.event_id = static_cast<std::uint32_t>(e);
    const std::uint32_t gadget_id = static_cast<std::uint32_t>(e / 2);
    report.confirmed.push_back(
        {fuzzer::Gadget{gadget_id, gadget_id + 1000}, 5.0});
    result.reports.push_back(report);
  }
  const fuzzer::GadgetCover cover = fuzzer::minimal_gadget_cover(result);
  EXPECT_TRUE(cover.uncovered_events.empty());
  EXPECT_EQ(cover.covered_events.size(), n);
  EXPECT_LE(cover.gadgets.size(), (n + 1) / 2);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SetCoverSweep, ::testing::Values(1u, 2u, 9u, 40u));

// ------------------------------------------------------------ injector --

TEST(InjectorProperty, RepetitionsLinearInNoiseBelowClip) {
  const auto db = pmu::EventDatabase::generate(isa::CpuModel::kAmdEpyc7252);
  const auto spec = isa::IsaSpecification::generate(isa::CpuModel::kAmdEpyc7252);
  std::uint32_t nop = 0, div = 0;
  for (const auto& v : spec.variants()) {
    if (!v.legal()) continue;
    if (!nop && v.iclass == isa::InstructionClass::kNop) nop = v.uid;
    if (!div && v.iclass == isa::InstructionClass::kIntDiv) div = v.uid;
  }
  fuzzer::GadgetCover cover;
  cover.gadgets = {{nop, div}};
  cover.covered_events = {0};
  cover.segment_effect = {{0, 1.0}};
  obf::NoiseInjector injector(spec, test::unit_segment(cover).gadgets, 10.0,
                              100.0);
  sim::VirtualMachine vm(sim::VmConfig{}, 1);
  double prev = 0.0;
  for (double noise : {0.5, 1.0, 2.0, 4.0}) {
    const double reps = injector.inject(vm, noise);
    EXPECT_NEAR(reps, noise * 10.0, 1e-9);
    EXPECT_GT(reps, prev);
    prev = reps;
  }
}

}  // namespace
}  // namespace aegis
