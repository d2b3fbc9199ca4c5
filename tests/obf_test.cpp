#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "dp/accountant.hpp"
#include "fuzzer/set_cover.hpp"
#include "obf/injector.hpp"
#include "obf/rotating_plan.hpp"
#include "obf/kernel_controller.hpp"
#include "obf/noise_calculator.hpp"
#include "obf/obfuscator.hpp"
#include "util/stats.hpp"
#include "workload/website.hpp"

namespace aegis::obf {
namespace {

using isa::CpuModel;
using isa::InstructionClass;

struct Fixture {
  pmu::EventDatabase db = pmu::EventDatabase::generate(CpuModel::kAmdEpyc7252);
  isa::IsaSpecification spec =
      isa::IsaSpecification::generate(CpuModel::kAmdEpyc7252);

  std::uint32_t find_variant(InstructionClass iclass, bool mem = false) const {
    for (const auto& v : spec.variants()) {
      if (v.legal() && v.iclass == iclass && v.has_memory_operand == mem) {
        return v.uid;
      }
    }
    throw std::runtime_error("variant not found");
  }

  /// A small hand-made cover: nop+div (uops), clflush+load (cache misses).
  fuzzer::GadgetCover make_cover() const {
    fuzzer::GadgetCover cover;
    cover.gadgets = {
        {find_variant(InstructionClass::kNop),
         find_variant(InstructionClass::kIntDiv, true)},
        {find_variant(InstructionClass::kCacheFlush, true),
         find_variant(InstructionClass::kLoad, true)},
    };
    const std::uint32_t uops = *db.find("RETIRED_UOPS");
    const std::uint32_t refills = *db.find("DATA_CACHE_REFILLS_FROM_SYSTEM");
    cover.covered_events = {uops, refills};
    cover.segment_effect = {{uops, 14.0}, {refills, 1.0}};
    return cover;
  }
};

TEST(NoiseCalculator, BufferedLaplaceMatchesDistribution) {
  dp::MechanismConfig config;
  config.kind = dp::MechanismKind::kLaplace;
  config.epsilon = 0.5;
  config.seed = 1;
  NoiseCalculator calc(config, 512);
  std::vector<double> noise;
  for (int i = 0; i < 50000; ++i) noise.push_back(calc.noise_for(0.0));
  EXPECT_NEAR(util::mean(noise), 0.0, 0.06);
  // Lap(2) variance = 8.
  EXPECT_NEAR(util::variance(noise), 8.0, 0.6);
}

TEST(NoiseCalculator, PrecomputeBatchSpansRefills) {
  dp::MechanismConfig config;
  config.kind = dp::MechanismKind::kLaplace;
  config.epsilon = 1.0;
  NoiseCalculator calc(config, 64);
  const auto batch = calc.precompute_batch(200);  // forces several refills
  EXPECT_EQ(batch.size(), 200u);
  EXPECT_GT(util::stddev(batch), 0.5);
}

TEST(NoiseCalculator, DStarUsesObservations) {
  dp::MechanismConfig config;
  config.kind = dp::MechanismKind::kDStar;
  config.epsilon = 1e6;  // negligible noise: output tracks reconstruction
  NoiseCalculator calc(config);
  // Rising series: with near-zero noise the noise_for values stay ~0
  // (noisy_value tracks x).
  for (int t = 1; t <= 32; ++t) {
    EXPECT_NEAR(calc.noise_for(static_cast<double>(t)), 0.0, 1e-3);
  }
  calc.reset_series();
  EXPECT_NEAR(calc.noise_for(100.0), 0.0, 1e-3);
}

TEST(KernelController, SamplesAndQueues) {
  Fixture f;
  const std::uint32_t uops = *f.db.find("RETIRED_UOPS");
  KernelController controller(f.db, uops, 100.0);
  sim::VirtualMachine vm(sim::VmConfig{}, 1);
  sim::InstructionBlock b;
  b.uops = 5000;
  vm.submit(b);
  (void)vm.run_slice();
  controller.sample(vm);
  EXPECT_EQ(controller.queued(), 1u);
  // 5000 uops (plus interrupt handler uops) normalized by 100.
  const double x = controller.dequeue();
  EXPECT_GT(x, 40.0);
  EXPECT_LT(x, 80.0);
  EXPECT_EQ(controller.queued(), 0u);
  EXPECT_EQ(controller.dequeue(), 0.0);  // empty channel
}

TEST(Injector, BuildsStackedSegment) {
  Fixture f;
  NoiseInjector injector(f.spec, f.make_cover(), 10.0, 6.0);
  EXPECT_EQ(injector.segment_gadgets(), 2u);
  const auto& segment = injector.segment_block();
  EXPECT_GT(segment.uops, 0.0);
  EXPECT_GT(segment.read_bytes, 0.0);   // the load trigger
  EXPECT_GT(segment.flush_bytes, 0.0);  // the clflush reset
}

TEST(Injector, RejectsEmptyCover) {
  Fixture f;
  EXPECT_THROW(NoiseInjector(f.spec, fuzzer::GadgetCover{}, 1.0, 1.0),
               std::invalid_argument);
}

TEST(Injector, NegativeNoiseInjectsNothing) {
  Fixture f;
  NoiseInjector injector(f.spec, f.make_cover(), 10.0, 6.0);
  sim::VirtualMachine vm(sim::VmConfig{}, 2);
  EXPECT_DOUBLE_EQ(injector.inject(vm, -3.0), 0.0);
  EXPECT_FALSE(vm.pending());
  EXPECT_DOUBLE_EQ(injector.total_repetitions(), 0.0);
}

TEST(Injector, ClipsAtUpperBound) {
  Fixture f;
  NoiseInjector injector(f.spec, f.make_cover(), 10.0, 2.0);
  sim::VirtualMachine vm(sim::VmConfig{}, 3);
  // noise 100 >> clip 2: injected reps = 2 * 10.
  EXPECT_DOUBLE_EQ(injector.inject(vm, 100.0), 20.0);
}

TEST(Injector, RepsScaleWithNoise) {
  Fixture f;
  NoiseInjector injector(f.spec, f.make_cover(), 10.0, 100.0);
  sim::VirtualMachine vm(sim::VmConfig{}, 4);
  EXPECT_DOUBLE_EQ(injector.inject(vm, 1.5), 15.0);
  EXPECT_DOUBLE_EQ(injector.inject(vm, 3.0), 30.0);
  EXPECT_DOUBLE_EQ(injector.total_repetitions(), 45.0);
  EXPECT_TRUE(vm.pending());
}

TEST(Injector, LargeInjectionsAreChunked) {
  Fixture f;
  NoiseInjector injector(f.spec, f.make_cover(), 1e4, 1e9);
  sim::VirtualMachine vm(sim::VmConfig{}, 5);
  (void)injector.inject(vm, 10.0);  // 1e5 reps: far beyond one chunk
  // Multiple queued blocks rather than one monolith.
  int slices = 0;
  while (vm.pending() && slices < 10000) {
    (void)vm.run_slice();
    ++slices;
  }
  EXPECT_GT(slices, 1);
}

TEST(Obfuscator, SessionInjectsIntoVm) {
  Fixture f;
  ObfuscatorConfig config;
  config.mechanism.kind = dp::MechanismKind::kLaplace;
  config.mechanism.epsilon = 1.0;
  config.reference_event = *f.db.find("RETIRED_UOPS");
  config.reference_sigma = 1000.0;
  config.unit_reps = 50.0;
  config.seed = 6;
  EventObfuscator obf(f.db, f.spec, f.make_cover(), config);
  EXPECT_DOUBLE_EQ(obf.total_injected_repetitions(), 0.0);

  sim::VirtualMachine vm(sim::VmConfig{}, 7);
  auto agent = obf.session();
  for (std::size_t t = 0; t < 100; ++t) {
    agent(vm, t);
    (void)vm.run_slice();
  }
  EXPECT_EQ(obf.sessions_started(), 1u);
  // Laplace(1) noise, positive half injected: ~0.5 * unit_reps per slice.
  EXPECT_GT(obf.total_injected_repetitions(), 100.0);
  EXPECT_GT(obf.total_injected_reference_counts(),
            obf.total_injected_repetitions());  // delta 14 on RETIRED_UOPS
}

TEST(Obfuscator, DefenseInflatesMonitoredCounts) {
  Fixture f;
  ObfuscatorConfig config;
  config.mechanism.kind = dp::MechanismKind::kLaplace;
  config.mechanism.epsilon = 0.5;
  config.reference_event = *f.db.find("RETIRED_UOPS");
  config.reference_sigma = 1000.0;
  config.unit_reps = 100.0;
  config.seed = 8;
  EventObfuscator obf(f.db, f.spec, f.make_cover(), config);

  const std::uint32_t uops = *f.db.find("RETIRED_UOPS");
  workload::WebsiteWorkload site(0, 150);
  auto run_total = [&](const sim::SliceAgent& agent) {
    sim::VirtualMachine vm(sim::VmConfig{}, 9);
    sim::HostMonitor monitor(f.db, 10);
    const auto result = monitor.monitor(vm, site.visit(55), {uops}, 150, agent);
    double total = 0.0;
    for (const auto& row : result.samples) total += row[0];
    return total;
  };
  const double clean = run_total(nullptr);
  const double defended = run_total(obf.session());
  EXPECT_GT(defended, clean * 1.05);
}

TEST(Obfuscator, SessionsAreIndependentSeries) {
  Fixture f;
  ObfuscatorConfig config;
  config.mechanism.kind = dp::MechanismKind::kDStar;
  config.mechanism.epsilon = 1.0;
  config.reference_event = *f.db.find("RETIRED_UOPS");
  config.reference_sigma = 1000.0;
  config.unit_reps = 10.0;
  config.seed = 11;
  EventObfuscator obf(f.db, f.spec, f.make_cover(), config);
  auto a = obf.session();
  auto b = obf.session();
  EXPECT_EQ(obf.sessions_started(), 2u);
  sim::VirtualMachine vm_a(sim::VmConfig{}, 12), vm_b(sim::VmConfig{}, 12);
  // Both sessions run without interference (separate mechanism state).
  for (std::size_t t = 0; t < 20; ++t) {
    a(vm_a, t);
    b(vm_b, t);
    (void)vm_a.run_slice();
    (void)vm_b.run_slice();
  }
  EXPECT_GT(obf.total_injected_repetitions(), 0.0);
}

TEST(Calibration, ComputesSpreadAcrossSecrets) {
  Fixture f;
  std::vector<std::unique_ptr<workload::Workload>> secrets;
  secrets.push_back(std::make_unique<workload::WebsiteWorkload>(0, 120));
  secrets.push_back(std::make_unique<workload::WebsiteWorkload>(1, 120));
  const std::uint32_t uops = *f.db.find("RETIRED_UOPS");
  const std::uint32_t ls = *f.db.find("LS_DISPATCH");
  const auto cals = calibrate_events(f.db, {uops, ls}, secrets, 2, 13);
  ASSERT_EQ(cals.size(), 2u);
  for (const auto& cal : cals) {
    EXPECT_GT(cal.stddev, 0.0);
    EXPECT_GT(cal.mean, 0.0);
    EXPECT_GE(cal.peak, cal.mean);
  }
  EXPECT_EQ(cals[0].event_id, uops);
  EXPECT_EQ(cals[1].event_id, ls);
}

/// Counts the runs calibration simulates of the wrapped secret.
class CountingWorkload final : public workload::Workload {
 public:
  CountingWorkload(std::size_t site, std::size_t* visits)
      : inner_(site, 40), visits_(visits) {}
  sim::BlockSource visit(std::uint64_t seed) const override {
    ++*visits_;
    return inner_.visit(seed);
  }
  std::size_t trace_slices() const override { return inner_.trace_slices(); }
  std::string name() const override { return inner_.name(); }

 private:
  workload::WebsiteWorkload inner_;
  std::size_t* visits_;
};

std::vector<std::uint32_t> first_events(const pmu::EventDatabase& db,
                                        std::size_t n) {
  std::vector<std::uint32_t> ids;
  for (std::size_t i = 0; i < n; ++i) ids.push_back(db.events()[i].id);
  return ids;
}

TEST(Calibration, VisitsEachRunOnce) {
  Fixture f;
  std::size_t visits = 0;
  std::vector<std::unique_ptr<workload::Workload>> secrets;
  for (std::size_t site = 0; site < 3; ++site) {
    secrets.push_back(std::make_unique<CountingWorkload>(site, &visits));
  }
  constexpr std::size_t kRuns = 2;
  // One group, one full group, and two full groups plus a short tail: the
  // groups read each run instead of re-running it.
  for (std::size_t n : {1u, 4u, 9u}) {
    visits = 0;
    const auto cals =
        calibrate_events(f.db, first_events(f.db, n), secrets, kRuns, 21);
    EXPECT_EQ(cals.size(), n);
    EXPECT_EQ(visits, secrets.size() * kRuns) << n << " events";
  }
  visits = 0;
  EXPECT_TRUE(calibrate_events(f.db, {}, secrets, kRuns, 21).empty());
  EXPECT_EQ(visits, 0u);
}

TEST(Calibration, StreamedMomentsMatchReference) {
  Fixture f;
  std::vector<std::unique_ptr<workload::Workload>> secrets;
  secrets.push_back(std::make_unique<workload::WebsiteWorkload>(2, 50));
  secrets.push_back(std::make_unique<workload::WebsiteWorkload>(5, 50));
  const std::vector<std::uint32_t> events = first_events(f.db, 9);
  constexpr std::size_t kRuns = 2;
  constexpr std::uint64_t kSeed = 77;
  const sim::VmConfig vm_config;

  // Reference: the same stream (per job the VM seed, the visit seed, then
  // one counter seed per 4-event group), every per-slice delta stored.
  constexpr std::size_t kGroup = pmu::EventDatabase::kNumCounters;
  std::vector<std::vector<double>> columns(events.size());
  util::Rng rng(kSeed);
  for (const auto& secret : secrets) {
    for (std::size_t run = 0; run < kRuns; ++run) {
      sim::VirtualMachine vm(vm_config, rng.next_u64());
      const sim::BlockSource source = secret->visit(rng.next_u64());
      std::vector<pmu::CounterRegisterFile> counters;
      for (std::size_t base = 0; base < events.size(); base += kGroup) {
        counters.emplace_back(f.db, rng.next_u64());
        counters.back().program(std::vector<std::uint32_t>(
            events.begin() + static_cast<std::ptrdiff_t>(base),
            events.begin() + static_cast<std::ptrdiff_t>(
                                 std::min(events.size(), base + kGroup))));
      }
      std::vector<double> prev(events.size(), 0.0);
      for (std::size_t t = 0; t < secret->trace_slices(); ++t) {
        vm.submit(source(t));
        const pmu::ExecutionStats stats = vm.run_slice();
        std::vector<double> now;
        for (auto& file : counters) {
          file.tick(stats);
          const std::vector<double> read = file.read_all();
          now.insert(now.end(), read.begin(), read.end());
        }
        for (std::size_t e = 0; e < events.size(); ++e) {
          columns[e].push_back(std::max(now[e] - prev[e], 0.0));
        }
        prev = now;
      }
    }
  }

  const auto cals =
      calibrate_events(f.db, events, secrets, kRuns, kSeed, vm_config);
  ASSERT_EQ(cals.size(), events.size());
  const auto near = [](double got, double want) {
    return std::abs(got - want) <= 1e-9 * std::max(std::abs(want), 1e-300);
  };
  for (std::size_t e = 0; e < events.size(); ++e) {
    ASSERT_EQ(columns[e].size(), secrets.size() * kRuns * 50);
    EXPECT_EQ(cals[e].event_id, events[e]);
    EXPECT_TRUE(near(cals[e].mean, util::mean(columns[e])))
        << e << ": " << cals[e].mean << " vs " << util::mean(columns[e]);
    EXPECT_TRUE(near(cals[e].stddev, util::stddev(columns[e])))
        << e << ": " << cals[e].stddev << " vs " << util::stddev(columns[e]);
    EXPECT_TRUE(near(cals[e].peak, util::max_value(columns[e])))
        << e << ": " << cals[e].peak << " vs " << util::max_value(columns[e]);
  }
}

TEST(RotatingPlan, ScheduleIsPeriodicAndCoversEveryVariant) {
  Fixture f;
  std::vector<WeightedGadget> base;
  for (const auto& g : f.make_cover().gadgets) base.push_back({g, 1.0});
  RotatingPlanConfig config;
  config.variants = 3;
  config.period = 8;
  config.seed = 17;
  const RotatingPlan plan(base, config);
  EXPECT_EQ(plan.variants(), 3u);
  EXPECT_EQ(plan.period(), 8u);
  std::vector<bool> seen(plan.variants(), false);
  for (std::size_t t = 0; t < 3 * 8; ++t) {
    const std::size_t v = plan.variant_at(t);
    ASSERT_LT(v, plan.variants());
    seen[v] = true;
    // Constant within a period window.
    EXPECT_EQ(v, plan.variant_at((t / 8) * 8));
  }
  for (bool s : seen) EXPECT_TRUE(s);
  // Deterministic: same base + config -> same schedule.
  const RotatingPlan replay(base, config);
  for (std::size_t t = 0; t < 64; ++t) {
    EXPECT_EQ(plan.variant_at(t), replay.variant_at(t));
  }
}

TEST(RotatingPlan, VariantsKeepGadgetListButVaryWeights) {
  Fixture f;
  std::vector<WeightedGadget> base;
  for (const auto& g : f.make_cover().gadgets) base.push_back({g, 1.0});
  RotatingPlanConfig config;
  config.variants = 2;
  const RotatingPlan plan(base, config);
  bool weights_differ = false;
  for (std::size_t v = 0; v < plan.variants(); ++v) {
    const auto& segment = plan.segment(v);
    // Same gadget streams in the same order: rotation must never change
    // the stream count (that is what keeps it privacy-neutral).
    ASSERT_EQ(segment.size(), base.size());
    for (std::size_t g = 0; g < segment.size(); ++g) {
      EXPECT_EQ(segment[g].gadget, base[g].gadget);
      EXPECT_GE(segment[g].weight, base[g].weight);
      if (segment[g].weight != plan.segment(0)[g].weight) {
        weights_differ = true;
      }
    }
  }
  EXPECT_TRUE(weights_differ);
}

TEST(RotatingPlan, RejectsEmptyBase) {
  EXPECT_THROW(RotatingPlan({}, RotatingPlanConfig{}), std::invalid_argument);
}

TEST(Obfuscator, RotationIsPrivacyNeutral) {
  // The ISSUE's property: a rotating plan spends exactly the same privacy
  // budget per monitoring window as the fixed plan. Rotation changes WHICH
  // gadget weights realize the noise, never how many DP releases are drawn,
  // so the accountant's totals must be equal, not merely close.
  Fixture f;
  ObfuscatorConfig config;
  config.mechanism.kind = dp::MechanismKind::kLaplace;
  config.mechanism.epsilon = 0.5;
  config.reference_event = *f.db.find("RETIRED_UOPS");
  config.reference_sigma = 100.0;
  config.unit_reps = 10.0;
  config.seed = 21;
  EventObfuscator fixed(f.db, f.spec, f.make_cover(), config);
  config.rotate = true;
  config.rotation.variants = 3;
  config.rotation.period = 8;
  EventObfuscator rotating(f.db, f.spec, f.make_cover(), config);

  auto drive = [](EventObfuscator& obf) {
    sim::VirtualMachine vm(sim::VmConfig{}, 3);
    const sim::SliceAgent agent = obf.session();
    for (std::size_t t = 0; t < 64; ++t) {
      agent(vm, t);
      (void)vm.run_slice();
    }
  };
  drive(fixed);
  drive(rotating);

  ASSERT_GT(fixed.total_noise_draws(), 0u);
  EXPECT_EQ(fixed.total_noise_draws(), rotating.total_noise_draws());
  EXPECT_GT(rotating.total_injected_repetitions(), 0.0);

  dp::PrivacyAccountant fixed_budget, rotating_budget;
  fixed_budget.record_releases(config.mechanism.epsilon,
                               fixed.total_noise_draws());
  rotating_budget.record_releases(config.mechanism.epsilon,
                                  rotating.total_noise_draws());
  EXPECT_DOUBLE_EQ(fixed_budget.basic_epsilon(),
                   rotating_budget.basic_epsilon());
  EXPECT_DOUBLE_EQ(fixed_budget.advanced_epsilon(1e-6),
                   rotating_budget.advanced_epsilon(1e-6));
}

}  // namespace
}  // namespace aegis::obf
