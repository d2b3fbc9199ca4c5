#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <sstream>

#include "attack/classification_attack.hpp"
#include "attack/ksa.hpp"
#include "attack/mea.hpp"
#include "seceval/seceval.hpp"

namespace aegis::seceval {
namespace {

using A = AttackerKind;
using D = DefenseKind;

/// Scale small enough for unit tests; large enough that the Fig. 9b shape
/// (Laplace folds to the adaptive attacker, d* holds) still separates.
HarnessConfig tiny_config() {
  HarnessConfig config;
  config.scale.sites = 4;
  config.scale.traces_per_secret = 5;
  config.scale.slices = 60;
  config.scale.epochs = 6;
  config.scale.visits_per_secret = 2;
  config.num_threads = 2;
  return config;
}

const SecurityHarness& tiny_harness() {
  static const SecurityHarness harness(tiny_config());
  return harness;
}

std::vector<std::uint32_t> attack_events(const SecurityHarness& h) {
  std::vector<std::uint32_t> ids;
  for (auto name : pmu::kAmdAttackEvents) {
    ids.push_back(*h.engine().database().find(name));
  }
  return ids;
}

/// Keeps the obfuscator alive behind the agent factory handed to attacks.
struct Defense {
  std::unique_ptr<obf::EventObfuscator> obf;
  attack::AgentFactory factory() const {
    obf::EventObfuscator* p = obf.get();
    return [p] { return p->session(); };
  }
};

Defense make_defense(const SecurityHarness& h,
                     const std::vector<std::unique_ptr<workload::Workload>>&
                         secrets,
                     dp::MechanismKind kind, double epsilon,
                     std::uint64_t seed) {
  dp::MechanismConfig mechanism;
  mechanism.kind = kind;
  mechanism.epsilon = epsilon;
  return Defense{h.engine().make_obfuscator(h.analysis(), secrets, mechanism,
                                            {}, seed)};
}

TEST(CellKey, StableAndDiscriminating) {
  const CellSpec a{A::kAdaptiveWfa, D::kDStarFixed, 1.0};
  EXPECT_EQ(cell_key(a), cell_key(a));
  CellSpec b = a;
  b.epsilon = 0.25;
  EXPECT_NE(cell_key(a), cell_key(b));
  CellSpec c = a;
  c.defense = D::kLaplaceFixed;
  EXPECT_NE(cell_key(a), cell_key(c));
  CellSpec d = a;
  d.attacker = A::kStaticWfa;
  EXPECT_NE(cell_key(a), cell_key(d));
}

TEST(Matrix, FullCoversAcceptanceFloorAndSmokeIsSubset) {
  const std::vector<CellSpec> full = full_matrix();
  std::set<A> attackers;
  std::set<D> defenses;
  std::set<double> epsilons;
  std::set<std::uint64_t> keys;
  for (const CellSpec& cell : full) {
    attackers.insert(cell.attacker);
    defenses.insert(cell.defense);
    epsilons.insert(cell.epsilon);
    keys.insert(cell_key(cell));
  }
  EXPECT_GE(attackers.size(), 3u);
  EXPECT_GE(defenses.size(), 2u);
  EXPECT_GE(epsilons.size(), 4u);
  EXPECT_EQ(keys.size(), full.size());  // no duplicate cells
  for (const CellSpec& cell : smoke_matrix()) {
    EXPECT_EQ(keys.count(cell_key(cell)), 1u)
        << "smoke cell missing from the full matrix";
  }
}

// ---------------------------------------------------------------------------
// Emitters: byte-exact golden files. If one of these fails after an
// intentional format change, regenerate BENCH_security.json and
// REPORT_security.md with bench_security and update the literals here.
// ---------------------------------------------------------------------------

FrontierResult golden_frontier() {
  CellResult a;
  a.spec = CellSpec{A::kAdaptiveWfa, D::kLaplaceFixed, 0.25};
  a.attack_accuracy = 0.875;
  a.validation_accuracy = 0.9167;
  a.random_guess = 0.125;
  a.injected_reps_per_slice = 12.5;
  a.noise_draws = 240;
  CellResult b;
  b.spec = CellSpec{A::kAdaptiveWfa, D::kDStarFixed, 1.0};
  b.attack_accuracy = 0.25;
  b.validation_accuracy = 0.3125;
  b.random_guess = 0.125;
  b.injected_reps_per_slice = 40.25;
  b.noise_draws = 240;
  FrontierResult frontier;
  frontier.cells = {a, b};
  return frontier;
}

HarnessConfig golden_config() {
  HarnessConfig config;
  config.seed = 7;
  return config;
}

TEST(Emit, JsonGoldenBytes) {
  std::ostringstream out;
  write_frontier_json(golden_frontier(), golden_config(), out);
  const std::string expected = R"({
  "bench": "security_frontier",
  "schema_version": 2,
  "cpu": "AMD EPYC 7252",
  "cpu_model": "AmdEpyc7252",
  "backend": "amd-zen2",
  "seed": 7,
  "scale": {
    "sites": 8,
    "traces_per_secret": 10,
    "slices": 120,
    "epochs": 12,
    "visits_per_secret": 4
  },
  "cells": [
    {
      "attacker": "adaptive_wfa",
      "defense": "laplace_fixed",
      "epsilon": 0.25,
      "attack_accuracy": 0.8750,
      "validation_accuracy": 0.9167,
      "random_guess": 0.1250,
      "injected_reps_per_slice": 12.50,
      "noise_draws": 240
    },
    {
      "attacker": "adaptive_wfa",
      "defense": "dstar_fixed",
      "epsilon": 1,
      "attack_accuracy": 0.2500,
      "validation_accuracy": 0.3125,
      "random_guess": 0.1250,
      "injected_reps_per_slice": 40.25,
      "noise_draws": 240
    }
  ]
}
)";
  EXPECT_EQ(out.str(), expected);
}

TEST(Emit, ReportGoldenBytes) {
  std::ostringstream out;
  write_frontier_report(golden_frontier(), golden_config(), out);
  const std::string expected =
      "# Security frontier\n"
      "\n"
      "Attack accuracy on the victim VM per (attacker, defense, "
      "\xCE\xB5) cell.\n"
      "Generated by `bench_security`; the committed copy is the CI "
      "baseline —\n"
      "`scripts/bench_compare.py --security` fails the build when any "
      "cell's\n"
      "accuracy rises more than 2 points over it. Lower is better for "
      "the\ndefense.\n"
      "\n"
      "- cpu: AMD EPYC 7252 (backend amd-zen2)\n"
      "- seed: 7\n"
      "- scale: 8 sites, 10 traces/secret, 120 slices, 12 epochs, 4 victim "
      "visits/secret\n"
      "- cells: 2\n"
      "\n"
      "## adaptive_wfa (guess floor 12.5%)\n"
      "\n"
      "| \xCE\xB5 | laplace_fixed | dstar_fixed |\n"
      "|---:|---:|---:|\n"
      "| 2^-2 | 87.5% | - |\n"
      "| 2^0 | - | 25.0% |\n";
  EXPECT_EQ(out.str(), expected);
}

TEST(Emit, FormatEpsilon) {
  EXPECT_EQ(format_epsilon(0.03125), "2^-5");
  EXPECT_EQ(format_epsilon(0.25), "2^-2");
  EXPECT_EQ(format_epsilon(1.0), "2^0");
  EXPECT_EQ(format_epsilon(8.0), "2^3");
  EXPECT_EQ(format_epsilon(1.5), "1.5");
}

// ---------------------------------------------------------------------------
// Determinism: cell values are pure functions of (config, spec).
// ---------------------------------------------------------------------------

TEST(Harness, CellValueIndependentOfRunList) {
  const SecurityHarness& h = tiny_harness();
  const CellSpec spec{A::kAdaptiveWfa, D::kDStarFixed, 1.0};
  const CellResult direct = h.run_cell(spec);
  const FrontierResult alone = h.run({spec});
  const FrontierResult paired =
      h.run({CellSpec{A::kStaticWfa, D::kDStarFixed, 1.0}, spec});
  ASSERT_EQ(alone.cells.size(), 1u);
  ASSERT_EQ(paired.cells.size(), 2u);
  // Canonical sort puts static_wfa (enum 0) first; ours is cell [1].
  EXPECT_EQ(direct.attack_accuracy, alone.cells[0].attack_accuracy);
  EXPECT_EQ(direct.attack_accuracy, paired.cells[1].attack_accuracy);
  EXPECT_EQ(direct.validation_accuracy, paired.cells[1].validation_accuracy);
  EXPECT_EQ(direct.noise_draws, paired.cells[1].noise_draws);
}

TEST(Harness, FrontierBytesAreThreadCountInvariant) {
  const std::vector<CellSpec> cells = {
      CellSpec{A::kAdaptiveWfa, D::kLaplaceFixed, 1.0},
      CellSpec{A::kAdaptiveWfa, D::kDStarFixed, 1.0},
      CellSpec{A::kStaticWfa, D::kDStarFixed, 1.0},
  };
  HarnessConfig one = tiny_config();
  one.num_threads = 1;
  HarnessConfig eight = tiny_config();
  eight.num_threads = 8;
  const SecurityHarness h1(one);
  const SecurityHarness h8(eight);
  std::ostringstream json1, json8, report1, report8;
  write_frontier_json(h1.run(cells), h1.config(), json1);
  write_frontier_json(h8.run(cells), h8.config(), json8);
  write_frontier_report(h1.run(cells), h1.config(), report1);
  write_frontier_report(h8.run(cells), h8.config(), report8);
  EXPECT_EQ(json1.str(), json8.str());
  EXPECT_EQ(report1.str(), report8.str());
}

// ---------------------------------------------------------------------------
// The arms race itself (the Fig. 9b differential, per attacker class).
// ---------------------------------------------------------------------------

TEST(ArmsRace, AdaptiveWfaBeatsStaticUnderLaplace) {
  const SecurityHarness& h = tiny_harness();
  const CellResult fixed =
      h.run_cell(CellSpec{A::kStaticWfa, D::kLaplaceFixed, 1.0});
  const CellResult adaptive =
      h.run_cell(CellSpec{A::kAdaptiveWfa, D::kLaplaceFixed, 1.0});
  EXPECT_GE(adaptive.attack_accuracy + 1e-9, fixed.attack_accuracy);
  // Deterministic per-slice noise is learnable: retraining recovers most
  // of the undefended accuracy (the paper's ~100 % at moderate ε).
  EXPECT_GE(adaptive.attack_accuracy, 0.5);
}

TEST(ArmsRace, DStarHoldsAdaptiveWfaBelowCeiling) {
  // The Fig. 9b geometry (16 sites, 6.25 % guess floor): d* holds the
  // adaptive attacker near the ~41 % ceiling for every ε ≤ 2^0 (measured
  // here: 14.1 / 17.2 / 40.6 % at ε = 2^-5 / 2^-2 / 2^0, vs Laplace's
  // 45 / 84 / 100 % at the same budgets). The pass holds at the pinned
  // analysis cover; other covers spread widely (ROADMAP.md item 2). The
  // ceiling is floor-relative, so the tiny 4-site harness (25 % floor)
  // cannot express it — this test uses the bench's class count at reduced
  // trace scale with a little slack above 41 %.
  HarnessConfig config = tiny_config();
  config.scale.sites = 16;
  config.scale.traces_per_secret = 12;
  config.scale.slices = 150;
  config.scale.epochs = 14;
  config.scale.visits_per_secret = 4;
  const SecurityHarness h(config);
  for (const double epsilon : {0.03125, 0.25, 1.0}) {
    const CellResult cell =
        h.run_cell(CellSpec{A::kAdaptiveWfa, D::kDStarFixed, epsilon});
    EXPECT_LE(cell.attack_accuracy, 0.45) << "epsilon " << epsilon;
    EXPECT_DOUBLE_EQ(cell.random_guess, 0.0625);
  }
}

TEST(ArmsRace, AdaptiveKsaBeatsStaticUnderLaplace) {
  const SecurityHarness& h = tiny_harness();
  attack::KsaScale scale;
  scale.slices = 60;
  scale.traces_per_count = 4;
  scale.epochs = 6;
  const auto secrets = attack::make_ksa_secrets(scale);
  const attack::ClassificationAttackConfig config =
      attack::make_ksa_config(attack_events(h), scale, 99);
  EXPECT_EQ(secrets.size(), 10u);  // a 0.1 guessing floor
  const Defense defense =
      make_defense(h, secrets, dp::MechanismKind::kLaplace, 1.0, 5);
  // Each train starts from a fresh attack: static on clean traces, then
  // adaptive under the defense.
  attack::ClassificationAttack static_attack(h.engine().database(), config);
  static_attack.train(secrets);
  const double fixed = static_attack.exploit(secrets, 2, 123, defense.factory());
  attack::ClassificationAttack adaptive_attack(h.engine().database(), config);
  adaptive_attack.train(secrets, defense.factory());
  const double adaptive =
      adaptive_attack.exploit(secrets, 2, 123, defense.factory());
  EXPECT_GE(adaptive + 0.05, fixed);
}

TEST(ArmsRace, AdaptiveMeaBeatsStaticUnderLaplace) {
  const SecurityHarness& h = tiny_harness();
  attack::MeaConfig config;
  config.event_ids = attack_events(h);
  config.scale.models = 3;
  config.scale.slices = 80;
  config.scale.traces_per_model = 3;
  config.scale.epochs = 4;
  config.seed = 31;
  std::vector<std::unique_ptr<workload::Workload>> calib;
  calib.push_back(std::make_unique<workload::DnnWorkload>(0, 80));
  const Defense defense =
      make_defense(h, calib, dp::MechanismKind::kLaplace, 1.0, 6);
  attack::MeaAttack static_attack(h.engine().database(), config);
  static_attack.train();
  const double fixed = static_attack.exploit(1, 321, defense.factory());
  attack::MeaAttack adaptive_attack(h.engine().database(), config);
  adaptive_attack.train(defense.factory());
  const double adaptive = adaptive_attack.exploit(1, 321, defense.factory());
  EXPECT_GE(adaptive + 0.05, fixed);
}

TEST(Attackers, SliceStepAndFusionProduceValidCells) {
  const SecurityHarness& h = tiny_harness();
  for (const A attacker : {A::kSliceStepWfa, A::kFusionWfa}) {
    const CellResult cell =
        h.run_cell(CellSpec{attacker, D::kLaplaceFixed, 8.0});
    EXPECT_GE(cell.attack_accuracy, 0.0);
    EXPECT_LE(cell.attack_accuracy, 1.0);
    EXPECT_GT(cell.noise_draws, 0u);
    EXPECT_DOUBLE_EQ(cell.random_guess, 0.25);
  }
}

}  // namespace
}  // namespace aegis::seceval
