#include "seceval/seceval.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "attack/classification_attack.hpp"
#include "attack/ksa.hpp"
#include "attack/slice_step.hpp"
#include "attack/wfa.hpp"
#include "telemetry/registry.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace aegis::seceval {
namespace {

bool is_laplace(DefenseKind kind) noexcept {
  return kind == DefenseKind::kLaplaceFixed ||
         kind == DefenseKind::kLaplaceRotating;
}

bool is_rotating(DefenseKind kind) noexcept {
  return kind == DefenseKind::kLaplaceRotating ||
         kind == DefenseKind::kDStarRotating;
}

bool is_adaptive(AttackerKind kind) noexcept {
  return kind != AttackerKind::kStaticWfa;
}

// The nightly ε sweep: 2^-5 (strong privacy) .. 2^3 (weak).
constexpr double kEpsilons[] = {0.03125, 0.25, 1.0, 8.0};

}  // namespace

std::string_view to_string(AttackerKind kind) noexcept {
  switch (kind) {
    case AttackerKind::kStaticWfa: return "static_wfa";
    case AttackerKind::kAdaptiveWfa: return "adaptive_wfa";
    case AttackerKind::kAdaptiveKsa: return "adaptive_ksa";
    case AttackerKind::kSliceStepWfa: return "slice_step_wfa";
    case AttackerKind::kFusionWfa: return "fusion_wfa";
  }
  return "unknown";
}

std::string_view to_string(DefenseKind kind) noexcept {
  switch (kind) {
    case DefenseKind::kLaplaceFixed: return "laplace_fixed";
    case DefenseKind::kLaplaceRotating: return "laplace_rotating";
    case DefenseKind::kDStarFixed: return "dstar_fixed";
    case DefenseKind::kDStarRotating: return "dstar_rotating";
  }
  return "unknown";
}

std::uint64_t cell_key(const CellSpec& spec) noexcept {
  std::uint64_t key = util::fnv1a("seceval.cell");
  key = util::hash_combine(key, static_cast<std::uint64_t>(spec.attacker));
  key = util::hash_combine(key, static_cast<std::uint64_t>(spec.defense));
  key = util::hash_combine(key, spec.epsilon);
  return key;
}

std::vector<CellSpec> full_matrix() {
  std::vector<CellSpec> cells;
  for (AttackerKind attacker : kAllAttackers) {
    for (DefenseKind defense : kAllDefenses) {
      for (double epsilon : kEpsilons) {
        cells.push_back(CellSpec{attacker, defense, epsilon});
      }
    }
  }
  return cells;
}

std::vector<CellSpec> smoke_matrix() {
  using A = AttackerKind;
  using D = DefenseKind;
  // One row per regression the gate must catch cheaply: the Fig. 9b
  // adaptive-vs-mechanism split (Laplace folds, d* holds), rotation
  // non-regression, the static baseline, and one cell per exotic attacker.
  return {
      CellSpec{A::kAdaptiveWfa, D::kLaplaceFixed, 0.25},
      CellSpec{A::kAdaptiveWfa, D::kLaplaceFixed, 1.0},
      CellSpec{A::kAdaptiveWfa, D::kDStarFixed, 0.25},
      CellSpec{A::kAdaptiveWfa, D::kDStarFixed, 1.0},
      CellSpec{A::kAdaptiveWfa, D::kDStarRotating, 0.25},
      CellSpec{A::kAdaptiveWfa, D::kDStarRotating, 1.0},
      CellSpec{A::kStaticWfa, D::kDStarFixed, 1.0},
      CellSpec{A::kAdaptiveKsa, D::kDStarFixed, 1.0},
      CellSpec{A::kSliceStepWfa, D::kDStarFixed, 1.0},
      CellSpec{A::kFusionWfa, D::kDStarFixed, 1.0},
  };
}

SecurityHarness::SecurityHarness(HarnessConfig config)
    : config_(config), engine_(config.cpu) {
  attack::WfaScale wfa_scale;
  wfa_scale.sites = config_.scale.sites;
  wfa_scale.slices = config_.scale.slices;
  wfa_scale.traces_per_site = config_.scale.traces_per_secret;
  wfa_scale.epochs = config_.scale.epochs;
  const auto secrets = attack::make_wfa_secrets(wfa_scale);

  core::OfflineConfig offline =
      core::make_quick_offline_config(11, config_.num_threads);
  offline.profiler.ranking_runs_per_secret = 5;
  offline.fuzzer.reset_sample = 40;
  offline.fuzzer.trigger_sample = 40;
  offline.fuzz_top_events = 0;
  analysis_ = engine_.analyze(*secrets.front(), secrets, offline);

  // The attacked counter set is a backend query: the paper's AMD picks on
  // EPYC (kAmdAttackEvents, unchanged), the Xeon E5 equivalents on Intel.
  attack_events_ = engine_.backend().attack_events();
  // Fusion group: the 4 named attack events plus the next top-ranked events
  // not already among them — a second multiplexed counter group, reaching
  // signals the cover may not protect.
  fusion_events_ = attack_events_;
  for (const auto& rank : analysis_.ranking) {
    if (fusion_events_.size() >= 2 * pmu::EventDatabase::kNumCounters) break;
    if (std::find(fusion_events_.begin(), fusion_events_.end(),
                  rank.event_id) == fusion_events_.end()) {
      fusion_events_.push_back(rank.event_id);
    }
  }
}

CellResult SecurityHarness::run_cell(const CellSpec& spec) const {
  const std::uint64_t seed = util::split_mix64(config_.seed, cell_key(spec));
  const HarnessScale& scale = config_.scale;

  // Attacker: secret set + classification config for the cell's class.
  attack::WfaScale wfa_scale;
  wfa_scale.sites = scale.sites;
  wfa_scale.slices = scale.slices;
  wfa_scale.traces_per_site = scale.traces_per_secret;
  wfa_scale.epochs = scale.epochs;

  std::vector<std::unique_ptr<workload::Workload>> secrets;
  attack::ClassificationAttackConfig attack_config;
  switch (spec.attacker) {
    case AttackerKind::kStaticWfa:
    case AttackerKind::kAdaptiveWfa:
      secrets = attack::make_wfa_secrets(wfa_scale);
      attack_config =
          attack::make_wfa_config(attack_events_, wfa_scale, seed ^ 0xA77ULL);
      break;
    case AttackerKind::kSliceStepWfa:
      secrets = attack::make_wfa_secrets(wfa_scale);
      attack_config =
          attack::make_wfa_config(attack_events_, wfa_scale, seed ^ 0xA77ULL);
      attack_config.collection.stepper =
          attack::make_burst_planner(attack::BurstStepPolicy{});
      break;
    case AttackerKind::kFusionWfa:
      secrets = attack::make_wfa_secrets(wfa_scale);
      attack_config =
          attack::make_wfa_config(fusion_events_, wfa_scale, seed ^ 0xA77ULL);
      break;
    case AttackerKind::kAdaptiveKsa: {
      attack::KsaScale ksa_scale;
      ksa_scale.slices = scale.slices;
      ksa_scale.traces_per_count = scale.traces_per_secret;
      ksa_scale.epochs = scale.epochs;
      secrets = attack::make_ksa_secrets(ksa_scale);
      attack_config =
          attack::make_ksa_config(attack_events_, ksa_scale, seed ^ 0xA77ULL);
      break;
    }
  }

  // Defense: obfuscator calibrated against the cell's own secret set.
  dp::MechanismConfig mechanism;
  mechanism.kind = is_laplace(spec.defense) ? dp::MechanismKind::kLaplace
                                            : dp::MechanismKind::kDStar;
  mechanism.epsilon = spec.epsilon;
  core::ObfuscatorBuildOptions options;
  options.rotate = is_rotating(spec.defense);
  const auto obfuscator = engine_.make_obfuscator(analysis_, secrets,
                                                  mechanism, options,
                                                  seed ^ 0x0B5FULL);
  obf::EventObfuscator* obf = obfuscator.get();
  const attack::AgentFactory defense = [obf] { return obf->session(); };

  // Static attackers train on clean traces, adaptive ones under the
  // deployed defense (paper Fig. 9b).
  attack::ClassificationAttack attacker(engine_.database(),
                                        std::move(attack_config));
  attacker.train(secrets, is_adaptive(spec.attacker) ? defense
                                                     : attack::AgentFactory{});

  CellResult result;
  result.spec = spec;
  result.attack_accuracy = attacker.exploit(secrets, scale.visits_per_secret,
                                            seed ^ 0xE4ULL, defense);
  result.validation_accuracy = attacker.validation_accuracy();
  result.random_guess = 1.0 / static_cast<double>(secrets.size());
  result.noise_draws = obf->total_noise_draws();
  const double sessions = static_cast<double>(obf->sessions_started());
  result.injected_reps_per_slice =
      sessions > 0.0 ? obf->total_injected_repetitions() /
                           (sessions * static_cast<double>(scale.slices))
                     : 0.0;
  return result;
}

FrontierResult SecurityHarness::run(const std::vector<CellSpec>& cells) const {
  telemetry::Registry& reg = telemetry::Registry::global();

  std::vector<CellResult> results(cells.size());
  util::ThreadPool pool(config_.num_threads);
  pool.parallel_for(cells.size(), [&](std::size_t i) {
    telemetry::ScopedSpan span(reg.spans(), "seceval.cell", 0,
                               static_cast<std::uint64_t>(i));
    results[i] = run_cell(cells[i]);
  });

  FrontierResult frontier;
  frontier.cells = std::move(results);
  std::sort(frontier.cells.begin(), frontier.cells.end(),
            [](const CellResult& a, const CellResult& b) {
              if (a.spec.attacker != b.spec.attacker) {
                return a.spec.attacker < b.spec.attacker;
              }
              if (a.spec.defense != b.spec.defense) {
                return a.spec.defense < b.spec.defense;
              }
              return a.spec.epsilon < b.spec.epsilon;
            });
  return frontier;
}

}  // namespace aegis::seceval
