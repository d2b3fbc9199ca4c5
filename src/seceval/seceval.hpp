// Security-evaluation harness: the adaptive-attacker arms race as a
// regression-gated artifact.
//
// Accuracy-threshold unit tests pin single points; what the defense claims
// is a FRONTIER — attack accuracy as a function of (attacker class,
// defense, privacy budget ε). This module runs that matrix and emits it as
// a deterministic artifact (BENCH_security.json + REPORT_security.md) so CI
// can diff security the way it diffs performance: scripts/bench_compare.py
// --security fails the build when any cell's attack accuracy RISES more
// than 2 points over the committed baseline.
//
// Attacker classes (each an attack::ClassificationAttack):
//   * static        — trains on clean traces, exploits under the defense
//   * adaptive      — retrains on defense-obfuscated traces (paper Fig. 9b)
//   * slice-stepping— adaptive + attacker-chosen sampling boundaries
//                     (SEV-Step spirit; sim::SlicePlanner hook)
//   * fusion        — adaptive + concatenated features from two multiplexed
//                     counter groups (events beyond the protected top-4)
// Defenses: {Laplace, d*} x {fixed plan, rotating plan (obf::RotatingPlan)}.
//
// Determinism contract: a cell's value is a pure function of (harness
// config, cell spec) — the per-cell seed derives from a stable hash of the
// spec itself, NOT from the cell's position in the run list. The smoke
// subset therefore reproduces the full frontier's values bit-for-bit, and
// sharding the matrix across any util::ThreadPool size changes nothing.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "core/aegis.hpp"

namespace aegis::seceval {

enum class AttackerKind : unsigned char {
  kStaticWfa,     // Fig. 9a attacker: clean templates
  kAdaptiveWfa,   // Fig. 9b attacker: retrained under the defense
  kAdaptiveKsa,   // adaptive keystroke sniffer
  kSliceStepWfa,  // adaptive + burst-adaptive slice stepping
  kFusionWfa,     // adaptive + 8-event cross-signal fusion
};
inline constexpr AttackerKind kAllAttackers[] = {
    AttackerKind::kStaticWfa,    AttackerKind::kAdaptiveWfa,
    AttackerKind::kAdaptiveKsa,  AttackerKind::kSliceStepWfa,
    AttackerKind::kFusionWfa,
};

enum class DefenseKind : unsigned char {
  kLaplaceFixed,
  kLaplaceRotating,
  kDStarFixed,
  kDStarRotating,
};
inline constexpr DefenseKind kAllDefenses[] = {
    DefenseKind::kLaplaceFixed, DefenseKind::kLaplaceRotating,
    DefenseKind::kDStarFixed,   DefenseKind::kDStarRotating,
};

std::string_view to_string(AttackerKind kind) noexcept;
std::string_view to_string(DefenseKind kind) noexcept;

struct CellSpec {
  AttackerKind attacker = AttackerKind::kAdaptiveWfa;
  DefenseKind defense = DefenseKind::kDStarFixed;
  double epsilon = 1.0;
};

/// Stable identity hash of a cell spec (FNV over the enum values and the
/// ε bit pattern). Seeds derive from this, so a cell's result is the same
/// whether it runs in the smoke subset or the full frontier.
std::uint64_t cell_key(const CellSpec& spec) noexcept;

struct CellResult {
  CellSpec spec;
  double attack_accuracy = 0.0;      // success metric on the victim VM
  double validation_accuracy = 0.0;  // attacker's held-out metric
  double random_guess = 0.0;         // guessing floor of the metric
  double injected_reps_per_slice = 0.0;  // defense overhead proxy
  std::uint64_t noise_draws = 0;     // DP releases the accountant charges
};

/// Matrix sizing. Defaults are tuned so the smoke subset finishes inside a
/// PR-CI budget while the attacks stay strong enough to separate defenses.
struct HarnessScale {
  std::size_t sites = 8;              // WFA classes
  std::size_t traces_per_secret = 10; // template visits per class
  std::size_t slices = 120;           // monitoring window per visit
  std::size_t epochs = 12;            // classifier training epochs
  std::size_t visits_per_secret = 4;  // victim visits per class at exploit
};

struct HarnessConfig {
  HarnessScale scale;
  std::size_t num_threads = 0;  // cell shards; 0 = hardware concurrency
  std::uint64_t seed = 0x5ECE7A1ULL;
  isa::CpuModel cpu = isa::CpuModel::kAmdEpyc7252;
};

struct FrontierResult {
  /// Sorted canonically by (attacker, defense, ε) regardless of run order.
  std::vector<CellResult> cells;
};

/// The committed nightly frontier: every attacker x every defense x
/// ε in {2^-5, 2^-2, 2^0, 2^3}.
std::vector<CellSpec> full_matrix();
/// The PR-CI subset (a strict subset of full_matrix(), identical values).
std::vector<CellSpec> smoke_matrix();

class SecurityHarness {
 public:
  /// Runs the offline pipeline once (profile -> rank -> fuzz -> cover) on
  /// the WFA secret set; every cell reuses the resulting gadget cover.
  explicit SecurityHarness(HarnessConfig config = {});

  /// Shards `cells` across the thread pool. Bit-identical at any worker
  /// count (per-cell seeds come from cell_key, shards merge in index
  /// order, output is canonically sorted).
  FrontierResult run(const std::vector<CellSpec>& cells) const;

  /// One cell, synchronously: builds the defense obfuscator and the
  /// attacker, retrains (adaptively unless the attacker is static), then
  /// exploits fresh victim runs. Pure function of (config, spec).
  CellResult run_cell(const CellSpec& spec) const;

  const core::OfflineResult& analysis() const noexcept { return analysis_; }
  const HarnessConfig& config() const noexcept { return config_; }
  /// The underlying pipeline (tests build extra obfuscators/attacks on the
  /// shared analysis instead of re-running the offline stage).
  const core::Aegis& engine() const noexcept { return engine_; }

 private:
  HarnessConfig config_;
  core::Aegis engine_;
  core::OfflineResult analysis_;
  std::vector<std::uint32_t> attack_events_;  // the paper's 4 AMD events
  std::vector<std::uint32_t> fusion_events_;  // + next ranked, 2 groups
};

/// "2^-5" for exact powers of two, plain decimal otherwise.
std::string format_epsilon(double epsilon);

/// Deterministic machine artifact (BENCH_security.json): byte-exact for a
/// given frontier — golden-tested, diffed by bench_compare.py --security.
void write_frontier_json(const FrontierResult& frontier,
                         const HarnessConfig& config, std::ostream& out);

/// Human-readable companion (REPORT_security.md): one accuracy table per
/// attacker, defenses as columns, ε rows. Also byte-exact.
void write_frontier_report(const FrontierResult& frontier,
                           const HarnessConfig& config, std::ostream& out);

}  // namespace aegis::seceval
