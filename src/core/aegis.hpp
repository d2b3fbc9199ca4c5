// Aegis facade: the library's top-level entry point (paper Fig. 2).
//
// Offline (template server, one-time):
//   analyze(application, secrets) = Application Profiler (warm-up + Eq. 1
//   ranking) -> Event Fuzzer (gadget discovery per vulnerable event) ->
//   minimal gadget cover.
// Online (victim VM, per protected run):
//   make_obfuscator(result, mechanism) builds an Event Obfuscator whose
//   session() agents inject DP-calibrated gadget noise.
//
// See examples/quickstart.cpp for the end-to-end flow.
#pragma once

#include <memory>

#include "core/config.hpp"
#include "fuzzer/set_cover.hpp"
#include "isa/spec.hpp"
#include "obf/rotating_plan.hpp"
#include "pmu/backend/backend.hpp"

namespace aegis::core {

/// Options for sizing the injected noise (see obf/obfuscator.hpp).
struct ObfuscatorBuildOptions {
  std::size_t protect_top_events = 0;   // 0 = every covered event
  double clip_sigma = 30.0;             // B_u in sigma units
  std::size_t calibration_runs = 2;     // runs per secret for calibration
  /// Ablation: one noise stream for the whole segment (see
  /// obf::ObfuscatorConfig::single_stream). Default: per-gadget streams.
  bool single_noise_stream = false;
  /// Extra multiplier on the per-slice noise amplitude. 1.0 sizes noise to
  /// the calibrated per-slice leakage spread; attack models pool several
  /// consecutive slices per feature, attenuating i.i.d. noise by the square
  /// root of the pooling window, so the default partially compensates.
  /// Raising it strengthens privacy at proportional overhead cost.
  double pooling_factor = 2.0;
  /// Dynamic defense: rotate the injected plan over a deterministic
  /// schedule (Obelix-style; see obf/rotating_plan.hpp). ε-neutral.
  bool rotate = false;
  obf::RotatingPlanConfig rotation;
};

struct OfflineResult {
  profiler::WarmupReport warmup;
  std::vector<profiler::EventRank> ranking;   // sorted by MI, descending
  fuzzer::FuzzResult fuzz;
  fuzzer::GadgetCover cover;

  /// The top-n ranked vulnerable events (the paper monitors the top 4).
  std::vector<std::uint32_t> top_events(std::size_t n) const;
};

class Aegis {
 public:
  /// Binds the per-CPU substrate (PMU backend + ISA specification) for the
  /// template server's processor model. The backend comes from
  /// pmu::backend::BackendRegistry, so every Aegis on the same model shares
  /// one immutable event database.
  explicit Aegis(isa::CpuModel template_cpu);

  /// Offline pipeline: profile -> rank -> fuzz -> cover. Pure function of
  /// (substrate, inputs): safe to call concurrently from service threads.
  OfflineResult analyze(
      const workload::Workload& application,
      const std::vector<std::unique_ptr<workload::Workload>>& secrets,
      const OfflineConfig& config) const;

  /// Online defense: an obfuscator bound to the analyzed gadget cover.
  /// `mechanism` picks Laplace / d* / baseline and the privacy budget; the
  /// per-event noise units are calibrated by running the secret set.
  /// Throws std::invalid_argument before any calibration run for a
  /// non-finite or non-positive clip_sigma or pooling_factor, or a
  /// mechanism parameter its mechanism rejects (dp::make_mechanism).
  std::unique_ptr<obf::EventObfuscator> make_obfuscator(
      const OfflineResult& analysis,
      const std::vector<std::unique_ptr<workload::Workload>>& secrets,
      dp::MechanismConfig mechanism, ObfuscatorBuildOptions options = {},
      std::uint64_t seed = 0x0B5EULL) const;

  const pmu::backend::PmuBackend& backend() const noexcept { return *backend_; }
  const pmu::EventDatabase& database() const noexcept {
    return backend_->database();
  }
  const isa::IsaSpecification& specification() const noexcept { return spec_; }
  isa::CpuModel cpu() const noexcept { return backend_->model(); }

 private:
  const pmu::backend::PmuBackend* backend_;  // registry singleton, never null
  isa::IsaSpecification spec_;
};

}  // namespace aegis::core
