// Aegis facade: the library's top-level entry point (paper Fig. 2).
//
// Offline (template server, one-time):
//   analyze(application, secrets) = Application Profiler (warm-up + Eq. 1
//   ranking) -> Event Fuzzer (gadget discovery per vulnerable event) ->
//   minimal gadget cover.
// Online (victim VM, per protected application):
//   calibrate(result, secrets) sizes the weighted noise segment once;
//   make_obfuscator(result, mechanism) calibrates and builds an Event
//   Obfuscator whose session() agents inject DP-calibrated gadget noise.
//
// See examples/quickstart.cpp for the end-to-end flow.
#pragma once

#include <memory>

#include "core/config.hpp"
#include "fuzzer/set_cover.hpp"
#include "isa/spec.hpp"
#include "obf/obfuscator.hpp"
#include "pmu/backend/backend.hpp"

namespace aegis::core {

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
  /// template server's processor model. The backend is the model's
  /// process-wide pmu::backend::backend_for instance, so every Aegis on the
  /// same model shares one immutable event database.
  explicit Aegis(isa::CpuModel template_cpu);

  /// Offline pipeline: profile -> rank -> fuzz -> cover. Pure function of
  /// (substrate, inputs): safe to call concurrently from service threads.
  OfflineResult analyze(
      const workload::Workload& application,
      const std::vector<std::unique_ptr<workload::Workload>>& secrets,
      const OfflineConfig& config) const;

  /// Sizes the noise once per protected application. The protected events
  /// are the events the cover reaches, in ranking order; the first is the
  /// reference event. Each is calibrated over the secret set
  /// (obf::calibrate_events, seed ^ 0xCA1) to its per-slice spread sigma_e
  /// and needs r_e = sigma_e / delta_e segment repetitions per 1.0 units of
  /// normalized noise. The unit is sized to the MEDIAN r_e (the spread is an
  /// order of magnitude), and each event above it gets its
  /// highest-value-change gadget (Section VI-F) boosted in the segment until
  /// its effective delta reaches sigma_e / unit, so every protected event
  /// receives at least its full mechanism noise. unit_reps is the unit times
  /// kPoolingFactor. Reads no mechanism, ε or build option. Throws
  /// std::invalid_argument before any calibration run if the cover reaches
  /// no event.
  obf::CalibratedSegment calibrate(
      const OfflineResult& analysis,
      const std::vector<std::unique_ptr<workload::Workload>>& secrets,
      std::uint64_t seed) const;

  /// Online defense: an obfuscator built from calibrate(analysis, secrets,
  /// seed). `mechanism` picks Laplace / d* / baseline and the privacy
  /// budget. Throws std::invalid_argument before any calibration run for a
  /// non-finite or non-positive clip_sigma, or a mechanism parameter its
  /// mechanism rejects (dp::make_mechanism).
  std::unique_ptr<obf::EventObfuscator> make_obfuscator(
      const OfflineResult& analysis,
      const std::vector<std::unique_ptr<workload::Workload>>& secrets,
      dp::MechanismConfig mechanism, obf::ObfuscatorOptions options = {},
      std::uint64_t seed = 0x0B5EULL) const;

  const pmu::backend::PmuBackend& backend() const noexcept { return *backend_; }
  const pmu::EventDatabase& database() const noexcept {
    return backend_->database();
  }
  const isa::IsaSpecification& specification() const noexcept { return spec_; }
  isa::CpuModel cpu() const noexcept { return backend_->model(); }

 private:
  const pmu::backend::PmuBackend* backend_;  // process-wide singleton, never null
  isa::IsaSpecification spec_;
};

}  // namespace aegis::core
