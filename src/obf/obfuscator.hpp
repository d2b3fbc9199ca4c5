// Event Obfuscator (paper Section VII): the online in-guest defense.
//
// Deployed inside the victim VM and triggered when a protected application
// launches, it runs a kernel module (RDPMC reads of the protected event for
// d*) and a userspace daemon (noise calculator + injector) pinned to the
// same vCPU as the protected application, injecting DP-calibrated gadget
// noise into the VM's execution flow every sampling slice. The module's
// read and the daemon's draw happen in the same slice-agent call, so the
// session makes the read itself, on VirtualMachine::last_slice_stats().
//
// Noise calibration. The DP mechanisms operate on *normalized* series
// (Delta_x = 1 after normalization, Section VII-B). The normalization unit
// of an event is its calibrated per-slice leakage spread; one repetition of
// the weighted segment adds a known count delta to every covered event.
// core::Aegis::calibrate sizes the segment once per protected application
// into a CalibratedSegment; every obfuscator is built from that value.
#pragma once

#include <memory>

#include "dp/mechanism.hpp"
#include "obf/injector.hpp"
#include "obf/noise_calculator.hpp"
#include "obf/rotating_plan.hpp"
#include "sim/host_monitor.hpp"
#include "telemetry/flight_recorder.hpp"
#include "workload/workload.hpp"

namespace aegis::obf {

/// The calibration result (core::Aegis::calibrate): the weighted noise
/// segment and its sizing. It depends on no mechanism, ε or build option,
/// so one value serves every obfuscator built for the same analysis,
/// secrets and seed.
struct CalibratedSegment {
  std::uint32_t reference_event = 0;  // series the d* mechanism monitors
  double reference_sigma = 1.0;       // raw counts per 1.0 normalized units
  double unit_reps = 1.0;             // segment reps per 1.0 normalized noise
  /// Per-gadget multiplicities of the stacked segment (never empty).
  std::vector<WeightedGadget> gadgets;
  /// Reference-event count one segment repetition adds.
  double reference_delta = 1.0;

  friend bool operator==(const CalibratedSegment&,
                         const CalibratedSegment&) = default;
};

/// Build knobs that do not change the calibration.
struct ObfuscatorOptions {
  double clip_sigma = 30.0;  // B_u in normalized (sigma) units
  /// Ablation switch: drive the whole segment with ONE noise stream instead
  /// of one per gadget. This places all injected counts on a fixed ray in
  /// event space, which a defense-aware attacker can project out — kept
  /// only for the design-ablation bench.
  bool single_stream = false;
  /// Dynamic defense: morph the injected plan over a deterministic schedule
  /// (see obf/rotating_plan.hpp). ε-neutral: rotation never changes the
  /// number of DP releases, only which gadget weights realize them.
  bool rotate = false;
  RotatingPlanConfig rotation;
};

struct ObfuscatorConfig {
  CalibratedSegment segment;
  dp::MechanismConfig mechanism;
  ObfuscatorOptions options;
  std::uint64_t seed = 1;
};

/// Throws std::invalid_argument, naming `caller`, for a non-finite or
/// non-positive clip_sigma; the mechanism checks its own parameters
/// (dp::make_mechanism). Cheap, so builders run it before calibrating.
void validate_build(const dp::MechanismConfig& mechanism,
                    const ObfuscatorOptions& options, const char* caller);

/// Per-event per-slice count statistics over a secret set, used to size the
/// injected noise (sigma) and the clip bound / constant-output level (peak).
struct EventCalibration {
  std::uint32_t event_id = 0;
  double stddev = 0.0;
  double mean = 0.0;
  double peak = 0.0;  // the paper's p
};

/// Degraded-granularity wrapper for admission-controlled sessions: the
/// inner agent (RDPMC read + noise injection) fires only every
/// `granularity`-th slice, so a monitoring window of T slices consumes
/// ceil(T / granularity) DP releases instead of T. granularity == 1 is the
/// identity. The skipped slices run un-refreshed — the previously injected
/// gadget counts still skew them via micro-architectural carry-over, but
/// the DP guarantee is only per released slice, which is exactly what the
/// BudgetGovernor accounts for.
sim::SliceAgent coarsen_agent(sim::SliceAgent inner, std::size_t granularity);

/// Calibrates `event_ids` over the secret set: secrets x runs_per_secret
/// runs (sim::secret_jobs) through sim::sweep_groups, so each run is
/// simulated once and read through one register file per 4-event group.
/// Per event and run, the mean, sample variance (Welford) and peak of every
/// clamped per-slice delta are streamed; no per-slice rows are stored. The
/// runs' moments are then pooled in job order. The stream is Rng(seed), per
/// job in job order: the VM seed, the visit seed, then one counter-noise
/// seed per group. Runs on the caller's thread: SecurityHarness and
/// SessionManager call this from inside their own pool tasks. No events:
/// nothing runs and the result is empty. Throws std::invalid_argument if
/// `secrets` is empty or runs_per_secret is 0.
std::vector<EventCalibration> calibrate_events(
    const pmu::EventDatabase& db, const std::vector<std::uint32_t>& event_ids,
    const std::vector<std::unique_ptr<workload::Workload>>& secrets,
    std::size_t runs_per_secret, std::uint64_t seed,
    const sim::VmConfig& vm_config = {});

class EventObfuscator {
 public:
  EventObfuscator(const pmu::EventDatabase& db,
                  const isa::IsaSpecification& spec, ObfuscatorConfig config);

  /// Starts one protection session (one protected application run) and
  /// returns the slice agent to install in the VM. Each session gets a
  /// fresh mechanism series and independent randomness.
  sim::SliceAgent session();

  /// Cumulative injected noise across all sessions (Section IX-A compares
  /// mechanisms by total injected event counts).
  double total_injected_repetitions() const noexcept;
  /// Injected counts as seen on the reference event.
  double total_injected_reference_counts() const noexcept;
  /// Cumulative DP mechanism invocations across all sessions — what the
  /// privacy accountant charges. Rotation must leave this identical to the
  /// fixed plan's (tests/obf_test RotationIsPrivacyNeutral).
  std::uint64_t total_noise_draws() const noexcept { return *total_draws_; }
  std::size_t sessions_started() const noexcept { return sessions_; }

  const ObfuscatorConfig& config() const noexcept { return config_; }

 private:
  const isa::IsaSpecification* spec_;
  /// The series the d* mechanism observes, and the raw count of 1.0
  /// normalized units on it.
  const pmu::EventDescriptor* reference_;
  double noise_unit_;
  ObfuscatorConfig config_;
  util::Rng session_seeds_;
  std::size_t sessions_ = 0;
  // Shared across sessions for cumulative accounting.
  std::shared_ptr<double> total_reps_ = std::make_shared<double>(0.0);
  std::shared_ptr<std::uint64_t> total_draws_ =
      std::make_shared<std::uint64_t>(0);
  /// Flight-recorder handles, resolved once at construction (telemetry-
  /// handle rule). rotation_event_ fires on every plan-variant switch (the
  /// slice agent runs on worker threads — the record path is wait-free and
  /// draws no RNG, so the bit-identity contract holds); rng_event_
  /// checkpoints each session's derived mechanism seed. Both stamp VIRTUAL
  /// time (slice index / session ordinal), never a wall clock.
  telemetry::EventHandle rotation_event_;
  telemetry::EventHandle rng_event_;
};

}  // namespace aegis::obf
