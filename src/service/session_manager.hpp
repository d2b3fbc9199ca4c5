// SessionManager: concurrent protected guest sessions with fleet-level
// determinism.
//
// One session = one tenant's protected run: its own sim::VirtualMachine,
// sim::HostMonitor and obf::EventObfuscator, driven for `slices`
// monitoring slices under the template's gadget cover. Sessions share
// ONLY immutable state (the Aegis substrate and the cached OfflineResult);
// every stochastic component derives from the tenant's seed via
// util::split_mix64(seed, stream), so a tenant's counter trace is
// bit-identical whether it runs alone (run_protected_session) or inside a
// 64-tenant fleet at any thread count — the same determinism contract the
// parallel campaign engine established (DESIGN.md).
//
// Admission control (BudgetGovernor) is consulted in SUBMISSION ORDER on
// the calling thread before the fleet fans out, because governor decisions
// mutate per-tenant budget state: running them from pool workers would
// make outcomes depend on scheduling.
#pragma once

#include <atomic>
#include <memory>
#include <vector>

#include "core/aegis.hpp"
#include "service/budget_governor.hpp"
#include "util/thread_pool.hpp"

namespace aegis::telemetry {
class Registry;
class AttackProbabilityMonitor;
struct SessionFeatures;
}

namespace aegis::service {

/// Immutable per-template state shared by every session of that template.
struct ProtectionTemplate {
  const core::Aegis* engine = nullptr;  // event database + ISA spec
  std::shared_ptr<const core::OfflineResult> analysis;
  /// Calibrated obfuscator parameters (noise sizing, weighted segment).
  /// The seed field is overridden per session from the tenant seed.
  obf::ObfuscatorConfig obf_config;
  /// Events the host-side monitor records for the session trace (the
  /// paper's attacks watch the top-4 ranked events).
  std::vector<std::uint32_t> monitored_events;
  sim::VmConfig vm;
};

/// Builds the shared template: one make_obfuscator calibration pass whose
/// resulting config is reused (reseeded) by every session.
ProtectionTemplate make_protection_template(
    const core::Aegis& engine,
    std::shared_ptr<const core::OfflineResult> analysis,
    const std::vector<std::unique_ptr<workload::Workload>>& secrets,
    dp::MechanismConfig mechanism, core::ObfuscatorBuildOptions options = {},
    std::uint64_t seed = 0x0B5EULL, std::size_t monitor_top_events = 4);

struct SessionRequest {
  std::uint64_t tenant_id = 0;
  /// Root of the tenant's deterministic seed tree. All session randomness
  /// (VM, monitor, workload visit, obfuscator) derives from it.
  std::uint64_t seed = 1;
  const workload::Workload* application = nullptr;
  std::size_t slices = 0;
  /// Per-slice DP budget the window consumes (the Laplace epsilon of the
  /// template mechanism; 0 for series-level mechanisms like d*).
  double per_slice_epsilon = 0.0;
};

struct SessionResult {
  std::uint64_t tenant_id = 0;
  Admission outcome = Admission::kRefuse;
  std::size_t granularity = 0;  // noise-refresh period actually used
  sim::MonitorResult trace;     // empty for refused sessions
  double injected_repetitions = 0.0;
  /// Laplace values the session's obfuscator drew: one per noise stream
  /// per noise-refresh window.
  std::uint64_t noise_draws = 0;
  double epsilon_after = 0.0;   // tenant advanced epsilon after this window
};

/// Standalone reference run of ONE session at a fixed granularity — the
/// exact computation a fleet session performs, with no fleet state at all.
/// The fleet-determinism tests compare against this. When `telemetry` is
/// non-null, each noise-refresh window (every `granularity`-th slice) is
/// recorded as an "inject.window" span stamped from the session's VIRTUAL
/// clock (slice index), so traces are deterministic and identical at any
/// thread count; results are bit-identical with or without telemetry.
SessionResult run_protected_session(const ProtectionTemplate& tpl,
                                    const SessionRequest& request,
                                    std::size_t granularity = 1,
                                    telemetry::Registry* telemetry = nullptr);

class SessionManager {
 public:
  /// num_threads: session-pool executors, the thread that calls
  /// run_fleet included (0 = hardware concurrency).
  /// `telemetry` receives the fleet spans and RNG checkpoints (null =
  /// telemetry::Registry::global()).
  SessionManager(std::size_t num_threads, BudgetGovernor& governor,
                 telemetry::Registry* telemetry = nullptr);

  /// Admits (in request order) and runs one fleet batch concurrently.
  /// results[i] corresponds to requests[i]; refused sessions carry an
  /// empty trace and outcome kRefuse.
  std::vector<SessionResult> run_fleet(
      const ProtectionTemplate& tpl,
      const std::vector<SessionRequest>& requests);

  std::size_t started() const noexcept {
    return started_.load(std::memory_order_relaxed);
  }
  std::size_t completed() const noexcept {
    return completed_.load(std::memory_order_relaxed);
  }
  std::size_t refused() const noexcept {
    return refused_.load(std::memory_order_relaxed);
  }
  std::size_t degraded() const noexcept {
    return degraded_.load(std::memory_order_relaxed);
  }
  /// Summed noise_draws of every session run so far.
  std::uint64_t noise_draws() const noexcept {
    return noise_draws_.load(std::memory_order_relaxed);
  }
  /// Sessions currently executing on the pool (an instantaneous count).
  std::size_t active() const noexcept {
    return active_.load(std::memory_order_relaxed);
  }

  std::size_t num_threads() const noexcept { return pool_.size(); }

  /// Attaches the online attack-probability monitor. Executed sessions are
  /// then scored serially, in submission order, AFTER the fleet fan-out
  /// completes — scoring reads shared monitor state, so running it from
  /// pool workers would make alert order depend on scheduling. Null
  /// detaches. Scoring draws no RNG and never touches session results, so
  /// the bit-identity contract is unaffected.
  void set_attack_monitor(telemetry::AttackProbabilityMonitor* monitor) noexcept {
    attack_monitor_ = monitor;
  }

 private:
  util::ThreadPool pool_;
  BudgetGovernor* governor_;
  telemetry::Registry* telemetry_;  // resolved (never null)
  // Relaxed atomics: pool workers bump them concurrently.
  std::atomic<std::size_t> started_{0};
  std::atomic<std::size_t> completed_{0};
  std::atomic<std::size_t> refused_{0};
  std::atomic<std::size_t> degraded_{0};
  std::atomic<std::uint64_t> noise_draws_{0};
  std::atomic<std::size_t> active_{0};
  /// Per-session RNG-stream checkpoints (kRngCheckpoint wide events): the
  /// request seed plus the derived VM/monitor/obfuscator stream seeds, so a
  /// dump pinpoints exactly which randomness a session consumed. Stamped
  /// with the request index (virtual time) on the worker — wait-free.
  telemetry::EventHandle rng_event_;
  telemetry::AttackProbabilityMonitor* attack_monitor_ = nullptr;
};

}  // namespace aegis::service
