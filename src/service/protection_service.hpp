// ProtectionService: the host-side Aegis daemon (multi-tenant simulation).
//
// Related work frames obfuscation defenses as long-running runtime
// services with explicit budgets, not one-shot tools (Obelix; SEV-Step's
// always-on per-VM loop). This facade turns the Aegis library into that
// service:
//
//   tenants ──submit()──▶ BoundedQueue ──▶ dispatcher thread
//                (backpressure)               │ batches by template
//                                             ▼
//             BudgetGovernor ◀── admission ── SessionManager ──▶ ThreadPool
//                  │                               │
//             per-tenant eps caps           per-session VM+obfuscator
//
// Templates are registered once per (CPU family, workload, config) via the
// single-flight TemplateCache (warm-started from disk when configured);
// session submissions reference a registered template id. stats() returns
// a consistent ServiceStats snapshot for observability.
#pragma once

#include <atomic>
#include <chrono>
#include <functional>
#include <thread>

#include "service/bounded_queue.hpp"
#include "service/session_manager.hpp"
#include "service/template_cache.hpp"
#include "telemetry/anomaly.hpp"

namespace aegis::service {

struct ServiceConfig {
  /// Session-pool executors, the dispatcher thread included: n runs a
  /// batch on the dispatcher plus up to n - 1 workers, and 1 runs every
  /// session on the dispatcher (0 = hardware concurrency).
  std::size_t num_threads = 0;
  /// Submission-queue bound; submit() blocks past this (backpressure).
  std::size_t queue_capacity = 64;
  /// Max sessions the dispatcher hands the pool per fleet batch.
  std::size_t batch_size = 16;
  GovernorConfig governor;
  TemplateCacheConfig cache;
  /// Flight recorder for the whole service: phase spans, admission
  /// decisions, RNG checkpoints and alerts (null =
  /// telemetry::Registry::global()). The governor's sink is overridden to
  /// point at the resolved registry. Counts stay per instance either way:
  /// stats() reads them from the components, not from the registry.
  telemetry::Registry* telemetry = nullptr;
  /// Online attack monitor (telemetry/anomaly.hpp). It scores every
  /// executed session; when attack_monitor.attack_events is empty it is
  /// populated from the first registered engine's PMU backend
  /// (PmuBackend::attack_events()).
  telemetry::AttackMonitorConfig attack_monitor;
  /// Test seam, null in production: the dispatcher calls it after each
  /// batch, once the batch's sessions are accounted and drain() woken.
  std::function<void()> after_batch;
};

struct SessionSubmission {
  std::size_t template_id = 0;
  SessionRequest request;
};

struct CompletedSession {
  SessionResult result;
  double latency_seconds = 0.0;  // enqueue -> session completion
};

class ProtectionService {
 public:
  explicit ProtectionService(ServiceConfig config = {});
  ~ProtectionService();

  ProtectionService(const ProtectionService&) = delete;
  ProtectionService& operator=(const ProtectionService&) = delete;

  /// Registers (or joins) the protection template for this (engine,
  /// application, offline config): offline analysis through the
  /// single-flight TemplateCache, then one calibration pass shared by all
  /// sessions. Concurrent registrations of the same key perform exactly
  /// one analysis and one calibration. Returns the template id sessions
  /// reference.
  std::size_t register_template(
      const core::Aegis& engine, const workload::Workload& application,
      const std::vector<std::unique_ptr<workload::Workload>>& secrets,
      const core::OfflineConfig& offline, dp::MechanismConfig mechanism,
      core::ObfuscatorBuildOptions options = {},
      std::uint64_t seed = 0x0B5EULL);

  const ProtectionTemplate& protection_template(std::size_t template_id) const;

  void set_tenant_cap(std::uint64_t tenant_id, double epsilon_cap);

  /// Enqueues one session; blocks while the queue is full (backpressure).
  /// Returns false iff the service is shutting down.
  bool submit(SessionSubmission submission);

  /// Blocks until every accepted submission has been dispatched and run.
  void drain();

  /// Stops accepting work, drains the queue and joins the dispatcher.
  /// Idempotent; the destructor calls it.
  void shutdown();

  ServiceStats stats() const;

  /// Moves out the finished sessions accumulated since the last call.
  std::vector<CompletedSession> take_completed();

  BudgetGovernor& governor() noexcept { return governor_; }
  TemplateCache& cache() noexcept { return cache_; }
  telemetry::AttackProbabilityMonitor& attack_monitor() noexcept {
    return attack_monitor_;
  }
  std::size_t num_threads() const noexcept { return manager_.num_threads(); }

 private:
  struct TimedSubmission {
    SessionSubmission submission;
    std::chrono::steady_clock::time_point enqueued;
  };

  void dispatch_loop();

  ServiceConfig config_;
  telemetry::Registry* telemetry_;  // resolved (never null)
  telemetry::AttackProbabilityMonitor attack_monitor_;
  TemplateCache cache_;
  BudgetGovernor governor_;
  SessionManager manager_;
  BoundedQueue<TimedSubmission> queue_;
  std::atomic<std::size_t> submitted_{0};

  // aegis-lint: lock-level(30, noblock)
  mutable std::mutex mu_;  // guards templates_, completed_, pending_
  std::condition_variable idle_cv_;
  std::vector<std::unique_ptr<ProtectionTemplate>> templates_;
  std::unordered_map<TemplateKey, std::size_t, TemplateKeyHash> template_ids_;
  std::vector<CompletedSession> completed_;
  std::size_t pending_ = 0;    // accepted but not yet finished

  std::thread dispatcher_;
  bool stopped_ = false;
};

}  // namespace aegis::service
