#include "service/protection_service.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "telemetry/registry.hpp"
#include "telemetry/span_tracer.hpp"

namespace aegis::service {

namespace {

/// Copy of the governor config with its telemetry sink pointed at `reg`.
GovernorConfig with_telemetry(GovernorConfig config, telemetry::Registry* reg) {
  config.telemetry = reg;
  return config;
}

}  // namespace

ProtectionService::ProtectionService(ServiceConfig config)
    : config_(config),
      telemetry_(&telemetry::resolve(config.telemetry)),
      attack_monitor_(config.attack_monitor, telemetry_),
      cache_(config.cache),
      governor_(with_telemetry(config.governor, telemetry_)),
      manager_(config.num_threads, governor_, telemetry_),
      queue_(std::max<std::size_t>(1, config.queue_capacity)) {
  manager_.set_attack_monitor(&attack_monitor_);
  dispatcher_ = std::thread([this] { dispatch_loop(); });
}

ProtectionService::~ProtectionService() { shutdown(); }

std::size_t ProtectionService::register_template(
    const core::Aegis& engine, const workload::Workload& application,
    const std::vector<std::unique_ptr<workload::Workload>>& secrets,
    const core::OfflineConfig& offline, dp::MechanismConfig mechanism,
    core::ObfuscatorBuildOptions options, std::uint64_t seed) {
  const TemplateKey key = make_template_key(engine.cpu(), application, offline);
  telemetry::ScopedSpan span(telemetry_->spans(), "service.register_template",
                             0, key.workload_fingerprint);
  // Always consult the cache so its lookup/hit/single-flight accounting
  // reflects every tenant registration, not just the first.
  auto analysis = cache_.get_or_analyze(key, engine, [&] {
    return engine.analyze(application, secrets, offline);
  });

  // First engine to register decides the vendor attack-event set unless the
  // config pinned one explicitly.
  if (attack_monitor_.attack_events().empty()) {
    attack_monitor_.set_attack_events(engine.backend().attack_events());
  }

  std::lock_guard lock(mu_);
  const auto it = template_ids_.find(key);
  if (it != template_ids_.end()) return it->second;
  // First registration of this key on this service instance: run the one
  // shared calibration pass. Holding mu_ makes concurrent same-key
  // registrations single-flight here too (later ones find the id above).
  // aegis-lint: lock-ok(phantom edge: calibration's HostMonitor submits to the sim VirtualMachine, not to this service; no path back to mu_)
  auto tpl = std::make_unique<ProtectionTemplate>(make_protection_template(
      engine, std::move(analysis), secrets, mechanism, options, seed));
  templates_.push_back(std::move(tpl));
  const std::size_t id = templates_.size() - 1;
  template_ids_.emplace(key, id);
  return id;
}

const ProtectionTemplate& ProtectionService::protection_template(
    std::size_t template_id) const {
  std::lock_guard lock(mu_);
  if (template_id >= templates_.size()) {
    throw std::out_of_range("ProtectionService: unknown template id");
  }
  return *templates_[template_id];
}

void ProtectionService::set_tenant_cap(std::uint64_t tenant_id,
                                       double epsilon_cap) {
  governor_.set_tenant_cap(tenant_id, epsilon_cap);
}

bool ProtectionService::submit(SessionSubmission submission) {
  {
    std::lock_guard lock(mu_);
    if (stopped_) return false;
    if (submission.template_id >= templates_.size()) {
      throw std::out_of_range("ProtectionService: unknown template id");
    }
    ++pending_;
  }
  TimedSubmission timed{std::move(submission),
                        // aegis-lint: clock-ok(reporting-only: latency_seconds)
                        std::chrono::steady_clock::now()};
  if (!queue_.push(std::move(timed))) {
    std::lock_guard lock(mu_);
    --pending_;
    idle_cv_.notify_all();
    return false;
  }
  // Counted only after the push succeeds, so a refused push never counts.
  submitted_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void ProtectionService::dispatch_loop() {
  for (;;) {
    auto batch = queue_.pop_batch(std::max<std::size_t>(1, config_.batch_size));
    if (batch.empty()) return;  // closed and drained
    std::optional<telemetry::ScopedSpan> batch_span(
        std::in_place, telemetry_->spans(), "service.dispatch", 0,
        batch.size());

    // A batch may mix templates; group contiguously by template id so each
    // fleet call shares one ProtectionTemplate.
    std::stable_sort(batch.begin(), batch.end(),
                     [](const TimedSubmission& a, const TimedSubmission& b) {
                       return a.submission.template_id <
                              b.submission.template_id;
                     });
    std::size_t begin = 0;
    while (begin < batch.size()) {
      std::size_t end = begin + 1;
      while (end < batch.size() && batch[end].submission.template_id ==
                                       batch[begin].submission.template_id) {
        ++end;
      }
      const ProtectionTemplate* tpl = nullptr;
      {
        std::lock_guard lock(mu_);
        tpl = templates_[batch[begin].submission.template_id].get();
      }
      std::vector<SessionRequest> requests;
      requests.reserve(end - begin);
      for (std::size_t i = begin; i < end; ++i) {
        requests.push_back(batch[i].submission.request);
      }
      std::vector<SessionResult> results = manager_.run_fleet(*tpl, requests);
      // aegis-lint: clock-ok(reporting-only: per-session latency_seconds)
      const auto now = std::chrono::steady_clock::now();
      // The batch span ends before the batch's last pending_ decrement, so
      // drain() cannot return ahead of its end event.
      if (end == batch.size()) batch_span.reset();
      {
        std::lock_guard lock(mu_);
        for (std::size_t i = 0; i < results.size(); ++i) {
          CompletedSession done;
          done.result = std::move(results[i]);
          done.latency_seconds =
              std::chrono::duration<double>(now - batch[begin + i].enqueued)
                  .count();
          completed_.push_back(std::move(done));
        }
        pending_ -= end - begin;
      }
      idle_cv_.notify_all();
      begin = end;
    }
    if (config_.after_batch) config_.after_batch();
  }
}

void ProtectionService::drain() {
  std::unique_lock lock(mu_);
  idle_cv_.wait(lock, [&] { return pending_ == 0; });
}

void ProtectionService::shutdown() {
  {
    std::lock_guard lock(mu_);
    if (stopped_) return;
    stopped_ = true;
  }
  queue_.close();
  if (dispatcher_.joinable()) dispatcher_.join();
}

ServiceStats ProtectionService::stats() const {
  // Every field reads back from the components' own counts or live
  // structures; nothing is double-counted.
  ServiceStats stats;
  stats.cache = cache_.stats();
  stats.tenants = governor_.all_usage();
  stats.sessions_started = manager_.started();
  stats.sessions_active = manager_.active();
  stats.sessions_completed = manager_.completed();
  stats.sessions_refused = manager_.refused();
  stats.sessions_degraded = manager_.degraded();
  stats.noise_draws = manager_.noise_draws();
  stats.queue_depth = queue_.size();
  stats.sessions_submitted = submitted_.load(std::memory_order_relaxed);
  return stats;
}

std::vector<CompletedSession> ProtectionService::take_completed() {
  std::lock_guard lock(mu_);
  std::vector<CompletedSession> out = std::move(completed_);
  completed_.clear();
  return out;
}

}  // namespace aegis::service
