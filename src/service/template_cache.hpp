// TemplateCache: memoized offline analyses for the protection service.
//
// The paper's deployment model (Fig. 2) makes the offline stage a ONE-TIME
// cost on a template server; a fleet-scale service must therefore never
// re-run `core::Aegis::analyze` for a (CPU, workload, config) combination
// it has already analyzed. The cache provides:
//   * memoization keyed on (CPU family, workload fingerprint, OfflineConfig
//     hash) — CPU *family*, not model, because family members share their
//     event lists (Table I) and analyses port across them;
//   * single-flight deduplication — when M tenants cold-start with the same
//     key concurrently, exactly ONE runs the analysis and the other M-1
//     block on the in-flight entry and share its result;
//   * warm-start from disk via core/serialize — an optional cache directory
//     persists every fresh analysis, so a restarted service (or a sibling
//     host) satisfies its first miss with a load instead of a re-analysis.
#pragma once

#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "core/serialize.hpp"
#include "service/service_stats.hpp"
#include "telemetry/metrics.hpp"
#include "workload/workload.hpp"

namespace aegis::telemetry {
class Registry;
}

namespace aegis::service {

struct TemplateKey {
  /// PMU backend identifier ("amd-zen2", "intel-xeon-e5"): one backend per
  /// vendor family, so it carries the same porting guarantee the family
  /// check does and names the files something humans can attribute.
  std::string backend_id;
  isa::Vendor vendor = isa::Vendor::kAmd;
  int cpu_family = 0;
  std::uint64_t workload_fingerprint = 0;
  std::uint64_t config_hash = 0;

  bool operator==(const TemplateKey&) const = default;
};

struct TemplateKeyHash {
  std::size_t operator()(const TemplateKey& key) const noexcept;
};

/// Stable fingerprint of a protected application: its secret-set label and
/// monitoring-window length. Two workloads with the same fingerprint share
/// an analysis template.
std::uint64_t fingerprint_workload(const workload::Workload& application);

/// Stable hash of every result-affecting OfflineConfig field. num_threads
/// is deliberately EXCLUDED: campaign results are thread-count-invariant
/// by construction (see DESIGN.md), so the same analysis is valid at any
/// worker count.
std::uint64_t hash_offline_config(const core::OfflineConfig& config);

TemplateKey make_template_key(isa::CpuModel cpu,
                              const workload::Workload& application,
                              const core::OfflineConfig& config);

struct TemplateCacheConfig {
  /// Directory for the serialized templates ("" = memory-only cache). The
  /// directory must already exist; files are named tpl-<backend-id>-
  /// <family>-<workload-fp>-<config-hash>.aegis.
  std::string cache_dir;
  /// Metric sink. Null = the cache creates a PRIVATE registry so stats()
  /// stays per-instance exact; inject one to aggregate across components.
  /// Observational only — never part of hash_offline_config.
  telemetry::Registry* telemetry = nullptr;
};

class TemplateCache {
 public:
  using AnalyzeFn = std::function<core::OfflineResult()>;

  explicit TemplateCache(TemplateCacheConfig config = {});
  ~TemplateCache();

  /// Returns the template for `key`, running `analyze` at most once per
  /// key across all concurrent callers (single-flight). Resolution order
  /// for a miss: disk warm-start (if configured), then `analyze` (whose
  /// result is persisted back to disk, best-effort). If the leader's
  /// analysis throws, every waiter receives the error and the entry is
  /// evicted so a later call can retry. A disk file loads against
  /// `engine`'s event database and ISA specification; a file that fails to
  /// load (malformed, or naming an unknown or faulting gadget variant)
  /// counts as a failed load and falls back to `analyze`.
  std::shared_ptr<const core::OfflineResult> get_or_analyze(
      const TemplateKey& key, const core::Aegis& engine,
      const AnalyzeFn& analyze);

  /// Path the given key persists to ("" when the cache is memory-only).
  std::string disk_path(const TemplateKey& key) const;

  /// Derived view over the registry counters (see TemplateCacheStats docs
  /// for the exact invariants).
  TemplateCacheStats stats() const;

  /// Registry receiving this cache's counters (the injected one, or the
  /// internally owned fallback).
  telemetry::Registry& telemetry() const noexcept { return *telemetry_; }

  /// Cached entries currently resident in memory.
  std::size_t size() const;

 private:
  struct Entry {
    // aegis-lint: lock-level(20)
    std::mutex mu;
    std::condition_variable ready_cv;
    bool ready = false;
    bool failed = false;
    std::string error;
    std::shared_ptr<const core::OfflineResult> result;
  };

  TemplateCacheConfig config_;
  std::unique_ptr<telemetry::Registry> owned_telemetry_;
  telemetry::Registry* telemetry_;
  // Handles resolved once at construction; stats() reads them back.
  telemetry::Counter lookups_;
  telemetry::Counter hits_;
  telemetry::Counter misses_;
  telemetry::Counter warm_starts_;
  telemetry::Counter failed_loads_;
  telemetry::Counter analyses_;
  // aegis-lint: lock-level(10, noblock)
  mutable std::mutex mu_;  // guards entries_
  std::unordered_map<TemplateKey, std::shared_ptr<Entry>, TemplateKeyHash>
      entries_;
};

}  // namespace aegis::service
