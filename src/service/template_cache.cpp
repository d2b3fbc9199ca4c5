#include "service/template_cache.hpp"

#include <fstream>
#include <sstream>

#include "pmu/backend/registry.hpp"
#include "telemetry/registry.hpp"
#include "util/hash.hpp"

namespace aegis::service {

std::size_t TemplateKeyHash::operator()(const TemplateKey& key) const noexcept {
  std::uint64_t h = util::fnv1a(key.backend_id);
  h = util::hash_combine(h, static_cast<std::uint64_t>(key.vendor));
  h = util::hash_combine(h, static_cast<std::uint64_t>(key.cpu_family));
  h = util::hash_combine(h, key.workload_fingerprint);
  h = util::hash_combine(h, key.config_hash);
  return static_cast<std::size_t>(h);
}

std::uint64_t fingerprint_workload(const workload::Workload& application) {
  std::uint64_t h = util::fnv1a(application.name());
  return util::hash_combine(
      h, static_cast<std::uint64_t>(application.trace_slices()));
}

std::uint64_t hash_offline_config(const core::OfflineConfig& config) {
  std::uint64_t h = util::kFnvOffset;
  const auto& p = config.profiler;
  h = util::hash_combine(h, static_cast<std::uint64_t>(p.warmup_slices));
  h = util::hash_combine(h, static_cast<std::uint64_t>(p.warmup_repeats));
  h = util::hash_combine(h, p.warmup_rel_change);
  h = util::hash_combine(h, p.warmup_abs_change);
  h = util::hash_combine(h,
                         static_cast<std::uint64_t>(p.ranking_runs_per_secret));
  h = util::hash_combine(h, static_cast<std::uint64_t>(p.feature_windows));
  h = util::hash_combine(h, p.seed);
  h = util::hash_combine(h, p.vm.slice_budget_cycles);
  h = util::hash_combine(h, p.vm.interrupt_rate);
  h = util::hash_combine(h, p.vm.interrupt_cycles);
  h = util::hash_combine(h, p.vm.interrupt_uops);
  h = util::hash_combine(h, p.vm.cost.issue_width);
  h = util::hash_combine(h, p.vm.cost.l1_miss_cycles);
  h = util::hash_combine(h, p.vm.cost.llc_miss_cycles);
  h = util::hash_combine(h, p.vm.cost.branch_miss_cycles);
  h = util::hash_combine(h, p.vm.cost.serialize_cycles);
  h = util::hash_combine(h, p.vm.cost.int_div_extra);
  h = util::hash_combine(h, p.vm.cost.fp_div_extra);
  const auto& f = config.fuzzer;
  h = util::hash_combine(h, static_cast<std::uint64_t>(f.repeats));
  h = util::hash_combine(h, f.lambda1);
  h = util::hash_combine(h, f.lambda2);
  h = util::hash_combine(h, f.delta_threshold);
  h = util::hash_combine(h, static_cast<std::uint64_t>(f.reset_unroll));
  h = util::hash_combine(h, static_cast<std::uint64_t>(f.trigger_unroll));
  h = util::hash_combine(h, static_cast<std::uint64_t>(f.reset_sample));
  h = util::hash_combine(h, static_cast<std::uint64_t>(f.trigger_sample));
  h = util::hash_combine(h, f.reorder_tolerance);
  h = util::hash_combine(h, f.seed);
  h = util::hash_combine(h, static_cast<std::uint64_t>(config.fuzz_top_events));
  // num_threads (profiler + fuzzer) intentionally omitted: results are
  // bit-identical at every worker count, so it must not split the cache.
  return h;
}

TemplateKey make_template_key(isa::CpuModel cpu,
                              const workload::Workload& application,
                              const core::OfflineConfig& config) {
  TemplateKey key;
  key.backend_id = std::string(pmu::backend::backend_id(cpu));
  key.vendor = isa::vendor_of(cpu);
  key.cpu_family = isa::family_of(cpu);
  key.workload_fingerprint = fingerprint_workload(application);
  key.config_hash = hash_offline_config(config);
  return key;
}

TemplateCache::TemplateCache(TemplateCacheConfig config)
    : config_(std::move(config)),
      owned_telemetry_(config_.telemetry == nullptr
                           ? std::make_unique<telemetry::Registry>()
                           : nullptr),
      telemetry_(config_.telemetry != nullptr ? config_.telemetry
                                              : owned_telemetry_.get()),
      lookups_(telemetry_->metrics().counter("aegis_cache_lookups_total")),
      hits_(telemetry_->metrics().counter("aegis_cache_hits_total")),
      misses_(telemetry_->metrics().counter("aegis_cache_misses_total")),
      warm_starts_(
          telemetry_->metrics().counter("aegis_cache_warm_starts_total")),
      failed_loads_(
          telemetry_->metrics().counter("aegis_cache_failed_loads_total")),
      analyses_(telemetry_->metrics().counter("aegis_cache_analyses_total")) {}

TemplateCache::~TemplateCache() = default;

std::string TemplateCache::disk_path(const TemplateKey& key) const {
  if (config_.cache_dir.empty()) return {};
  std::ostringstream name;
  const std::string& backend =
      key.backend_id.empty()
          ? (key.vendor == isa::Vendor::kIntel ? "intel" : "amd")
          : key.backend_id;
  name << config_.cache_dir << "/tpl-" << backend << "-" << key.cpu_family
       << "-" << std::hex << key.workload_fingerprint << "-" << key.config_hash
       << ".aegis";
  return name.str();
}

std::shared_ptr<const core::OfflineResult> TemplateCache::get_or_analyze(
    const TemplateKey& key, const core::Aegis& engine,
    const AnalyzeFn& analyze) {
  std::shared_ptr<Entry> entry;
  bool leader = false;
  lookups_.inc();
  {
    std::lock_guard lock(mu_);
    auto it = entries_.find(key);
    if (it == entries_.end()) {
      entry = std::make_shared<Entry>();
      entries_.emplace(key, entry);
      leader = true;
    } else {
      entry = it->second;
    }
  }
  if (leader) {
    misses_.inc();
  } else {
    hits_.inc();
  }

  if (!leader) {
    // Join the in-flight (or completed) entry.
    std::unique_lock lock(entry->mu);
    entry->ready_cv.wait(lock, [&] { return entry->ready; });
    if (entry->failed) {
      throw std::runtime_error("TemplateCache: analysis failed: " +
                               entry->error);
    }
    return entry->result;
  }

  // Single-flight leader: resolve the miss outside every lock so waiters
  // on OTHER keys are never serialized behind this analysis.
  std::shared_ptr<const core::OfflineResult> result;
  std::string error;
  const std::string path = disk_path(key);
  if (!path.empty()) {
    std::ifstream is(path);
    if (is) {
      // A persisted file exists: this miss resolves against the disk store.
      warm_starts_.inc();
      try {
        result = std::make_shared<const core::OfflineResult>(
            core::load_offline_result(is, engine.database(),
                                      engine.specification()));
      } catch (const std::exception&) {
        result.reset();  // stale/corrupt file: fall through to analysis
        failed_loads_.inc();
      }
    }
  }
  if (!result) {
    // Counted even when analyze() throws: the pipeline ran, the entry just
    // gets evicted below. Keeps `analyses_run == misses - warm_starts +
    // failed_loads` exact in every case.
    analyses_.inc();
    try {
      result = std::make_shared<const core::OfflineResult>(analyze());
    } catch (const std::exception& e) {
      error = e.what();
    }
    if (result && !path.empty()) {
      try {
        core::save_offline_result(path, *result, engine.database());
      } catch (const std::exception&) {
        // Best-effort persistence: a read-only cache dir degrades to
        // memory-only behavior rather than failing the tenant.
      }
    }
  }

  if (!result) {
    // Evict the failed entry so the next caller retries the analysis.
    std::lock_guard lock(mu_);
    entries_.erase(key);
  }
  {
    std::lock_guard lock(entry->mu);
    entry->ready = true;
    entry->failed = !result;
    entry->error = error;
    entry->result = result;
  }
  entry->ready_cv.notify_all();
  if (!result) {
    throw std::runtime_error("TemplateCache: analysis failed: " + error);
  }
  return result;
}

TemplateCacheStats TemplateCache::stats() const {
  TemplateCacheStats s;
  s.lookups = lookups_.value();
  s.hits = hits_.value();
  s.misses = misses_.value();
  s.warm_starts = warm_starts_.value();
  s.failed_loads = failed_loads_.value();
  s.analyses_run = analyses_.value();
  return s;
}

std::size_t TemplateCache::size() const {
  std::lock_guard lock(mu_);
  return entries_.size();
}

}  // namespace aegis::service
