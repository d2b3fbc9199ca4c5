// One benchmark run's result: provenance, metrics, correctness checks.
//
// main() prints it as human-readable lines followed by one machine line,
// `E2EBENCH_RESULT {json}`, which run.py turns into the final result.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace e2ebench {

struct MetricSpec {
  std::string_view name;
  std::string_view unit;
};

/// Metrics every workload reports in an untraced run: the benchmark's
/// regression gate (BENCHMARK.json "end_to_end"). What each one times in
/// each workload is in README.md.
inline constexpr MetricSpec kGatedMetrics[] = {
    {"setup_s", "s"}, {"peak_rss_mb", "MB"}, {"cpu_ms", "ms"}};

/// Metrics every workload reports in a traced run (BENCHMARK.json
/// "per_layer"). A layer that does no work in a workload reports 0.
inline constexpr MetricSpec kLayerMetrics[] = {
    {"profiler.warmup_s", "s"},         {"profiler.rank_s", "s"},
    {"fuzzer.run_s", "s"},              {"fuzzer.cover_s", "s"},
    {"fuzzer.confirmation_s", "s"},     {"fuzzer.generation_s", "s"},
    {"fuzzer.executed_gadgets", "count"}, {"fuzzer.confirm_ratio", "ratio"},
    {"workload.gen_s", "s"},            {"workload.blocks", "count"},
    {"obf.calibrate_s", "s"},           {"obf.agent_s", "s"},
    {"obf.agent_calls", "count"},       {"obf.noise_draws", "count"},
    {"obf.injected_reps", "count"},     {"attack.collect_s", "s"},
    {"attack.wfa_train_s", "s"},        {"attack.wfa_exploit_s", "s"},
    {"attack.mea_train_s", "s"},        {"attack.mea_exploit_s", "s"},
    {"attack.traces", "count"},         {"sim.slices", "count"},
    {"ml.mlp_fit_s", "s"},              {"sim.monitor_self_s", "s"},
    {"service.register_s", "s"},        {"service.submit_block_ms", "ms"},
    {"service.refused", "count"},       {"service.degraded", "count"},
    {"service.session_ms", "ms"},       {"service.queue_wait_ms", "ms"},
    {"bench.gen_late_ms", "ms"},        {"bench.trace_overhead", "ratio"}};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

class Result {
 public:
  /// Run description ("workload", "seed", "build_type", ...).
  void provenance(std::string key, std::string value);
  /// The workload's own end-to-end metrics (the gated set and the
  /// workload-specific ones such as analyze_s or svc_high.p99_ms).
  void metric(std::string name, double value, std::string unit);
  /// Per-layer metrics (traced runs only).
  void layer(std::string name, double value, std::string unit);
  /// Records a correctness check; a failed check fails the run.
  bool check(std::string name, bool ok, std::string detail = {});
  /// Operations the timed phase attempted, and how many failed, were
  /// refused or were lost.
  void operations(std::uint64_t attempted, std::uint64_t failed);

  bool correct() const;
  const std::vector<Metric>& metrics() const noexcept { return metrics_; }
  const std::vector<Metric>& layers() const noexcept { return layers_; }

  /// Human-readable report, then the E2EBENCH_RESULT line.
  void print(std::ostream& out) const;

 private:
  std::vector<std::pair<std::string, std::string>> provenance_;
  std::vector<Metric> metrics_;
  std::vector<Metric> layers_;
  std::vector<Check> checks_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// "1.234,1.301": values for a provenance entry.
std::string join(const std::vector<double>& values);
/// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();

}  // namespace e2ebench
