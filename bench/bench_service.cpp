// Multi-tenant protection-service load generator.
//
// Sweeps fleet sizes through the ProtectionService daemon — template
// registration per tenant (exercising the single-flight TemplateCache and
// its disk warm start), then one protected session per tenant through the
// bounded submission queue — and reports throughput, p50/p99 session
// latency and cache hit rate per fleet size:
//
//   bench_service [output.json]   full sweep (1..48 tenants), JSON emitted
//                                 to the path (default stdout); committed
//                                 as BENCH_service.json
//   bench_service --smoke         bounded run for CI: asserts non-zero
//                                 throughput, zero refusals under an ample
//                                 budget, and single-flight analysis
//
// Telemetry dumps (combinable with --smoke or the sweep; every run shares
// one wall-clock telemetry registry threaded through ServiceConfig):
//   --prom FILE      Prometheus text exposition of the final metrics
//   --stats FILE     JSON snapshot (the tools/aegis_top input format)
//   --recorder FILE  flight-recorder binary dump; `aegis_top --recorder FILE
//                    --trace OUT.json` turns it into a chrome://tracing file
//
// AEGIS_SCALE scales per-session slice counts; AEGIS_THREADS sets the
// session-pool worker count (0 = hardware concurrency).
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>

#include "bench_common.hpp"
#include "service/protection_service.hpp"
#include "telemetry/exporters.hpp"
#include "telemetry/registry.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace aegis::bench {
namespace {

struct SweepPoint {
  std::size_t tenants = 0;
  double wall_seconds = 0.0;
  double throughput = 0.0;       // sessions / second
  double p50_latency_ms = 0.0;   // enqueue -> completion
  double p99_latency_ms = 0.0;
  double cache_hit_rate = 0.0;
  std::size_t analyses_run = 0;
  std::size_t warm_starts = 0;
  std::size_t refused = 0;
  std::size_t degraded = 0;
  double mean_injected_reps = 0.0;
};

struct Scenario {
  core::Aegis engine{cpu_from_env()};
  std::vector<std::unique_ptr<workload::Workload>> secrets;
  core::OfflineConfig offline;
  dp::MechanismConfig mechanism;
  std::size_t session_slices;
  std::string cache_dir;

  explicit Scenario(double scale) {
    attack::WfaScale wfa;
    wfa.sites = 4;
    wfa.slices = 100;
    secrets = attack::make_wfa_secrets(wfa);
    offline = core::make_quick_offline_config();
    offline.profiler.ranking_runs_per_secret = 3;
    offline.fuzz_top_events = 12;
    offline.set_num_threads(threads_from_env());
    mechanism.kind = dp::MechanismKind::kLaplace;
    mechanism.epsilon = 0.05;
    session_slices = scaled(60, scale, 20);
    cache_dir = "/tmp/aegis_bench_service_cache";
    std::filesystem::create_directories(cache_dir);
  }
};

double ms(double seconds) { return seconds * 1e3; }

// One registry per fleet point: ServiceStats are derived from registry
// counters, so sharing a registry across points would make the per-point
// figures cumulative. The dump flags export the LAST point run. Its clock is
// the wall clock, so trace durations mean real time.
std::unique_ptr<telemetry::Registry> wall_clock_registry() {
  const auto epoch = std::chrono::steady_clock::now();
  return std::make_unique<telemetry::Registry>([epoch] {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch)
            .count());
  });
}

struct DumpOptions {
  const char* prom = nullptr;
  const char* stats = nullptr;
  const char* recorder = nullptr;
};

template <typename Fn>
bool emit_telemetry_file(const char* path, const char* what, Fn&& fn) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::cerr << "bench_service: cannot open " << what << " file " << path
              << "\n";
    return false;
  }
  fn(out);
  out.flush();
  if (out.tellp() <= 0) {
    std::cerr << "bench_service: " << what << " file " << path
              << " came out empty\n";
    return false;
  }
  std::cerr << "bench_service: wrote " << what << " " << path << "\n";
  return true;
}

bool dump_telemetry(const DumpOptions& dump, telemetry::Registry& registry) {
  bool ok = true;
  if (dump.prom != nullptr) {
    ok &= emit_telemetry_file(dump.prom, "prometheus", [&](std::ostream& os) {
      telemetry::write_prometheus(registry.metrics().snapshot(), os);
    });
  }
  if (dump.stats != nullptr) {
    ok &= emit_telemetry_file(dump.stats, "snapshot", [&](std::ostream& os) {
      telemetry::write_json_snapshot(registry.metrics().snapshot(), os);
    });
  }
  if (dump.recorder != nullptr) {
    ok &= emit_telemetry_file(
        dump.recorder, "flight-recorder dump", [&](std::ostream& os) {
          registry.recorder().write_dump(os);
        });
    std::cerr << "bench_service: recorder captured "
              << registry.recorder().drain().size() << " events, dropped "
              << registry.recorder().dropped() << "\n";
  }
  return ok;
}

SweepPoint run_fleet_size(const Scenario& scenario, std::size_t tenants,
                          telemetry::Registry* registry) {
  service::ServiceConfig config;
  config.num_threads = threads_from_env();
  config.queue_capacity = 64;
  config.batch_size = 16;
  config.governor.default_epsilon_cap = 64.0;  // ample: nothing refused
  config.cache.cache_dir = scenario.cache_dir;
  config.telemetry = registry;
  service::ProtectionService svc(config);

  const auto t0 = std::chrono::steady_clock::now();
  // Every tenant registers the template (same key): 1 miss, N-1 hits, and
  // at most ONE analysis/warm-start thanks to single-flight.
  std::size_t tpl_id = 0;
  for (std::size_t t = 0; t < tenants; ++t) {
    tpl_id = svc.register_template(scenario.engine, *scenario.secrets[0],
                                   scenario.secrets, scenario.offline,
                                   scenario.mechanism, {}, 0xFEEDULL);
  }
  for (std::size_t t = 0; t < tenants; ++t) {
    service::SessionSubmission sub;
    sub.template_id = tpl_id;
    sub.request.tenant_id = t;
    sub.request.seed = util::split_mix64(0xBE7ACULL, t);
    sub.request.application =
        scenario.secrets[t % scenario.secrets.size()].get();
    sub.request.slices = scenario.session_slices;
    sub.request.per_slice_epsilon = scenario.mechanism.epsilon;
    if (!svc.submit(sub)) {
      std::cerr << "bench_service: submit rejected\n";
      std::exit(1);
    }
  }
  svc.drain();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  const service::ServiceStats stats = svc.stats();
  const auto completed = svc.take_completed();
  std::vector<double> latencies;
  double injected = 0.0;
  for (const auto& done : completed) {
    latencies.push_back(done.latency_seconds);
    injected += done.result.injected_repetitions;
  }

  SweepPoint point;
  point.tenants = tenants;
  point.wall_seconds = wall;
  point.throughput = static_cast<double>(completed.size()) / wall;
  point.p50_latency_ms = ms(util::quantile(latencies, 0.50));
  point.p99_latency_ms = ms(util::quantile(latencies, 0.99));
  point.cache_hit_rate = stats.cache.hit_rate();
  point.analyses_run = stats.cache.analyses_run;
  point.warm_starts = stats.cache.warm_starts;
  point.refused = stats.sessions_refused;
  point.degraded = stats.sessions_degraded;
  point.mean_injected_reps =
      completed.empty() ? 0.0 : injected / static_cast<double>(completed.size());

  if (stats.sessions_completed + stats.sessions_refused !=
      static_cast<std::size_t>(tenants)) {
    std::cerr << "bench_service: lost sessions (completed "
              << stats.sessions_completed << " refused "
              << stats.sessions_refused << " of " << tenants << ")\n";
    std::exit(1);
  }
  return point;
}

void emit_json(std::ostream& out, const std::vector<SweepPoint>& sweep,
               const Scenario& scenario) {
  out << "{\n"
      << "  \"bench\": \"service\",\n"
      << "  \"cpu_model\": \"" << isa::to_token(scenario.engine.cpu())
      << "\",\n"
      << "  \"backend\": \"" << scenario.engine.backend().id() << "\",\n"
      << "  \"session_slices\": " << scenario.session_slices << ",\n"
      << "  \"mechanism\": \"laplace\",\n"
      << "  \"per_slice_epsilon\": " << scenario.mechanism.epsilon << ",\n"
      << "  \"sweep\": [\n";
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const SweepPoint& p = sweep[i];
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "    {\"tenants\": %zu, \"throughput_sessions_per_sec\": "
                  "%.1f, \"p50_latency_ms\": %.2f, \"p99_latency_ms\": %.2f, "
                  "\"cache_hit_rate\": %.4f, \"offline_analyses\": %zu, "
                  "\"warm_starts\": %zu, \"refused\": %zu, \"degraded\": %zu, "
                  "\"mean_injected_reps\": %.1f}%s\n",
                  p.tenants, p.throughput, p.p50_latency_ms, p.p99_latency_ms,
                  p.cache_hit_rate, p.analyses_run, p.warm_starts, p.refused,
                  p.degraded, p.mean_injected_reps,
                  i + 1 < sweep.size() ? "," : "");
    out << buf;
  }
  out << "  ]\n}\n";
}

int run_smoke(const Scenario& scenario, const DumpOptions& dump) {
  print_header("bench_service --smoke");
  const auto registry = wall_clock_registry();
  const SweepPoint point = run_fleet_size(scenario, 8, registry.get());
  std::cout << "tenants 8: " << util::fmt_f(point.throughput, 1)
            << " sessions/s, p50 " << util::fmt_f(point.p50_latency_ms, 1)
            << " ms, p99 " << util::fmt_f(point.p99_latency_ms, 1)
            << " ms, cache hit rate " << util::fmt_f(point.cache_hit_rate, 3)
            << ", analyses " << point.analyses_run << "+"
            << point.warm_starts << " warm\n";
  bool ok = true;
  if (!(point.throughput > 0.0)) {
    std::cerr << "SMOKE FAIL: zero throughput\n";
    ok = false;
  }
  if (point.refused != 0) {
    std::cerr << "SMOKE FAIL: " << point.refused
              << " sessions refused under an ample budget\n";
    ok = false;
  }
  if (point.analyses_run + point.warm_starts != 1) {
    std::cerr << "SMOKE FAIL: single-flight violated ("
              << point.analyses_run << " analyses, " << point.warm_starts
              << " warm starts)\n";
    ok = false;
  }
  // Telemetry dumps double as the smoke check that the exporters produce
  // non-empty output from a real service run.
  if (!dump_telemetry(dump, *registry)) {
    std::cerr << "SMOKE FAIL: telemetry dump empty or unwritable\n";
    ok = false;
  }
  std::cout << (ok ? "SMOKE OK\n" : "SMOKE FAIL\n");
  return ok ? 0 : 1;
}

int run(int argc, char** argv) {
  const double scale = [&] {
    if (const char* env = std::getenv("AEGIS_SCALE")) {
      const double s = std::atof(env);
      if (s > 0) return s;
    }
    return 1.0;
  }();
  Scenario scenario(scale);

  bool smoke = false;
  const char* out_path = nullptr;
  DumpOptions dump;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto flag_value = [&](const char* name) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "bench_service: " << name << " needs a file argument\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--prom") {
      dump.prom = flag_value("--prom");
    } else if (arg == "--stats") {
      dump.stats = flag_value("--stats");
    } else if (arg == "--recorder") {
      dump.recorder = flag_value("--recorder");
    } else {
      out_path = argv[i];
    }
  }

  if (smoke) {
    return run_smoke(scenario, dump);
  }

  print_header("bench_service: multi-tenant fleet sweep");
  std::vector<SweepPoint> sweep;
  std::unique_ptr<telemetry::Registry> registry;
  for (std::size_t tenants : {1, 4, 8, 16, 32, 48}) {
    registry = wall_clock_registry();
    const SweepPoint point = run_fleet_size(scenario, tenants, registry.get());
    std::cout << "tenants " << point.tenants << ": "
              << util::fmt_f(point.throughput, 1) << " sessions/s, p50 "
              << util::fmt_f(point.p50_latency_ms, 1) << " ms, p99 "
              << util::fmt_f(point.p99_latency_ms, 1)
              << " ms, cache hit rate "
              << util::fmt_f(point.cache_hit_rate, 3) << " ("
              << point.analyses_run << " analyses, " << point.warm_starts
              << " warm)\n";
    sweep.push_back(point);
  }

  if (out_path != nullptr) {
    std::ofstream out(out_path);
    if (!out) {
      std::cerr << "bench_service: cannot open " << out_path << "\n";
      return 1;
    }
    emit_json(out, sweep, scenario);
    std::cerr << "bench_service: wrote " << out_path << "\n";
  } else {
    emit_json(std::cout, sweep, scenario);
  }
  if (!dump_telemetry(dump, *registry)) return 1;
  return 0;
}

}  // namespace
}  // namespace aegis::bench

int main(int argc, char** argv) { return aegis::bench::run(argc, argv); }
