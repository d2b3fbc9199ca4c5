// Hot-path microbench: tracks the PMU accumulate path (the sparse group
// kernel over pmu::ResponseMatrix), the allocation-free GadgetRunner
// execute_once and a profiler-style full-database sweep.
//
// Emits machine-readable JSON (BENCH_hotpath.json) so perf regressions are
// diffable across commits:
//   bench_hot_path [output.json]     (stdout when no path is given)
// AEGIS_SCALE scales iteration counts (default sized for ~seconds).
//
// Methodology: each timed section runs `reps` times and reports the
// fastest repetition (min-of-N), the standard way to strip scheduler and
// frequency noise from a single-threaded microbench.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "pmu/counter_file.hpp"
#include "pmu/event_database.hpp"
#include "sim/gadget_runner.hpp"
#include "telemetry/registry.hpp"

namespace aegis::bench {
namespace {

using pmu::CounterRegisterFile;

double g_sink = 0.0;  // defeats dead-code elimination across timed loops

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Fastest-of-`reps` wall time of `body()`, in seconds.
template <typename Body>
double min_of(int reps, Body&& body) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    body();
    best = std::min(best, seconds_since(t0));
  }
  return best;
}

pmu::ExecutionStats gadget_like_stats() {
  pmu::ExecutionStats stats;
  for (std::size_t i = 0; i < stats.class_counts.size(); ++i) {
    stats.class_counts.at_index(i) = 8.0 + static_cast<double>(i);
  }
  stats.uops = 900.0;
  stats.l1_misses = 6.0;
  stats.llc_misses = 1.0;
  stats.l1_writes = 30.0;
  stats.branch_mispredicts = 2.0;
  stats.mem_reads = 180.0;
  stats.mem_writes = 70.0;
  stats.interrupts = 0.0;
  stats.cycles = 3200.0;
  return stats;
}

/// ns per accumulate() call with `ids` programmed.
double accumulate_ns(const pmu::EventDatabase& db,
                     const std::vector<std::uint32_t>& ids, int iters,
                     int reps) {
  CounterRegisterFile counters(db, 42);
  counters.program(ids);
  const pmu::ExecutionStats stats = gadget_like_stats();
  counters.tick(stats);  // touch everything once before timing
  const double secs = min_of(reps, [&] {
    for (int i = 0; i < iters; ++i) counters.accumulate(stats);
  });
  g_sink += counters.read_raw(ids.front());
  return secs / iters * 1e9;
}

/// ns per steady-state execute_once() call (variant cache warm).
double execute_once_ns(const pmu::EventDatabase& db,
                       const isa::IsaSpecification& spec, int iters,
                       int reps) {
  sim::GadgetRunner runner(db, spec, 21);
  runner.program(attack_events(db.model()));
  std::uint32_t plain = 0, memory = 0;
  bool have_plain = false, have_memory = false;
  for (const auto& v : spec.variants()) {
    if (!v.legal()) continue;
    if (!have_plain && !v.has_memory_operand) plain = v.uid, have_plain = true;
    if (!have_memory && v.has_memory_operand) memory = v.uid, have_memory = true;
    if (have_plain && have_memory) break;
  }
  const std::vector<std::uint32_t> gadget = {plain, memory};
  for (int i = 0; i < 8; ++i) (void)runner.execute_once(gadget, 32.0);  // warm
  const double secs = min_of(reps, [&] {
    for (int i = 0; i < iters; ++i) {
      g_sink += runner.execute_once(gadget, 32.0)[0];
    }
  });
  return secs / iters * 1e9;
}

/// Profiler-style sweep: program every event in groups of 4, tick a few
/// slices, read all counts. Returns events/second.
double sweep_events_per_sec(const pmu::EventDatabase& db, int slices,
                            int reps) {
  const pmu::ExecutionStats stats = gadget_like_stats();
  const double secs = min_of(reps, [&] {
    CounterRegisterFile counters(db, 42);
    std::vector<std::uint32_t> group;
    for (std::uint32_t id = 0; id < db.size();) {
      group.clear();
      for (std::size_t k = 0;
           k < pmu::EventDatabase::kNumCounters && id < db.size(); ++k, ++id) {
        group.push_back(id);
      }
      counters.program(group);
      for (int s = 0; s < slices; ++s) counters.tick(stats);
      for (double v : counters.read_all()) g_sink += v;
    }
  });
  return static_cast<double>(db.size()) / secs;
}

void emit(std::ostream& out, isa::CpuModel model, double acc4_ns,
          double sweep_ns, double exec_ns, double exec_off_ns,
          double recorder_overhead_pct, double sweep_eps) {
  // Provenance: WHICH event database, build type and compiler produced the
  // numbers, so a regression diff across machines or configurations is
  // attributable — bench_compare.py fails on a backend/cpu_model mismatch.
  // AEGIS_BUILD_TYPE and AEGIS_COMPILER come from bench/CMakeLists.txt.
  char buf[2048];
  std::snprintf(
      buf, sizeof(buf),
      "{\n"
      "  \"bench\": \"hotpath\",\n"
      "  \"cpu_model\": \"%s\",\n"
      "  \"backend\": \"%s\",\n"
      "  \"build_type\": \"%s\",\n"
      "  \"compiler\": \"%s\",\n"
      "  \"accumulate_4_events\": {\n"
      "    \"batched_ns\": %.2f\n"
      "  },\n"
      "  \"accumulate_sweep_1903_events\": {\n"
      "    \"batched_ns\": %.2f\n"
      "  },\n"
      "  \"execute_once\": {\n"
      "    \"steady_state_ns\": %.2f\n"
      "  },\n"
      "  \"flight_recorder\": {\n"
      "    \"recorder_on_ns\": %.2f,\n"
      "    \"recorder_off_ns\": %.2f,\n"
      "    \"recorder_overhead_pct\": %.2f\n"
      "  },\n"
      "  \"profiler_sweep\": {\n"
      "    \"batched_events_per_sec\": %.0f\n"
      "  }\n"
      "}\n",
      std::string(isa::to_token(model)).c_str(),
      std::string(pmu::backend::backend_id(model)).c_str(), AEGIS_BUILD_TYPE,
      AEGIS_COMPILER, acc4_ns, sweep_ns, exec_ns, exec_ns, exec_off_ns,
      recorder_overhead_pct, sweep_eps);
  out << buf;
}

int run(int argc, char** argv) {
  // argv[1] is the JSON output path (not a scale factor, unlike the table
  // benches), so only AEGIS_SCALE adjusts iteration counts here.
  const double scale = scale_from_args(1, argv);
  const isa::CpuModel model = cpu_from_env();
  const auto& db = pmu::backend::backend_for(model).database();
  const auto spec = isa::IsaSpecification::generate(model);

  const int iters = static_cast<int>(scaled(20000, scale, 1000));
  const int sweep_iters = static_cast<int>(scaled(400, scale, 50));
  const int reps = 5;

  const std::vector<std::uint32_t> four = attack_events(db.model());
  std::vector<std::uint32_t> all_ids;
  for (std::uint32_t id = 0; id < db.size(); ++id) all_ids.push_back(id);

  std::cerr << "bench_hot_path: accumulate (4 events)...\n";
  const double acc4_ns = accumulate_ns(db, four, iters, reps);

  std::cerr << "bench_hot_path: accumulate (1903-event sweep mode)...\n";
  const double sweep_ns = accumulate_ns(db, all_ids, sweep_iters, reps);

  // execute_once is measured twice: with the global flight recorder OFF and
  // ON (the GadgetRunner records a 1-in-8 sampled kHotExec wide event).
  // recorder_overhead_pct is the always-on cost on the hottest loop in the
  // codebase; scripts/bench_compare.py --hotpath gates it at <= 2%.
  std::cerr << "bench_hot_path: execute_once steady state (recorder off)...\n";
  telemetry::FlightRecorder& recorder = telemetry::Registry::global().recorder();
  recorder.set_enabled(false);
  const double exec_off_ns = execute_once_ns(db, spec, iters / 4, reps);
  std::cerr << "bench_hot_path: execute_once steady state (recorder on)...\n";
  recorder.set_enabled(true);
  const double exec_ns = execute_once_ns(db, spec, iters / 4, reps);
  const double recorder_overhead_pct =
      exec_off_ns > 0.0 ? (exec_ns - exec_off_ns) / exec_off_ns * 100.0 : 0.0;

  std::cerr << "bench_hot_path: profiler sweep over " << db.size()
            << " events...\n";
  const double sweep_eps = sweep_events_per_sec(db, 8, reps);

  if (argc > 1) {
    std::ofstream out(argv[1]);
    if (!out) {
      std::cerr << "bench_hot_path: cannot open " << argv[1] << "\n";
      return 1;
    }
    emit(out, model, acc4_ns, sweep_ns, exec_ns, exec_off_ns,
         recorder_overhead_pct, sweep_eps);
    std::cerr << "bench_hot_path: wrote " << argv[1] << "\n";
  } else {
    emit(std::cout, model, acc4_ns, sweep_ns, exec_ns, exec_off_ns,
         recorder_overhead_pct, sweep_eps);
  }
  if (g_sink == -1.0) std::cerr << "";  // keep the sink observable
  return 0;
}

}  // namespace
}  // namespace aegis::bench

int main(int argc, char** argv) { return aegis::bench::run(argc, argv); }
