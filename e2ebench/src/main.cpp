// e2ebench: the layered end-to-end benchmark driver.
//
//   e2ebench --workload <offline_analysis|online_attack|service_open_loop>
//            --seed <n> --seconds <s> --trace <0|1> --workdir <dir>
//
// Prints a human-readable report and one `E2EBENCH_RESULT {json}` line;
// exits 1 when a correctness check fails, 2 on bad arguments. run.py builds
// this binary and turns its result into the benchmark's final line.
#include <algorithm>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "probes.hpp"
#include "workloads.hpp"

#ifndef E2EBENCH_BUILD_TYPE
#define E2EBENCH_BUILD_TYPE "unknown"
#endif

namespace e2ebench {
namespace {

constexpr double kWarmUpSeconds = 1.5;

int usage(const char* message) {
  std::cerr << "e2ebench: " << message
            << "\nusage: e2ebench --workload <offline_analysis|online_attack|"
               "service_open_loop> --seed <n> --seconds <s> --trace <0|1> "
               "--workdir <dir>\n";
  return 2;
}

// Keeps `threads` cores busy for `seconds` before anything is timed: on a
// virtual machine, cores that were idle run slower for about a second
// after load arrives, which would land on whichever phase comes first.
void warm_up_cores(std::size_t threads, double seconds) {
  std::vector<std::thread> spinners;
  const auto until = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                        std::chrono::duration<double>(seconds));
  for (std::size_t i = 0; i < threads; ++i) {
    spinners.emplace_back([until] {
      volatile std::uint64_t sink = 0;
      while (Clock::now() < until) {
        for (int k = 0; k < 1000; ++k) sink = sink + static_cast<std::uint64_t>(k);
      }
    });
  }
  for (std::thread& t : spinners) t.join();
}

void fill_idle_layers(Result& result) {
  for (const MetricSpec& spec : kLayerMetrics) {
    const auto& layers = result.layers();
    const bool present =
        std::any_of(layers.begin(), layers.end(),
                    [&](const Metric& m) { return m.name == spec.name; });
    if (!present) result.layer(std::string(spec.name), 0.0, std::string(spec.unit));
  }
}

}  // namespace

}  // namespace e2ebench

int main(int argc, char** argv) {
  using namespace e2ebench;
  RunOptions options;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--workdir") {
      options.workdir = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1) return usage("every flag takes one value");
  if (!have_seed || options.workdir.empty() || !(options.seconds > 0.0)) {
    return usage("--seed, --seconds and --workdir are required");
  }

  // Worker counts are explicit and never 0: analysis stages use up to four
  // workers; the service's pool leaves a core each to the open-loop
  // generator and the dispatcher.
  const std::size_t nproc = std::max(1u, std::thread::hardware_concurrency());
  options.analysis_workers = std::min<std::size_t>(4, nproc);
  options.service_workers =
      options.analysis_workers > 2 ? options.analysis_workers - 2 : 1;

  Result result;
  result.provenance("workload", options.workload);
  result.provenance("seed", std::to_string(options.seed));
  result.provenance("trace", options.trace ? "1" : "0");
  result.provenance("build_type", E2EBENCH_BUILD_TYPE);
  result.provenance("compiler", __VERSION__);
  result.provenance("nproc", std::to_string(nproc));
  result.provenance("analysis_workers", std::to_string(options.analysis_workers));

  const auto entry = std::find_if(
      std::begin(kWorkloads), std::end(kWorkloads),
      [&](const WorkloadEntry& w) { return w.name == options.workload; });
  if (entry == std::end(kWorkloads)) {
    return usage(("unknown workload " + options.workload).c_str());
  }
  warm_up_cores(options.analysis_workers, kWarmUpSeconds);
  try {
    entry->run(options, result);
  } catch (const std::exception& e) {
    std::cerr << "e2ebench: " << options.workload << " failed: " << e.what()
              << "\n";
    return 1;
  }
  result.metric("peak_rss_mb", peak_rss_mb(), "MB");
  for (const MetricSpec& spec : kGatedMetrics) {
    const auto& metrics = result.metrics();
    const bool positive = std::any_of(
        metrics.begin(), metrics.end(),
        [&](const Metric& m) { return m.name == spec.name && m.value > 0.0; });
    result.check("reports " + std::string(spec.name) + " > 0", positive);
  }
  if (options.trace) fill_idle_layers(result);
  result.print(std::cout);
  return result.correct() ? 0 : 1;
}
