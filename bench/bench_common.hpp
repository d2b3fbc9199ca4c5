// Shared helpers for the paper-reproduction bench binaries.
//
// Every bench accepts a scale factor (env AEGIS_SCALE or argv[1], default
// 1.0) multiplying trace counts / sweep sizes; the default is sized so the
// whole bench suite completes in minutes while preserving the shape of the
// paper's tables and figures. EXPERIMENTS.md records paper-vs-measured
// values at default scale.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "attack/ksa.hpp"
#include "attack/mea.hpp"
#include "attack/wfa.hpp"
#include "core/aegis.hpp"
#include "pmu/backend/backend.hpp"
#include "util/table.hpp"

namespace aegis::bench {

inline double scale_from_args(int argc, char** argv) {
  if (const char* env = std::getenv("AEGIS_SCALE")) {
    return std::atof(env) > 0 ? std::atof(env) : 1.0;
  }
  if (argc > 1) {
    const double s = std::atof(argv[1]);
    if (s > 0) return s;
  }
  return 1.0;
}

inline std::size_t scaled(std::size_t base, double scale,
                          std::size_t minimum = 1) {
  const auto v = static_cast<std::size_t>(static_cast<double>(base) * scale);
  return v < minimum ? minimum : v;
}

/// Campaign worker count for benches: env AEGIS_THREADS, default 0
/// (= hardware concurrency). Results are identical for every value.
inline std::size_t threads_from_env() {
  if (const char* env = std::getenv("AEGIS_THREADS")) {
    const long v = std::atol(env);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  return 0;
}

inline void print_header(const std::string& title) {
  std::cout << "\n=== " << title << " ===\n";
}

/// The backend's default attack-event set for `model` (kAmdAttackEvents on
/// AMD; the Xeon E5 equivalents on Intel).
inline std::vector<std::uint32_t> attack_events(isa::CpuModel model) {
  return pmu::backend::backend_for(model).attack_events();
}

/// The offline pipeline at bench scale: shared by the defense benches. The
/// CPU comes from AEGIS_CPU ("amd", "intel" or a model token; any other set
/// value throws), default the paper's AMD EPYC 7252 testbed.
struct OfflineSetup {
  core::Aegis aegis{pmu::backend::model_from_env()};
  core::OfflineResult result;

  explicit OfflineSetup(
      const std::vector<std::unique_ptr<workload::Workload>>& secrets,
      double scale) {
    core::OfflineConfig config = core::make_quick_offline_config(11);
    config.profiler.ranking_runs_per_secret = scaled(5, scale, 3);
    config.fuzzer.reset_sample = scaled(40, scale, 24);
    config.fuzzer.trigger_sample = scaled(40, scale, 24);
    config.fuzz_top_events = 0;  // fuzz every warm-up survivor
    result = aegis.analyze(*secrets.front(), secrets, config);
  }
};

}  // namespace aegis::bench
