// Offline analysis seen from outside: the four public stages that
// core::Aegis::analyze is made of, each timed, and an exact fingerprint of
// an OfflineResult for comparing traced and untraced runs.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/aegis.hpp"
#include "report.hpp"

namespace e2ebench {

struct StageTimes {
  double warmup_s = 0.0;
  double rank_s = 0.0;
  double fuzz_s = 0.0;
  double cover_s = 0.0;
};

/// Same result as engine.analyze(*secrets.front(), secrets, config), built
/// from ApplicationProfiler::warmup/rank, EventFuzzer::run and
/// minimal_gadget_cover; adds each stage's wall time to `times`.
aegis::core::OfflineResult analyze_staged(
    const aegis::core::Aegis& engine,
    const std::vector<std::unique_ptr<aegis::workload::Workload>>& secrets,
    const aegis::core::OfflineConfig& config, StageTimes& times);

/// Everything analyze() decides, in a comparable string: the serialized
/// result (full double precision) plus the fuzzer's work counts.
std::string fingerprint(const aegis::core::OfflineResult& result,
                        const aegis::pmu::EventDatabase& db);

/// Backend id and CPU model of an engine ("amd-zen2/AmdEpyc7252").
std::string backend_label(const aegis::core::Aegis& engine);

/// Fuzzer work totals of one or more analyses.
struct FuzzTotals {
  double generation_s = 0.0;
  double confirmation_s = 0.0;
  double executed_gadgets = 0.0;
  double candidates = 0.0;
  double confirmed = 0.0;

  void add(const aegis::fuzzer::FuzzResult& fuzz);
};

/// Records the profiler.* and fuzzer.* per-layer metrics.
void record_analysis_layers(Result& result, const StageTimes& times,
                            const FuzzTotals& fuzz);

}  // namespace e2ebench
