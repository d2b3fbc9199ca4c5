#include "analysis.hpp"

#include <algorithm>
#include <sstream>

#include "core/serialize.hpp"
#include "probes.hpp"
#include "profiler/profiler.hpp"

namespace e2ebench {

aegis::core::OfflineResult analyze_staged(
    const aegis::core::Aegis& engine,
    const std::vector<std::unique_ptr<aegis::workload::Workload>>& secrets,
    const aegis::core::OfflineConfig& config, StageTimes& times) {
  aegis::core::OfflineResult result;
  aegis::profiler::ApplicationProfiler prof(engine.database(), config.profiler);
  auto start = Clock::now();
  result.warmup = prof.warmup(*secrets.front());
  times.warmup_s += seconds_since(start);

  start = Clock::now();
  result.ranking = prof.rank(secrets, result.warmup.surviving);
  times.rank_s += seconds_since(start);

  const std::size_t limit =
      config.fuzz_top_events == 0
          ? result.ranking.size()
          : std::min(config.fuzz_top_events, result.ranking.size());
  std::vector<std::uint32_t> to_fuzz;
  for (std::size_t i = 0; i < limit; ++i) {
    to_fuzz.push_back(result.ranking[i].event_id);
  }
  start = Clock::now();
  aegis::fuzzer::EventFuzzer fuzzer(engine.database(), engine.specification(),
                                    config.fuzzer);
  result.fuzz = fuzzer.run(to_fuzz);
  times.fuzz_s += seconds_since(start);

  start = Clock::now();
  result.cover = aegis::fuzzer::minimal_gadget_cover(result.fuzz);
  times.cover_s += seconds_since(start);
  return result;
}

std::string fingerprint(const aegis::core::OfflineResult& result,
                        const aegis::pmu::EventDatabase& db) {
  std::ostringstream os;
  aegis::core::save_offline_result(os, result, db);
  os << "executed " << result.fuzz.executed_gadgets << " cleaned "
     << result.fuzz.cleaned_instructions << "\ncandidates";
  for (const auto& report : result.fuzz.reports) os << " " << report.candidates;
  return os.str();
}

std::string backend_label(const aegis::core::Aegis& engine) {
  return std::string(engine.backend().id()) + "/" +
         std::string(aegis::isa::to_token(engine.cpu()));
}

void FuzzTotals::add(const aegis::fuzzer::FuzzResult& fuzz) {
  generation_s += fuzz.timing.generation_execution_seconds;
  confirmation_s += fuzz.timing.confirmation_seconds;
  executed_gadgets += static_cast<double>(fuzz.executed_gadgets);
  for (const auto& report : fuzz.reports) {
    candidates += static_cast<double>(report.candidates);
    confirmed += static_cast<double>(report.confirmed.size());
  }
}

void record_analysis_layers(Result& result, const StageTimes& times,
                            const FuzzTotals& fuzz) {
  result.layer("profiler.warmup_s", times.warmup_s, "s");
  result.layer("profiler.rank_s", times.rank_s, "s");
  result.layer("fuzzer.run_s", times.fuzz_s, "s");
  result.layer("fuzzer.cover_s", times.cover_s, "s");
  result.layer("fuzzer.confirmation_s", fuzz.confirmation_s, "s");
  result.layer("fuzzer.generation_s", fuzz.generation_s, "s");
  result.layer("fuzzer.executed_gadgets", fuzz.executed_gadgets, "count");
  result.layer("fuzzer.confirm_ratio",
               fuzz.candidates > 0 ? fuzz.confirmed / fuzz.candidates : 0.0,
               "ratio");
}

}  // namespace e2ebench
