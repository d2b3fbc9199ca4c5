// Top-level configuration for the Aegis pipeline.
#pragma once

#include "fuzzer/fuzzer.hpp"
#include "obf/obfuscator.hpp"
#include "profiler/profiler.hpp"

namespace aegis::core {

struct OfflineConfig {
  profiler::ProfilerConfig profiler;
  fuzzer::FuzzerConfig fuzzer;
  /// Fuzz only the top-N ranked events (0 = every warm-up survivor). The
  /// paper fuzzes every survivor; N lets scaled-down runs stay fast.
  std::size_t fuzz_top_events = 0;

  /// Sets the campaign worker count of every stage (profiler warm-up and
  /// ranking, fuzzer generation and confirmation). 0 = hardware
  /// concurrency. Results are thread-count-invariant by construction.
  void set_num_threads(std::size_t n) {
    profiler.num_threads = n;
    fuzzer.num_threads = n;
  }
};

/// Scales a default OfflineConfig for quick runs (tests, examples).
/// `num_threads` is applied to every pipeline stage (0 = hardware
/// concurrency).
OfflineConfig make_quick_offline_config(std::uint64_t seed = 11,
                                        std::size_t num_threads = 0);

}  // namespace aegis::core
