// Minimal gadget cover (paper Section VII-C): gadget sets for different
// events intersect heavily, so instead of injecting one gadget per
// vulnerable event, Aegis extracts the smallest gadget set that covers all
// of them (the paper needs 43 gadgets for 137 events) and stacks it into
// one repeatable noise code segment.
#pragma once

#include <vector>

#include "fuzzer/fuzzer.hpp"

namespace aegis::fuzzer {

struct GadgetCover {
  /// Chosen gadgets; together they disturb every covered event.
  std::vector<Gadget> gadgets;
  /// Events covered (== input events when every event had >= 1 gadget).
  std::vector<std::uint32_t> covered_events;
  /// Events with no confirmed gadget (uncoverable by this fuzz run).
  std::vector<std::uint32_t> uncovered_events;
  /// Per covered event: summed median delta when the whole stacked segment
  /// executes once (the obfuscator's per-repetition effect).
  std::vector<std::pair<std::uint32_t, double>> segment_effect;
};

/// Greedy set cover over the fuzz result's confirmed gadgets. It reads the
/// reports' confirmed lists in place, through one 4-byte index per pair,
/// rather than copying the pairs. Ties resolve to the lowest gadget key, a
/// gadget confirmed twice for one event counts once at its larger delta
/// (floored at 0), and every delta sum runs in a fixed order, so the cover
/// depends only on the set of confirmed pairs.
GadgetCover minimal_gadget_cover(const FuzzResult& result);

}  // namespace aegis::fuzzer
