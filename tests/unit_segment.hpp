// Shared test helper: a noise segment for tests that pin the obfuscator or
// the injector on fixed parameters instead of Aegis::calibrate's measured
// ones. It stacks a hand-made cover's gadgets at unit weight and reads the
// reference delta from the cover's segment effect, as calibrate does.
#pragma once

#include <algorithm>
#include <cstdint>

#include "fuzzer/set_cover.hpp"
#include "obf/obfuscator.hpp"

namespace aegis::test {

inline obf::CalibratedSegment unit_segment(const fuzzer::GadgetCover& cover,
                                           std::uint32_t reference_event = 0,
                                           double reference_sigma = 1.0,
                                           double unit_reps = 1.0) {
  obf::CalibratedSegment segment;
  segment.reference_event = reference_event;
  segment.reference_sigma = reference_sigma;
  segment.unit_reps = unit_reps;
  for (const fuzzer::Gadget& g : cover.gadgets) {
    segment.gadgets.push_back({g, 1.0});
  }
  for (const auto& [event, delta] : cover.segment_effect) {
    if (event == reference_event) {
      segment.reference_delta = std::max(delta, 1e-9);
      break;
    }
  }
  return segment;
}

}  // namespace aegis::test
