// Gadget filtering (paper Section VI-F): clusters confirmed gadgets by the
// extension and general category of their reset and trigger instructions —
// attributes that indicate the micro-architectural root cause — and keeps
// one representative per cluster plus the highest-impact gadget per event.
// Representatives are indices into the filtered list, not copies of it.
#pragma once

#include <cstdint>
#include <vector>

#include "fuzzer/gadget.hpp"
#include "isa/spec.hpp"

namespace aegis::fuzzer {

struct FilterOutcome {
  /// Per cluster, in cluster-key order: the index in `confirmed` of its
  /// max-delta record (the first one on a tie).
  std::vector<std::uint32_t> representatives;
  ConfirmedGadget best;  // overall max delta
  std::size_t clusters = 0;
};

FilterOutcome filter_gadgets(const std::vector<ConfirmedGadget>& confirmed,
                             const isa::IsaSpecification& spec);

}  // namespace aegis::fuzzer
