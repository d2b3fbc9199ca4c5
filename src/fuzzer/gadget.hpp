// Instruction-sequence gadget types (paper Section VI-B).
//
// A gadget is a (reset sequence, trigger sequence) pair: the reset brings
// the monitored event to a known state S0, the trigger moves it to S1,
// changing the count. Following the paper's implementation, each sequence
// is a single instruction variant (multi-instruction sequences are listed
// as future work); the trigger is unrolled more than the reset inside the
// measured window.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace aegis::fuzzer {

struct Gadget {
  std::uint32_t reset_uid = 0;
  std::uint32_t trigger_uid = 0;

  friend bool operator==(const Gadget&, const Gadget&) = default;
};

struct GadgetHash {
  std::size_t operator()(const Gadget& g) const noexcept {
    return (static_cast<std::size_t>(g.reset_uid) << 32) ^ g.trigger_uid;
  }
};

/// Bit s set: the gadget concerns the event in register slot s of its
/// 4-event group.
using SlotMask = std::uint8_t;

constexpr bool has_slot(SlotMask mask, std::size_t slot) noexcept {
  return ((mask >> slot) & 1U) != 0;
}

/// A generation hit: a gadget and the slots of its group whose count it
/// moved past the threshold.
struct GroupCandidate {
  Gadget gadget;
  SlotMask slots = 0;
};

/// A gadget confirmed to disturb one event, with its measured effect.
struct ConfirmedGadget {
  Gadget gadget;
  std::uint32_t event_id = 0;
  double median_delta = 0.0;  // per-execution hot-path count change
};

}  // namespace aegis::fuzzer
