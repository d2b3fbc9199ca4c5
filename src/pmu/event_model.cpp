#include "pmu/event_model.hpp"

namespace aegis::pmu {

std::string_view to_string(EventType t) noexcept {
  switch (t) {
    case EventType::kHardware: return "Hardware";
    case EventType::kSoftware: return "Software";
    case EventType::kHwCache: return "Hardware Cache";
    case EventType::kTracepoint: return "Tracepoint";
    case EventType::kRawCpu: return "Raw CPU";
    case EventType::kOther: return "Other";
    case EventType::kCount: break;
  }
  return "?";
}

std::string_view short_code(EventType t) noexcept {
  switch (t) {
    case EventType::kHardware: return "H";
    case EventType::kSoftware: return "S";
    case EventType::kHwCache: return "HC";
    case EventType::kTracepoint: return "T";
    case EventType::kRawCpu: return "R";
    case EventType::kOther: return "O";
    case EventType::kCount: break;
  }
  return "?";
}

ExecutionStats& ExecutionStats::operator+=(const ExecutionStats& o) noexcept {
  for (std::size_t i = 0; i < class_counts.size(); ++i) {
    class_counts.at_index(i) += o.class_counts.at_index(i);
  }
  uops += o.uops;
  l1_misses += o.l1_misses;
  llc_misses += o.llc_misses;
  l1_writes += o.l1_writes;
  branch_mispredicts += o.branch_mispredicts;
  mem_reads += o.mem_reads;
  mem_writes += o.mem_writes;
  interrupts += o.interrupts;
  cycles += o.cycles;
  return *this;
}

double EventResponse::expected_count(const ExecutionStats& s) const noexcept {
  double count = 0.0;
  for (std::size_t i = 0; i < class_weight.size(); ++i) {
    count += static_cast<double>(class_weight.at_index(i)) * s.class_counts.at_index(i);
  }
  count += per_uop * s.uops;
  count += per_l1_miss * s.l1_misses;
  count += per_llc_miss * s.llc_misses;
  count += per_l1_write * s.l1_writes;
  count += per_branch_miss * s.branch_mispredicts;
  count += per_mem_read * s.mem_reads;
  count += per_mem_write * s.mem_writes;
  count += per_cycle * s.cycles;
  count += per_interrupt * s.interrupts;
  // Responses with negative coefficients (e.g. L1_HIT = reads - misses)
  // never count below zero on real hardware.
  return count < 0.0 ? 0.0 : count;
}

bool EventResponse::guest_visible() const noexcept {
  for (std::size_t i = 0; i < class_weight.size(); ++i) {
    if (class_weight.at_index(i) != 0.0f) return true;
  }
  // per_interrupt intentionally excluded: interrupts are host-scheduled
  // noise (C2), not guest activity — see the invariant note in the header.
  return per_uop != 0.0f || per_l1_miss != 0.0f || per_llc_miss != 0.0f ||
         per_l1_write != 0.0f || per_branch_miss != 0.0f ||
         per_mem_read != 0.0f || per_mem_write != 0.0f || per_cycle != 0.0f;
}

}  // namespace aegis::pmu
