// Hardware counter register file with perf-style time multiplexing.
//
// Both testbed CPUs expose 4 programmable counter registers. Monitoring
// more than 4 events forces the perf subsystem to time-multiplex groups and
// scale counts by enabled/running time — an accuracy loss the paper's
// profiler avoids by monitoring exactly 4 events per run (Section V-B).
// This class reproduces both behaviours, plus the per-read measurement
// noise that makes HPC values non-deterministic (C2).
//
// accumulate() evaluates only the active counter group through the sparse
// 4-lane group kernel over pmu::ResponseMatrix, flattened once at program()
// time (see DESIGN.md "PMU hot path"). Its counts are bit-identical to the
// per-slot EventResponse::expected_count walk the kernel replaced; that
// walk lives on as the oracle in tests/hotpath_test.cpp.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "pmu/event_database.hpp"
#include "pmu/response_matrix.hpp"
#include "util/rng.hpp"

namespace aegis::pmu {

class CounterRegisterFile {
 public:
  CounterRegisterFile(const EventDatabase& db, std::uint64_t noise_seed);

  /// Programs the set of monitored events and zeroes all counts. More than
  /// EventDatabase::kNumCounters ids enables multiplexing.
  void program(std::vector<std::uint32_t> event_ids);

  /// Accounts one batch of executed work into the currently-active group,
  /// applying each event's response and measurement noise. Does not rotate.
  void accumulate(const ExecutionStats& stats);

  /// Per-slice host-side effects: background counting of host-only events
  /// and multiplex rotation. Call once per monitoring slice.
  void end_slice();

  /// Convenience: accumulate + end_slice.
  void tick(const ExecutionStats& stats);

  /// Raw accumulated count of slot `slot_index` (0-based programming
  /// order) with no multiplex scaling: the RDPMC view GadgetRunner reads.
  // aegis-lint: noalloc
  double read_raw_slot(std::size_t slot_index) const noexcept {
    return slots_[slot_index].count;
  }

  /// The multiplex-scaled count (count * total_time / active_time, as perf
  /// reports it) of every programmed event, in programming order, written
  /// into `out`. `out` must hold exactly one element per programmed event
  /// (throws std::invalid_argument otherwise).
  void read_all(std::span<double> out) const;

  bool multiplexed() const noexcept {
    return slots_.size() > EventDatabase::kNumCounters;
  }
  const std::vector<std::uint32_t>& programmed() const noexcept { return ids_; }

 private:
  struct Slot {
    double count = 0.0;
    std::uint64_t active_slices = 0;
  };

  std::size_t group_count() const noexcept;
  /// [first, last) slot range of the currently-active counter group (groups
  /// are contiguous by construction).
  std::pair<std::size_t, std::size_t> active_range() const noexcept;
  double read_slot(std::size_t slot_index) const noexcept;

  void end_slice_batched();

  const EventDatabase* db_;
  util::Rng rng_;
  std::vector<std::uint32_t> ids_;
  std::vector<Slot> slots_;
  ResponseMatrix matrix_;
  std::size_t active_group_ = 0;
  std::uint64_t total_slices_ = 0;
};

}  // namespace aegis::pmu
