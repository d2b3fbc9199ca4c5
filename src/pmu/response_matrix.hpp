// Batched structure-of-arrays PMU response engine.
//
// CounterRegisterFile::accumulate is the innermost loop of every campaign:
// Table III fuzzing, the Fig. 8 sweep over all 1903 events and the
// obfuscator's per-slice in-guest path all funnel millions of simulated
// gadget executions through it. The scattered representation — one
// EventDatabase::by_id pointer chase per slot per call into an
// EventDescriptor whose float coefficients interleave with its name and
// type — costs a dependent load chain plus ~34 float->double conversions
// per slot. ResponseMatrix flattens the programmed responses ONCE, at
// program() time, so that accumulate becomes a small sparse mat-vec against
// one flattened feature vector.
//
// The layout is group-blocked and column-sparse (see DESIGN.md "PMU hot
// path"): rows are blocked into groups of kLanes = 4 — exactly the hardware
// counter groups accumulate touches — padded with zero rows to the lane
// width. Per group only the ascending union of feature columns with a
// nonzero coefficient in ANY lane is kept, each stored as 4 packed lane
// coefficients. Event responses are archetype-sparse (most rows have 1-3
// nonzero coefficients), so the per-group union is typically ~4-8 of the 34
// columns — the short-row fast path the 4-event attack configuration runs
// entirely inside one group.
//
// Contract: expected_group() performs, per lane, bit-identical arithmetic
// to EventResponse::expected_count on the same ExecutionStats record — the
// same nonzero terms, in the same order, at the same (double) precision.
// Pruning exact-zero columns and padding with zero lanes are both bit-exact
// no-ops: with finite features the accumulator starts at +0.0, and a sum
// can only become -0.0 from (-0)+(-0), so adding a zero product never
// changes its bits. tests/hotpath_test.cpp proves the equivalence for every
// group of the full database and end to end against a per-slot reference
// register file.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "pmu/event_database.hpp"
#include "pmu/event_model.hpp"

namespace aegis::pmu {

/// Width of the flattened ExecutionStats feature vector: one slot per
/// instruction class plus the 9 scalar activity fields.
inline constexpr std::size_t kStatsFeatureDim = isa::kNumInstructionClasses + 9;

/// Flattens `s` into out[0..kStatsFeatureDim): class counts first, then the
/// scalars in EventResponse::expected_count's term order (uops, l1_misses,
/// llc_misses, l1_writes, branch_mispredicts, mem_reads, mem_writes,
/// cycles, interrupts). Changing this order breaks the bit-identity
/// contract with the reference implementation (pinned by the
/// FlattenStatsGoldenLayout test).
void flatten_stats(const ExecutionStats& s, double* out) noexcept;

class ResponseMatrix {
 public:
  /// Rows per group block == hardware counters per multiplex group == lanes
  /// per expected_group call.
  static constexpr std::size_t kLanes = EventDatabase::kNumCounters;

  /// One group of the blocked column-sparse layout: `cols` sparse columns,
  /// each 4 packed lane coefficients at coeff[4*c .. 4*c+3] responding to
  /// feature col_feat[c]. Column order is ascending feature index.
  struct GroupView {
    const double* lane_coeff = nullptr;  // 64-byte aligned, 4 doubles/column
    const std::uint32_t* col_feat = nullptr;
    std::size_t cols = 0;
  };

  /// Flattens the EventResponse of each id into one dense coefficient row
  /// (and caches the per-row noise terms used by end_slice), then packs the
  /// rows into the aligned group-blocked sparse layout. Validates ids against the
  /// database exactly like the reference path (throws std::out_of_range on
  /// unknown ids).
  void program(const EventDatabase& db, std::span<const std::uint32_t> ids);

  void clear() noexcept;

  std::size_t rows() const noexcept { return noise_.size(); }
  std::size_t groups() const noexcept {
    return group_off_.empty() ? 0 : group_off_.size() - 1;
  }

  // aegis-lint: noalloc
  GroupView group_view(std::size_t group) const noexcept {
    const std::uint32_t begin = group_off_[group];
    return GroupView{lane_coeff_ + std::size_t{begin} * kLanes,
                     col_feat_.data() + begin, group_off_[group + 1] - begin};
  }

  float noise_rel(std::size_t row) const noexcept { return noise_[row].rel; }
  float noise_abs(std::size_t row) const noexcept { return noise_[row].abs; }
  float host_background(std::size_t row) const noexcept {
    return noise_[row].background;
  }
  /// exp(-host_background(row)), the Poisson stopping limit of the row's
  /// per-slice background draw, computed once at program() time.
  double host_background_limit(std::size_t row) const noexcept {
    return noise_[row].background_limit;
  }

  /// True when any row of `group` draws end-of-slice noise (host background
  /// or absolute measurement noise). Groups of pure guest-visible events
  /// without absolute noise skip the per-row draw tests entirely.
  bool group_has_slice_noise(std::size_t group) const noexcept {
    return slice_noise_[group] != 0;
  }

 private:
  struct RowNoise {
    float rel = 0.0f;
    float abs = 0.0f;
    float background = 0.0f;
    double background_limit = 1.0;
  };

  /// `dense` holds rows() x kStatsFeatureDim coefficients, row-major.
  void build_group_blocks(const std::vector<double>& dense);

  std::vector<RowNoise> noise_;

  // Group-blocked column-sparse layout (built by program, consumed by
  // expected_group through group_view). lane_coeff_ points at the first
  // 64-byte-aligned double inside lane_store_.
  std::vector<double> lane_store_;
  const double* lane_coeff_ = nullptr;
  std::vector<std::uint32_t> col_feat_;
  std::vector<std::uint32_t> group_off_;  // groups()+1 column offsets
  std::vector<std::uint8_t> slice_noise_;  // per group: any abs/bg noise
};

/// Evaluates one 4-lane group of the blocked column-sparse layout:
///   out_lanes[l] = sum over c of lane_coeff[4*c + l] * features[col_feat[c]]
/// accumulated in ascending column order per lane (no reassociation). The
/// caller applies expected_count's negative clamp. Features must be finite.
inline void expected_group(const ResponseMatrix::GroupView& view,
                           const double* features, double* out_lanes) noexcept {
  double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
  for (std::size_t c = 0; c < view.cols; ++c) {
    const double f = features[view.col_feat[c]];
    const double* lane = view.lane_coeff + ResponseMatrix::kLanes * c;
    acc0 += lane[0] * f;
    acc1 += lane[1] * f;
    acc2 += lane[2] * f;
    acc3 += lane[3] * f;
  }
  out_lanes[0] = acc0;
  out_lanes[1] = acc1;
  out_lanes[2] = acc2;
  out_lanes[3] = acc3;
}

}  // namespace aegis::pmu
