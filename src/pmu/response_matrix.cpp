#include "pmu/response_matrix.hpp"

#include <cstdint>

namespace aegis::pmu {

// aegis-lint: noalloc
void flatten_stats(const ExecutionStats& s, double* out) noexcept {
  constexpr std::size_t kClasses = isa::kNumInstructionClasses;
  for (std::size_t i = 0; i < kClasses; ++i) {
    out[i] = s.class_counts.at_index(i);
  }
  out[kClasses + 0] = s.uops;
  out[kClasses + 1] = s.l1_misses;
  out[kClasses + 2] = s.llc_misses;
  out[kClasses + 3] = s.l1_writes;
  out[kClasses + 4] = s.branch_mispredicts;
  out[kClasses + 5] = s.mem_reads;
  out[kClasses + 6] = s.mem_writes;
  out[kClasses + 7] = s.cycles;
  out[kClasses + 8] = s.interrupts;
}

void ResponseMatrix::program(const EventDatabase& db,
                             std::span<const std::uint32_t> ids) {
  constexpr std::size_t kClasses = isa::kNumInstructionClasses;
  // Dense row-major staging rows, only needed to build the group blocks.
  std::vector<double> dense;
  dense.reserve(ids.size() * kStatsFeatureDim);
  noise_.clear();
  noise_.reserve(ids.size());
  for (std::uint32_t id : ids) {
    const EventResponse& r = db.by_id(id).response;  // validates like program()
    for (std::size_t i = 0; i < kClasses; ++i) {
      dense.push_back(static_cast<double>(r.class_weight.at_index(i)));
    }
    // Scalar coefficients in expected_count's term order (see flatten_stats).
    dense.push_back(static_cast<double>(r.per_uop));
    dense.push_back(static_cast<double>(r.per_l1_miss));
    dense.push_back(static_cast<double>(r.per_llc_miss));
    dense.push_back(static_cast<double>(r.per_l1_write));
    dense.push_back(static_cast<double>(r.per_branch_miss));
    dense.push_back(static_cast<double>(r.per_mem_read));
    dense.push_back(static_cast<double>(r.per_mem_write));
    dense.push_back(static_cast<double>(r.per_cycle));
    dense.push_back(static_cast<double>(r.per_interrupt));
    noise_.push_back(RowNoise{r.noise_rel, r.noise_abs, r.host_background});
  }
  build_group_blocks(dense);
}

// Builds the 4-lane group blocks from the dense rows: per group, the
// ascending union of feature columns any lane responds to, packed as 4
// lane coefficients per column into 64-byte-aligned storage. Rows past the
// end pad their lanes with zeros. Exact-zero columns are pruned — a
// bit-exact no-op under IEEE-754 for finite features (response_matrix.hpp).
void ResponseMatrix::build_group_blocks(const std::vector<double>& dense) {
  const std::size_t nrows = noise_.size();
  const std::size_t ngroups = (nrows + kLanes - 1) / kLanes;
  col_feat_.clear();
  group_off_.assign(ngroups + 1, 0);
  slice_noise_.assign(ngroups, 0);
  for (std::size_t g = 0; g < ngroups; ++g) {
    const std::size_t row0 = g * kLanes;
    const std::size_t lanes = std::min(kLanes, nrows - row0);
    for (std::uint32_t f = 0; f < kStatsFeatureDim; ++f) {
      bool any = false;
      for (std::size_t l = 0; l < lanes && !any; ++l) {
        any = dense[(row0 + l) * kStatsFeatureDim + f] != 0.0;
      }
      if (any) col_feat_.push_back(f);
    }
    group_off_[g + 1] = static_cast<std::uint32_t>(col_feat_.size());
    for (std::size_t l = 0; l < lanes; ++l) {
      if (noise_[row0 + l].abs > 0.0f || noise_[row0 + l].background > 0.0f) {
        slice_noise_[g] = 1;
      }
    }
  }

  // Pack lane coefficients, 64-byte aligned (overallocate by 7 doubles and
  // round the base pointer up; vector data is always 8-byte aligned).
  lane_store_.assign(col_feat_.size() * kLanes + 7, 0.0);
  double* base = lane_store_.data();
  while (reinterpret_cast<std::uintptr_t>(base) % 64 != 0) ++base;
  lane_coeff_ = base;
  for (std::size_t g = 0; g < ngroups; ++g) {
    const std::size_t row0 = g * kLanes;
    const std::size_t lanes = std::min(kLanes, nrows - row0);
    for (std::uint32_t c = group_off_[g]; c < group_off_[g + 1]; ++c) {
      const std::uint32_t f = col_feat_[c];
      for (std::size_t l = 0; l < lanes; ++l) {
        base[std::size_t{c} * kLanes + l] =
            dense[(row0 + l) * kStatsFeatureDim + f];
      }
    }
  }
}

void ResponseMatrix::clear() noexcept {
  noise_.clear();
  lane_store_.clear();
  lane_coeff_ = nullptr;
  col_feat_.clear();
  group_off_.clear();
  slice_noise_.clear();
}

}  // namespace aegis::pmu
