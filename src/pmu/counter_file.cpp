#include "pmu/counter_file.hpp"

#include <cmath>
#include <stdexcept>

#include "telemetry/registry.hpp"

namespace aegis::pmu {

CounterRegisterFile::CounterRegisterFile(const EventDatabase& db,
                                         std::uint64_t noise_seed)
    : db_(&db),
      rng_(noise_seed),
      accumulate_calls_(telemetry::Registry::global().metrics().counter(
          "aegis_pmu_accumulate_total")) {}

void CounterRegisterFile::program(std::vector<std::uint32_t> event_ids) {
  for (std::uint32_t id : event_ids) {
    (void)db_->by_id(id);  // validate before touching any state
  }
  matrix_.program(*db_, event_ids);
  ids_ = std::move(event_ids);
  slots_.clear();
  slots_.reserve(ids_.size());
  slot_index_.clear();
  slot_index_.reserve(ids_.size());
  for (std::uint32_t id : ids_) {
    // First occurrence wins for duplicate ids, matching the old scan.
    slot_index_.emplace(id, static_cast<std::uint32_t>(slots_.size()));
    slots_.push_back(Slot{id, 0.0, 0});
  }
  active_group_ = 0;
  total_slices_ = 0;
}

void CounterRegisterFile::reset() noexcept {
  for (auto& s : slots_) {
    s.count = 0.0;
    s.active_slices = 0;
  }
  active_group_ = 0;
  total_slices_ = 0;
}

std::size_t CounterRegisterFile::group_count() const noexcept {
  const std::size_t c = EventDatabase::kNumCounters;
  return slots_.empty() ? 1 : (slots_.size() + c - 1) / c;
}

std::pair<std::size_t, std::size_t> CounterRegisterFile::active_range()
    const noexcept {
  const std::size_t first = active_group_ * EventDatabase::kNumCounters;
  const std::size_t last =
      std::min(slots_.size(), first + EventDatabase::kNumCounters);
  return {first, last};
}

std::size_t CounterRegisterFile::slot_of(std::uint32_t event_id) const {
  const auto it = slot_index_.find(event_id);
  if (it == slot_index_.end()) {
    throw std::invalid_argument("CounterRegisterFile: event not programmed");
  }
  return it->second;
}

// aegis-lint: noalloc
void CounterRegisterFile::accumulate(const ExecutionStats& stats) {
  accumulate_calls_.inc();
  accumulate_batched(stats);
}

// One group-kernel call computes the active group's expected counts; the
// noise draws then run in per-slot order, so the RNG stream is a pure
// function of (programming, slot index, slice count).
// aegis-lint: noalloc
// aegis-rng: stream(counter-file-accumulate-batched)
void CounterRegisterFile::accumulate_batched(const ExecutionStats& stats) {
  const auto [first, last] = active_range();
  if (first >= last) return;
  double features[kStatsFeatureDim];
  flatten_stats(stats, features);
  double lanes[ResponseMatrix::kLanes];
  expected_group(matrix_.group_view(active_group_), features, lanes);
  for (std::size_t i = first; i < last; ++i) {
    const double raw = lanes[i - first];
    // Responses with negative coefficients (e.g. L1_HIT = reads - misses)
    // never count below zero on real hardware.
    const double expected = raw < 0.0 ? 0.0 : raw;
    double noisy = expected;
    const float noise_rel = matrix_.noise_rel(i);
    if (noise_rel > 0.0f && expected > 0.0) {
      noisy += rng_.normal(0.0, noise_rel * expected);
    }
    if (noisy < 0.0) noisy = 0.0;
    slots_[i].count += noisy;
  }
}

void CounterRegisterFile::end_slice() {
  end_slice_batched();
  ++total_slices_;
  if (multiplexed()) {
    active_group_ = (active_group_ + 1) % group_count();
  }
}

// aegis-lint: noalloc
// aegis-rng: stream(counter-file-end-slice-batched)
void CounterRegisterFile::end_slice_batched() {
  const auto [first, last] = active_range();
  if (first >= last) return;
  if (!matrix_.group_has_slice_noise(active_group_)) {
    // Noise-free group (precomputed at program() time): the sampler's
    // end-of-slice work collapses to the active-slice bookkeeping.
    for (std::size_t i = first; i < last; ++i) ++slots_[i].active_slices;
    return;
  }
  for (std::size_t i = first; i < last; ++i) {
    double background = 0.0;
    const float host_background = matrix_.host_background(i);
    if (host_background > 0.0f) {
      background += static_cast<double>(
          rng_.poisson(static_cast<double>(host_background),
                       matrix_.host_background_limit(i)));
    }
    const float noise_abs = matrix_.noise_abs(i);
    if (noise_abs > 0.0f) {
      background += std::abs(rng_.normal(0.0, noise_abs));
    }
    slots_[i].count += background;
    ++slots_[i].active_slices;
  }
}

void CounterRegisterFile::tick(const ExecutionStats& stats) {
  accumulate(stats);
  end_slice();
}

double CounterRegisterFile::read_slot(std::size_t slot_index) const noexcept {
  const Slot& s = slots_[slot_index];
  if (!multiplexed()) return s.count;
  if (s.active_slices == 0) return 0.0;
  // perf's enabled/running scaling: extrapolate to the full window.
  return s.count * static_cast<double>(total_slices_) /
         static_cast<double>(s.active_slices);
}

double CounterRegisterFile::read(std::uint32_t event_id) const {
  return read_slot(slot_of(event_id));
}

double CounterRegisterFile::read_raw(std::uint32_t event_id) const {
  return slots_[slot_of(event_id)].count;
}

std::vector<double> CounterRegisterFile::read_all() const {
  std::vector<double> out(slots_.size());
  read_all(out);
  return out;
}

// aegis-lint: noalloc
void CounterRegisterFile::read_all(std::span<double> out) const {
  if (out.size() != slots_.size()) {
    throw std::invalid_argument("read_all: one value per programmed event");
  }
  for (std::size_t i = 0; i < slots_.size(); ++i) out[i] = read_slot(i);
}

}  // namespace aegis::pmu
