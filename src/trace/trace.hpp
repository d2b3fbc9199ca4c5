// Trace containers and feature extraction.
//
// A Trace is one monitored execution: T sampling slices x E events of HPC
// count deltas (the paper's 4 x 3000 tensors). TraceSet pairs traces with
// secret labels for attack training and profiler analysis.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "util/rng.hpp"

namespace aegis::trace {

struct Trace {
  /// samples[t][e] — count delta of event e in slice t.
  std::vector<std::vector<double>> samples;

  std::size_t slices() const noexcept { return samples.size(); }
  std::size_t events() const noexcept {
    return samples.empty() ? 0 : samples.front().size();
  }

  /// Column e as a flat series.
  std::vector<double> event_series(std::size_t e) const;

  /// Total count of event e over the window.
  double event_total(std::size_t e) const noexcept;

  /// Per-event, per-window mean features: splits the T slices into
  /// `windows` equal chunks and averages each event within a chunk,
  /// yielding an events() * windows feature vector. This is the temporal
  /// pooling the paper's CNN front-end effectively performs.
  /// By default a trace shorter than `windows` shrinks the vector to
  /// events() * T; with `pad` the dimension is always events() * windows
  /// and windows that received no sample stay zero. Classifiers need
  /// `pad` when trace length varies per run (attacker-stepped sampling),
  /// because their input dimension is fixed at training time.
  std::vector<double> window_features(std::size_t windows,
                                      bool pad = false) const;

  /// Like window_features, but each event's windows are sorted descending —
  /// an order-statistic view that is invariant to *when* activity bursts
  /// occur. This supplies the translation invariance the paper's CNN gets
  /// from convolution; transient workloads (keystrokes) need it.
  std::vector<double> sorted_window_features(std::size_t windows,
                                             bool pad = false) const;
};

/// Trace::window_features computed as the rows arrive, one slice at a time,
/// so a caller that streams a run (sim::sweep_groups) stores no rows. Same
/// window rule, same sums in slice order and the same division, hence the
/// same bits.
class WindowPooler {
 public:
  /// A trace of `slices` rows of `events` values each, pooled into
  /// `windows` windows (shrunk to `slices` unless `pad`, as in
  /// window_features).
  WindowPooler(std::size_t events, std::size_t slices, std::size_t windows,
               bool pad = false);

  /// Adds row t (`events` values; every t in [0, slices) once).
  void add(std::size_t t, std::span<const double> row) noexcept;

  /// The window means, event-major (events * windows); empty for no window
  /// or no slice. Consumes the pooler: the sums become the means in place.
  std::vector<double> features() &&;

 private:
  std::size_t events_;
  std::size_t slices_;
  std::size_t windows_;
  std::vector<double> sums_;  // event-major, like the features
  std::vector<double> counts_;
};

struct TraceSet {
  std::vector<Trace> traces;
  std::vector<int> labels;
  int num_classes = 0;

  std::size_t size() const noexcept { return traces.size(); }

  /// Random split preserving nothing fancy (the paper splits 70/30).
  void split(double train_fraction, util::Rng& rng, TraceSet& train,
             TraceSet& validation) const;

  /// Deterministic split keyed purely on (seed, trace id): trace i ranks by
  /// split_mix64(seed, i) and the lowest-keyed 70% (say) train. Unlike the
  /// Rng overload the assignment is a pure function of the seed and each
  /// trace's stable index — independent of container iteration order, of
  /// how many draws the caller's RNG made before the split, and of thread
  /// count — so training sets are reproducible from the seed alone.
  void split_by_id(double train_fraction, std::uint64_t seed, TraceSet& train,
                   TraceSet& validation) const;
};

/// Index order underlying split_by_id: [0, n) sorted ascending by
/// (split_mix64(seed, i), i). The first floor(train_fraction * n) indices
/// of this order form the training split. Shared with the sequence attacks
/// (MEA/KEA), which split frame sequences rather than TraceSets.
std::vector<std::size_t> split_order_by_id(std::size_t n, std::uint64_t seed);

/// Per-dimension z-score normalizer fitted on training features and applied
/// to both splits (never fit on validation).
class Standardizer {
 public:
  void fit(const std::vector<std::vector<double>>& features);
  void apply(std::vector<double>& feature) const;
  void apply_all(std::vector<std::vector<double>>& features) const;
  bool fitted() const noexcept { return !mu_.empty(); }

 private:
  std::vector<double> mu_;
  std::vector<double> sigma_;
};

}  // namespace aegis::trace
