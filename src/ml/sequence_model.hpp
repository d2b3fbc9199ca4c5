// Frame-level sequence model for the model-extraction attack (MEA).
//
// Stands in for the paper's bidirectional-GRU + CTC decoder: a per-frame
// classifier over sliding context windows predicts a layer kind (or blank)
// for every monitoring slice; a CTC-style collapse plus prefix beam search
// turns frame posteriors into the predicted layer sequence.
#pragma once

#include <memory>
#include <vector>

#include "ml/metrics.hpp"
#include "ml/mlp.hpp"

namespace aegis::ml {

struct SequenceModelConfig {
  std::size_t context = 2;     // frames of context on each side
  int blank_label = 0;         // set to the workload's blank id
  std::size_t beam_width = 4;
  MlpConfig mlp;
};

/// One training/inference sequence: per-frame event vectors, plus aligned
/// labels when training.
struct FrameSequence {
  std::vector<std::vector<double>> frames;  // T x E
  std::vector<int> labels;                  // T, empty at inference time
};

class FrameSequenceModel {
 public:
  explicit FrameSequenceModel(SequenceModelConfig config);

  /// Trains on aligned sequences; returns the per-epoch history of the
  /// underlying frame classifier.
  std::vector<EpochStats> fit(const std::vector<FrameSequence>& train,
                              const std::vector<FrameSequence>& val,
                              int num_labels);

  /// Greedy decode: per-frame argmax then CTC collapse.
  std::vector<int> decode_greedy(const FrameSequence& seq) const;

  /// CTC prefix beam search over the frame posteriors.
  std::vector<int> decode_beam(const FrameSequence& seq) const;

  /// Mean sequence_match_accuracy of beam decoding against references.
  double evaluate(const std::vector<FrameSequence>& sequences,
                  const std::vector<std::vector<int>>& references) const;

 private:
  /// Width of one context window; throws on frames of different widths.
  std::size_t window_width(const FrameSequence& seq) const;
  /// Writes frame t's window (frames t - context .. t + context, the edge
  /// frames repeated) to `out`.
  void write_window(const FrameSequence& seq, std::size_t t, double* out) const;
  /// T x num_labels posteriors, row-major, from batched forward passes.
  std::vector<double> frame_posteriors(const FrameSequence& seq) const;

  SequenceModelConfig config_;
  int num_labels_ = 0;  // includes blank
  std::unique_ptr<MlpClassifier> frame_classifier_;
};

}  // namespace aegis::ml
