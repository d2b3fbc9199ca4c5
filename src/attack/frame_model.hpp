// The offline stage the sequence attacks (MEA, KEA) share: standardize the
// monitored template runs frame by frame, split them by id, fit the
// frame/sequence model.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "ml/sequence_model.hpp"
#include "trace/trace.hpp"

namespace aegis::attack {

struct FrameModel {
  trace::Standardizer standardizer;  // fitted on every frame of every run
  std::unique_ptr<ml::FrameSequenceModel> model;
  std::vector<ml::EpochStats> history;  // of the frame classifier
};

/// Fits the frame standardizer on every frame of `runs` (collection order),
/// standardizes the frames in place, splits the runs with
/// trace::split_by_id(runs.size(), train_fraction, seed ^ 0x5A11) and fits
/// a `config` model on the training half. Runs are moved, never copied.
FrameModel train_frame_model(std::vector<ml::FrameSequence> runs,
                             double train_fraction, std::uint64_t seed,
                             const ml::SequenceModelConfig& config,
                             int num_labels);

}  // namespace aegis::attack
