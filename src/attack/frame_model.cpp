#include "attack/frame_model.hpp"

#include <utility>

namespace aegis::attack {

FrameModel train_frame_model(std::vector<ml::FrameSequence> runs,
                             double train_fraction, std::uint64_t seed,
                             const ml::SequenceModelConfig& config,
                             int num_labels) {
  FrameModel out;
  std::vector<const trace::Standardizer::Rows*> frames;
  frames.reserve(runs.size());
  for (const ml::FrameSequence& run : runs) frames.push_back(&run.frames);
  out.standardizer.fit_blocks(frames);
  for (ml::FrameSequence& run : runs) out.standardizer.apply_all(run.frames);

  const trace::IdSplit split =
      trace::split_by_id(runs.size(), train_fraction, seed ^ 0x5A11ULL);
  std::vector<ml::FrameSequence> train_set, val_set;
  train_set.reserve(split.train.size());
  val_set.reserve(split.validation.size());
  for (std::size_t i : split.train) train_set.push_back(std::move(runs[i]));
  for (std::size_t i : split.validation) val_set.push_back(std::move(runs[i]));

  out.model = std::make_unique<ml::FrameSequenceModel>(config);
  out.history = out.model->fit(train_set, val_set, num_labels);
  return out;
}

}  // namespace aegis::attack
