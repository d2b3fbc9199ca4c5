#include "attack/mea.hpp"

#include <stdexcept>
#include <utility>

#include "attack/frame_model.hpp"
#include "ml/metrics.hpp"

namespace aegis::attack {

MeaAttack::MeaAttack(const pmu::EventDatabase& db, MeaConfig config)
    : db_(&db), config_(std::move(config)) {
  models_.reserve(config_.scale.models);
  for (std::size_t m = 0; m < config_.scale.models; ++m) {
    models_.emplace_back(m, config_.scale.slices);
  }
}

ml::FrameSequence MeaAttack::monitor_run(const workload::DnnWorkload& model,
                                         std::uint64_t visit_seed,
                                         bool want_labels,
                                         const sim::SliceAgent& agent) const {
  workload::DnnWorkload::VisitPlan plan = model.plan(visit_seed);
  sim::VirtualMachine vm(config_.vm, visit_seed ^ 0xF00DULL);
  sim::HostMonitor monitor(*db_, visit_seed ^ 0xBEEFULL);
  ml::FrameSequence seq;
  seq.frames = monitor
                   .monitor(vm, plan.source, config_.event_ids,
                            config_.scale.slices, agent)
                   .samples;
  if (want_labels) seq.labels = std::move(plan.frame_labels);
  return seq;
}

// aegis-rng: stream(mea-train)
std::vector<ml::EpochStats> MeaAttack::train(const AgentFactory& template_agent) {
  util::Rng rng(config_.seed);
  std::vector<ml::FrameSequence> sequences;
  sequences.reserve(models_.size() * config_.scale.traces_per_model);
  for (const auto& model : models_) {
    for (std::size_t r = 0; r < config_.scale.traces_per_model; ++r) {
      sim::SliceAgent agent =
          template_agent ? template_agent() : sim::SliceAgent{};
      sequences.push_back(monitor_run(model, rng.next_u64(), true, agent));
    }
  }

  ml::SequenceModelConfig seq_config;
  seq_config.context = 2;
  seq_config.blank_label = workload::kBlankLabel;
  seq_config.beam_width = 4;
  seq_config.mlp.hidden = {64, 32};
  seq_config.mlp.epochs = config_.scale.epochs;
  seq_config.mlp.learning_rate = 0.02;
  seq_config.mlp.batch_size = 64;
  seq_config.mlp.seed = config_.seed ^ 0x4D0DE1ULL;
  FrameModel trained =
      train_frame_model(std::move(sequences), config_.train_fraction,
                        config_.seed, seq_config, workload::kBlankLabel + 1);
  frame_standardizer_ = std::move(trained.standardizer);
  seq_model_ = std::move(trained.model);
  val_frame_accuracy_ =
      trained.history.empty() ? 0.0 : trained.history.back().val_accuracy;
  return std::move(trained.history);
}

std::vector<int> MeaAttack::extract(std::size_t model_id,
                                    std::uint64_t visit_seed,
                                    const sim::SliceAgent& agent) const {
  if (!seq_model_) throw std::logic_error("MeaAttack: not trained");
  ml::FrameSequence seq =
      monitor_run(models_.at(model_id), visit_seed, false, agent);
  frame_standardizer_.apply_all(seq.frames);
  return seq_model_->decode_beam(seq);
}

// aegis-rng: stream(mea-exploit)
double MeaAttack::exploit(std::size_t runs_per_model, std::uint64_t seed,
                          const AgentFactory& victim_agent) const {
  if (!seq_model_) throw std::logic_error("MeaAttack: not trained");
  util::Rng rng(seed);
  double total = 0.0;
  std::size_t n = 0;
  for (std::size_t m = 0; m < models_.size(); ++m) {
    // Reference: the true architecture with consecutive duplicate kinds
    // merged the same way the decoder's collapse merges them.
    std::vector<int> reference;
    for (workload::LayerKind k : models_[m].layer_sequence()) {
      reference.push_back(static_cast<int>(k));
    }
    for (std::size_t r = 0; r < runs_per_model; ++r) {
      sim::SliceAgent agent = victim_agent ? victim_agent() : sim::SliceAgent{};
      const std::vector<int> hyp = extract(m, rng.next_u64(), agent);
      total += ml::sequence_match_accuracy(reference, hyp);
      ++n;
    }
  }
  return n == 0 ? 0.0 : total / static_cast<double>(n);
}

}  // namespace aegis::attack
