#include "attack/kea.hpp"

#include <stdexcept>
#include <utility>

#include "attack/frame_model.hpp"
#include "ml/metrics.hpp"

namespace aegis::attack {

std::vector<bool> ops_to_key(const std::vector<int>& tokens) {
  // Token stream per bit: SQUARE, then MULTIPLY iff the bit is 1.
  std::vector<bool> key;
  bool have_bit = false;
  bool current = false;
  for (int token : tokens) {
    if (token == static_cast<int>(workload::CryptoOp::kSquare)) {
      if (have_bit) key.push_back(current);
      have_bit = true;
      current = false;
    } else if (token == static_cast<int>(workload::CryptoOp::kMultiply)) {
      current = true;
    }
  }
  if (have_bit) key.push_back(current);
  return key;
}

KeyExtractionAttack::KeyExtractionAttack(const pmu::EventDatabase& db,
                                         KeaConfig config)
    : db_(&db), config_(std::move(config)) {}

ml::FrameSequence KeyExtractionAttack::monitor_run(
    const workload::CryptoWorkload& target, std::uint64_t visit_seed,
    bool want_labels, const sim::SliceAgent& agent) const {
  workload::CryptoWorkload::VisitPlan plan = target.plan(visit_seed);
  sim::VirtualMachine vm(config_.vm, visit_seed ^ 0xF00DULL);
  sim::HostMonitor monitor(*db_, visit_seed ^ 0xBEEFULL);
  ml::FrameSequence seq;
  seq.frames =
      monitor.monitor(vm, plan.source, config_.event_ids, config_.slices, agent)
          .samples;
  if (want_labels) seq.labels = std::move(plan.frame_labels);
  return seq;
}

// aegis-rng: stream(kea-train)
std::vector<ml::EpochStats> KeyExtractionAttack::train(
    const AgentFactory& template_agent) {
  util::Rng rng(config_.seed);
  std::vector<ml::FrameSequence> sequences;
  for (std::size_t k = 0; k < config_.training_keys; ++k) {
    const workload::CryptoWorkload target(
        workload::CryptoWorkload::derive_key(config_.key_bits, 0x7E0 + k),
        config_.slices);
    for (std::size_t r = 0; r < config_.traces_per_key; ++r) {
      sim::SliceAgent agent =
          template_agent ? template_agent() : sim::SliceAgent{};
      sequences.push_back(monitor_run(target, rng.next_u64(), true, agent));
    }
  }

  ml::SequenceModelConfig seq_config;
  seq_config.context = 1;
  seq_config.blank_label = workload::kCryptoBlankLabel;
  seq_config.beam_width = 4;
  seq_config.mlp.hidden = {32, 16};
  seq_config.mlp.epochs = config_.epochs;
  seq_config.mlp.learning_rate = 0.02;
  seq_config.mlp.batch_size = 64;
  seq_config.mlp.seed = config_.seed ^ 0x4D0DE1ULL;
  FrameModel trained = train_frame_model(std::move(sequences),
                                         config_.train_fraction, config_.seed,
                                         seq_config,
                                         workload::kCryptoBlankLabel + 1);
  frame_standardizer_ = std::move(trained.standardizer);
  seq_model_ = std::move(trained.model);
  return std::move(trained.history);
}

std::vector<bool> KeyExtractionAttack::extract(
    const workload::CryptoWorkload& victim, std::uint64_t visit_seed,
    const sim::SliceAgent& agent) const {
  if (!seq_model_) throw std::logic_error("KeyExtractionAttack: not trained");
  ml::FrameSequence seq = monitor_run(victim, visit_seed, false, agent);
  frame_standardizer_.apply_all(seq.frames);
  return ops_to_key(seq_model_->decode_beam(seq));
}

// aegis-rng: stream(kea-exploit)
double KeyExtractionAttack::exploit(std::size_t victim_keys,
                                    std::size_t runs_per_key,
                                    std::uint64_t seed,
                                    const AgentFactory& victim_agent) const {
  if (!seq_model_) throw std::logic_error("KeyExtractionAttack: not trained");
  util::Rng rng(seed);
  double total = 0.0;
  std::size_t n = 0;
  for (std::size_t k = 0; k < victim_keys; ++k) {
    // Fresh victim keys, disjoint from the training keys.
    const std::vector<bool> key =
        workload::CryptoWorkload::derive_key(config_.key_bits, 0xF0000 + k);
    const workload::CryptoWorkload victim(key, config_.slices);
    std::vector<int> truth;
    for (bool bit : key) truth.push_back(bit ? 1 : 0);
    for (std::size_t r = 0; r < runs_per_key; ++r) {
      sim::SliceAgent agent = victim_agent ? victim_agent() : sim::SliceAgent{};
      const std::vector<bool> recovered =
          extract(victim, rng.next_u64(), agent);
      std::vector<int> hyp;
      for (bool bit : recovered) hyp.push_back(bit ? 1 : 0);
      total += ml::sequence_match_accuracy(truth, hyp);
      ++n;
    }
  }
  return n == 0 ? 0.0 : total / static_cast<double>(n);
}

}  // namespace aegis::attack
