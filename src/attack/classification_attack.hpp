// Generic HPC-trace classification attack (the Section III-B abstraction):
// offline, train f_theta : X -> Y on template-VM traces; online, predict the
// victim's secret from monitored traces. WFA and KSA are instances.
#pragma once

#include <memory>
#include <vector>

#include "attack/dataset.hpp"
#include "ml/mlp.hpp"
#include "trace/trace.hpp"

namespace aegis::attack {

struct ClassificationAttackConfig {
  CollectionConfig collection;
  std::size_t feature_windows = 24;  // temporal pooling of each trace
  bool sort_windows = false;         // order-statistic (burst-count) features
  double train_fraction = 0.7;       // paper: 70/30 train/validation
  ml::MlpConfig mlp;
};

class ClassificationAttack {
 public:
  ClassificationAttack(const pmu::EventDatabase& db,
                       ClassificationAttackConfig config);

  /// Offline stage: monitors template runs of every secret (optionally
  /// under a defense agent — the Fig. 9b adaptive attacker trains on noisy
  /// data), reducing each to its feature row as it is collected, and trains
  /// the model. Returns the training history (Fig. 1).
  std::vector<ml::EpochStats> train(
      const std::vector<std::unique_ptr<workload::Workload>>& secrets,
      const AgentFactory& template_agent = nullptr);

  /// Online stage: monitors fresh victim executions and returns the attack
  /// accuracy. `victim_agent` installs the defense inside the victim VM.
  double exploit(const std::vector<std::unique_ptr<workload::Workload>>& secrets,
                 std::size_t visits_per_secret, std::uint64_t seed,
                 const AgentFactory& victim_agent = nullptr) const;

  /// Classifies one already-monitored trace.
  int predict(const trace::Trace& trace) const;

  double validation_accuracy() const noexcept { return validation_accuracy_; }
  const ClassificationAttackConfig& config() const noexcept { return config_; }

 private:
  /// The raw (unstandardized) window features of one run.
  std::vector<double> featurize(const trace::Trace& trace) const;

  const pmu::EventDatabase* db_;
  ClassificationAttackConfig config_;
  trace::Standardizer standardizer_;
  std::unique_ptr<ml::MlpClassifier> model_;
  double validation_accuracy_ = 0.0;
};

}  // namespace aegis::attack
