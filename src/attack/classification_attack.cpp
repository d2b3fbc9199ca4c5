#include "attack/classification_attack.hpp"

#include <stdexcept>
#include <utility>

namespace aegis::attack {

ClassificationAttack::ClassificationAttack(const pmu::EventDatabase& db,
                                           ClassificationAttackConfig config)
    : db_(&db), config_(std::move(config)) {}

std::vector<double> ClassificationAttack::featurize(const trace::Trace& t) const {
  // Padded pooling: attacker-stepped sampling (SlicePlanner) makes trace
  // length vary per run, but the classifier's input dimension is fixed at
  // training time.
  return config_.sort_windows
             ? t.sorted_window_features(config_.feature_windows, /*pad=*/true)
             : t.window_features(config_.feature_windows, /*pad=*/true);
}

std::vector<ml::EpochStats> ClassificationAttack::train(
    const std::vector<std::unique_ptr<workload::Workload>>& secrets,
    const AgentFactory& template_agent) {
  // Each run becomes its raw feature row as soon as it is monitored: no
  // run outlives its visit.
  const std::size_t runs =
      secrets.size() * config_.collection.traces_per_secret;
  ml::FeatureMatrix rows;
  ml::Labels labels;
  rows.reserve(runs);
  labels.reserve(runs);
  for_each_run(*db_, secrets, config_.collection, template_agent,
               [&](std::size_t secret, trace::Trace&& run) {
                 rows.push_back(featurize(run));
                 labels.push_back(static_cast<int>(secret));
               });

  // Pure (seed, run id) split: reproducible from the seed alone, immune to
  // RNG draw history and container iteration order.
  const trace::IdSplit split = trace::split_by_id(
      rows.size(), config_.train_fraction, config_.collection.seed ^ 0x5A11ULL);
  ml::FeatureMatrix X_train, X_val;
  ml::Labels y_train, y_val;
  for (std::size_t i : split.train) {
    X_train.push_back(std::move(rows[i]));
    y_train.push_back(labels[i]);
  }
  for (std::size_t i : split.validation) {
    X_val.push_back(std::move(rows[i]));
    y_val.push_back(labels[i]);
  }
  standardizer_ = trace::Standardizer{};
  standardizer_.fit(X_train);
  standardizer_.apply_all(X_train);
  standardizer_.apply_all(X_val);

  model_ = std::make_unique<ml::MlpClassifier>(
      X_train.front().size(), secrets.size(), config_.mlp);
  auto history = model_->fit(X_train, y_train, X_val, y_val);
  validation_accuracy_ = history.empty() ? 0.0 : history.back().val_accuracy;
  return history;
}

int ClassificationAttack::predict(const trace::Trace& trace) const {
  if (!model_) throw std::logic_error("ClassificationAttack: not trained");
  std::vector<double> f = featurize(trace);
  standardizer_.apply(f);
  return model_->predict(f);
}

// aegis-rng: stream(classification-attack-exploit)
double ClassificationAttack::exploit(
    const std::vector<std::unique_ptr<workload::Workload>>& secrets,
    std::size_t visits_per_secret, std::uint64_t seed,
    const AgentFactory& victim_agent) const {
  if (!model_) throw std::logic_error("ClassificationAttack: not trained");
  util::Rng rng(seed);
  std::size_t correct = 0, total = 0;
  for (std::size_t s = 0; s < secrets.size(); ++s) {
    for (std::size_t v = 0; v < visits_per_secret; ++v) {
      sim::SliceAgent agent = victim_agent ? victim_agent() : sim::SliceAgent{};
      const trace::Trace t = collect_one(*db_, *secrets[s], config_.collection,
                                         rng.next_u64(), agent);
      if (predict(t) == static_cast<int>(s)) ++correct;
      ++total;
    }
  }
  return total == 0 ? 0.0 : static_cast<double>(correct) / static_cast<double>(total);
}

}  // namespace aegis::attack
