#include "attack/retrainable.hpp"

#include <optional>
#include <utility>

namespace aegis::attack {
namespace {

class ClassificationRetrainable final : public Retrainable {
 public:
  ClassificationRetrainable(
      const pmu::EventDatabase& db, std::string name,
      std::shared_ptr<const std::vector<std::unique_ptr<workload::Workload>>>
          secrets,
      ClassificationAttackConfig config, std::size_t visits_per_secret)
      : db_(&db),
        name_(std::move(name)),
        secrets_(std::move(secrets)),
        config_(std::move(config)),
        visits_per_secret_(visits_per_secret) {}

  const std::string& name() const noexcept override { return name_; }

  double random_guess() const noexcept override {
    return secrets_->empty() ? 0.0
                             : 1.0 / static_cast<double>(secrets_->size());
  }

  void retrain(const AgentFactory& template_agent) override {
    attack_.emplace(*db_, config_);
    attack_->train(*secrets_, template_agent);
  }

  double exploit(std::uint64_t seed,
                 const AgentFactory& victim_agent) const override {
    return attack_->exploit(*secrets_, visits_per_secret_, seed, victim_agent);
  }

  double validation_accuracy() const noexcept override {
    return attack_ ? attack_->validation_accuracy() : 0.0;
  }

 private:
  const pmu::EventDatabase* db_;
  std::string name_;
  std::shared_ptr<const std::vector<std::unique_ptr<workload::Workload>>>
      secrets_;
  ClassificationAttackConfig config_;
  std::size_t visits_per_secret_;
  std::optional<ClassificationAttack> attack_;
};

class MeaRetrainable final : public Retrainable {
 public:
  MeaRetrainable(const pmu::EventDatabase& db, MeaConfig config,
                 std::size_t runs_per_model)
      : db_(&db),
        name_("mea"),
        config_(std::move(config)),
        runs_per_model_(runs_per_model) {}

  const std::string& name() const noexcept override { return name_; }
  // Matched-layers is a sequence metric; an uninformed decoder scores ~0.
  double random_guess() const noexcept override { return 0.0; }

  void retrain(const AgentFactory& template_agent) override {
    attack_.emplace(*db_, config_);
    attack_->train(template_agent);
  }

  double exploit(std::uint64_t seed,
                 const AgentFactory& victim_agent) const override {
    return attack_->exploit(runs_per_model_, seed, victim_agent);
  }

  double validation_accuracy() const noexcept override {
    return attack_ ? attack_->validation_frame_accuracy() : 0.0;
  }

 private:
  const pmu::EventDatabase* db_;
  std::string name_;
  MeaConfig config_;
  std::size_t runs_per_model_;
  std::optional<MeaAttack> attack_;
};

}  // namespace

std::unique_ptr<Retrainable> make_retrainable_classification(
    const pmu::EventDatabase& db, std::string name,
    std::shared_ptr<const std::vector<std::unique_ptr<workload::Workload>>>
        secrets,
    ClassificationAttackConfig config, std::size_t visits_per_secret) {
  return std::make_unique<ClassificationRetrainable>(
      db, std::move(name), std::move(secrets), std::move(config),
      visits_per_secret);
}

std::unique_ptr<Retrainable> make_retrainable_mea(const pmu::EventDatabase& db,
                                                  MeaConfig config,
                                                  std::size_t runs_per_model) {
  return std::make_unique<MeaRetrainable>(db, std::move(config),
                                          runs_per_model);
}

}  // namespace aegis::attack
