// attack::Retrainable — the uniform adaptive-attacker seam.
//
// The paper's Fig. 9b adaptive attacker re-collects its template set UNDER
// the deployed defense and retrains, which defeats deterministic noise
// (Laplace recovers to ~100 %) but not d*. Each attack class already
// accepts an agent factory at train time; this interface erases the
// per-class API differences (classification accuracy vs sequence metrics,
// secrets vs models) so the security-evaluation harness
// (src/seceval) can run any attacker against any defense cell without
// caring which pipeline is underneath.
//
// retrain() rebuilds the attack from its config every time, so one
// Retrainable can be evaluated against many defenses in sequence — state
// never leaks across cells.
#pragma once

#include <memory>
#include <string>

#include "attack/classification_attack.hpp"
#include "attack/mea.hpp"

namespace aegis::attack {

class Retrainable {
 public:
  virtual ~Retrainable() = default;

  virtual const std::string& name() const noexcept = 0;

  /// Guessing floor of the success metric (1/classes for classification,
  /// 0 for sequence recovery).
  virtual double random_guess() const noexcept = 0;

  /// Trains from scratch. Adaptive attackers pass the defense's agent
  /// factory so templates are collected under the deployed defense; static
  /// attackers pass null and train on clean traces.
  virtual void retrain(const AgentFactory& template_agent) = 0;

  /// Attacks fresh victim runs (always under the victim's defense) and
  /// returns the success metric in [0, 1]. Requires a prior retrain().
  virtual double exploit(std::uint64_t seed,
                         const AgentFactory& victim_agent) const = 0;

  /// Validation metric of the last retrain() (0 before training, and for
  /// attacks without a held-out metric).
  virtual double validation_accuracy() const noexcept = 0;
};

/// WFA / KSA / any ClassificationAttack instance. `secrets` is shared so
/// several attackers (static + adaptive variants) can reuse one secret set.
std::unique_ptr<Retrainable> make_retrainable_classification(
    const pmu::EventDatabase& db, std::string name,
    std::shared_ptr<const std::vector<std::unique_ptr<workload::Workload>>>
        secrets,
    ClassificationAttackConfig config, std::size_t visits_per_secret);

std::unique_ptr<Retrainable> make_retrainable_mea(const pmu::EventDatabase& db,
                                                  MeaConfig config,
                                                  std::size_t runs_per_model);

}  // namespace aegis::attack
