// Ablation: the Event Obfuscator's noise-injection design choices.
//
//   * Noise rank (single stream vs per-gadget streams). Driving the whole
//     stacked segment with ONE noise draw makes the injected counts rank-1
//     in event space: with 4 monitored events, a 3-dimensional noise-free
//     subspace remains. A projection attacker estimates the noise direction
//     (the top principal component of the defended per-slice vectors, which
//     the injected noise dominates), removes it, and classifies the
//     residual. Independent per-gadget streams make the noise full-rank
//     over the monitored events, and the projection gains nothing.
//   * Clip bound B_u. A tight clip saturates at small epsilon, degrading
//     the mechanism into a near-deterministic offset that a noise-trained
//     attacker learns; a generous clip preserves the Laplace tails and the
//     d* drift that defeat temporal pooling (Fig. 9b).
#include "attack/dataset.hpp"
#include "bench_common.hpp"
#include "trace/pca.hpp"

using namespace aegis;

namespace {

/// Removes the component of every per-slice sample along `direction`.
trace::Trace project_out(const trace::Trace& t, const std::vector<double>& direction) {
  trace::Trace out = t;
  for (auto& row : out.samples) {
    double dot = 0.0;
    for (std::size_t e = 0; e < row.size(); ++e) dot += row[e] * direction[e];
    for (std::size_t e = 0; e < row.size(); ++e) row[e] -= dot * direction[e];
  }
  return out;
}

/// The projection attacker: estimates the dominant per-slice direction of
/// the defended traces (the injected-noise ray when the noise is rank-1),
/// projects it out of every trace, and trains/evaluates on the residual.
// aegis-rng: stream(abl-noise-design-projection-attack-accuracy)
double projection_attack_accuracy(
    const pmu::EventDatabase& db,
    const std::vector<std::unique_ptr<workload::Workload>>& secrets,
    const attack::ClassificationAttackConfig& base_config,
    const attack::AgentFactory& factory, std::size_t test_visits,
    std::uint64_t seed) {
  // Collect defended training traces.
  const trace::TraceSet train_set =
      attack::collect_traces(db, secrets, base_config.collection, factory);

  // Estimate the noise direction from the pooled per-slice vectors.
  std::vector<std::vector<double>> rows;
  for (const auto& t : train_set.traces) {
    rows.insert(rows.end(), t.samples.begin(), t.samples.end());
  }
  trace::Pca pca;
  pca.fit(rows, 1);
  std::vector<double> direction = pca.components().front();

  // Featurize the projected residuals.
  ml::FeatureMatrix X;
  for (const auto& t : train_set.traces) {
    X.push_back(project_out(t, direction).window_features(base_config.feature_windows));
  }
  trace::Standardizer standardizer;
  standardizer.fit(X);
  standardizer.apply_all(X);
  ml::MlpClassifier model(X.front().size(),
                          static_cast<std::size_t>(train_set.num_classes),
                          base_config.mlp);
  (void)model.fit(X, train_set.labels, {}, {});

  // Exploit fresh defended victim runs through the same projection.
  util::Rng rng(seed);
  std::size_t correct = 0, total = 0;
  for (std::size_t s = 0; s < secrets.size(); ++s) {
    for (std::size_t v = 0; v < test_visits; ++v) {
      const trace::Trace t = attack::collect_one(
          db, *secrets[s], base_config.collection, rng.next_u64(), factory());
      std::vector<double> f =
          project_out(t, direction).window_features(base_config.feature_windows);
      standardizer.apply(f);
      if (model.predict(f) == static_cast<int>(s)) ++correct;
      ++total;
    }
  }
  return static_cast<double>(correct) / static_cast<double>(total);
}

}  // namespace

int main(int argc, char** argv) {
  const double scale = bench::scale_from_args(argc, argv);
  const std::size_t slices = bench::scaled(180, scale, 100);

  attack::WfaScale wfa_scale;
  wfa_scale.sites = bench::scaled(12, scale, 8);
  wfa_scale.traces_per_site = bench::scaled(14, scale, 10);
  wfa_scale.epochs = bench::scaled(20, scale, 12);
  wfa_scale.slices = slices;
  auto secrets = attack::make_wfa_secrets(wfa_scale);
  bench::OfflineSetup setup(secrets, scale);
  const auto& db = setup.aegis.database();
  const auto events = bench::attack_events(db.model());
  const std::size_t visits = bench::scaled(2, scale);

  auto make_obf = [&](dp::MechanismKind kind, double epsilon, bool single_stream,
                      double clip_sigma) {
    dp::MechanismConfig mech;
    mech.kind = kind;
    mech.epsilon = epsilon;
    obf::ObfuscatorOptions options;
    options.single_stream = single_stream;
    options.clip_sigma = clip_sigma;
    return setup.aegis.make_obfuscator(setup.result, secrets, mech, options);
  };

  bench::print_header(
      "Ablation 1 — subspace-projection attacker vs noise structure"
      " (eps = 2^-5)");
  util::Table streams({"mechanism", "streams", "projection-attack acc"});
  for (dp::MechanismKind kind :
       {dp::MechanismKind::kLaplace, dp::MechanismKind::kDStar}) {
    for (bool single : {true, false}) {
      auto obf = make_obf(kind, 1.0 / 32.0, single, 30.0);
      const double acc = projection_attack_accuracy(
          db, secrets, attack::make_wfa_config(events, wfa_scale, 0xAB1),
          [&] { return obf->session(); }, visits, 0xAB2);
      streams.add_row({std::string(dp::to_string(kind)),
                       single ? "single (rank-1)" : "per-gadget (default)",
                       util::fmt_pct(acc)});
    }
  }
  streams.print(std::cout);
  std::cout << "the projection attacker strips the dominant noise direction: "
               "it defeats i.i.d. Laplace noise regardless of stream count "
               "(gadget effects correlate through their shared uop cost), and "
               "defeats single-stream d* (one stream concentrates the drift "
               "on one axis). Only d* WITH per-gadget streams — temporal "
               "correlation spread across the gadget-effect subspace — "
               "resists. Both design choices matter jointly.\n";

  bench::print_header("Ablation 2 — clip bound B_u (noise-trained attacker, eps = 2^-5)");
  util::Table clips({"mechanism", "B_u", "adaptive attack acc"});
  auto adaptive_accuracy = [&](dp::MechanismKind kind, double clip, int salt) {
    auto obf = make_obf(kind, 1.0 / 32.0, false, clip);
    auto factory = [&] { return obf->session(); };
    attack::ClassificationAttack attacker(
        db, attack::make_wfa_config(events, wfa_scale, 0xAB3 + salt));
    (void)attacker.train(secrets, factory);
    return attacker.exploit(secrets, visits, 0xAB400 + salt, factory);
  };
  for (double clip : {3.0, 6.0, 30.0, 100.0}) {
    clips.add_row({"Laplace", util::fmt_f(clip, 0) + " sigma",
                   util::fmt_pct(adaptive_accuracy(dp::MechanismKind::kLaplace,
                                                   clip, static_cast<int>(clip)))});
  }
  for (double clip : {3.0, 30.0}) {
    clips.add_row({"d*", util::fmt_f(clip, 0) + " sigma",
                   util::fmt_pct(adaptive_accuracy(dp::MechanismKind::kDStar,
                                                   clip, 40 + static_cast<int>(clip)))});
  }
  clips.print(std::cout);
  std::cout << "random guess: "
            << util::fmt_pct(1.0 / static_cast<double>(wfa_scale.sites)) << "\n";
  return 0;
}
