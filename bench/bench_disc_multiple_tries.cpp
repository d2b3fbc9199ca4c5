// Section IX-B "Analysis with Multiple Tries": an attacker who can force
// the victim to repeat the SAME secret many times can average the traces
// and cancel zero-mean injected noise. The paper's countermeasure: attach a
// constant secret-dependent noise component, which survives averaging and
// keeps the secrets confounded.
#include "bench_common.hpp"
#include "obf/injector.hpp"

using namespace aegis;

namespace {

/// Averages N defended traces of the same secret into one trace.
// aegis-rng: stream(disc-multiple-tries-averaged-trace)
trace::Trace averaged_trace(const pmu::EventDatabase& db,
                            const workload::Workload& secret,
                            const attack::CollectionConfig& config,
                            std::size_t tries, util::Rng& rng,
                            const attack::AgentFactory& factory) {
  trace::Trace avg;
  for (std::size_t i = 0; i < tries; ++i) {
    const trace::Trace t = attack::collect_one(
        db, secret, config, rng.next_u64(), factory ? factory() : sim::SliceAgent{});
    if (avg.samples.empty()) {
      avg.samples.assign(t.slices(), std::vector<double>(t.events(), 0.0));
    }
    for (std::size_t s = 0; s < t.slices(); ++s) {
      for (std::size_t e = 0; e < t.events(); ++e) {
        avg.samples[s][e] += t.samples[s][e] / static_cast<double>(tries);
      }
    }
  }
  return avg;
}

}  // namespace

// aegis-rng: stream(disc-multiple-tries-main)
int main(int argc, char** argv) {
  const double scale = bench::scale_from_args(argc, argv);
  const std::size_t slices = bench::scaled(180, scale, 100);

  attack::WfaScale wfa_scale;
  wfa_scale.sites = bench::scaled(10, scale, 6);
  wfa_scale.traces_per_site = bench::scaled(16, scale, 10);
  wfa_scale.epochs = bench::scaled(20, scale, 12);
  wfa_scale.slices = slices;
  auto secrets = attack::make_wfa_secrets(wfa_scale);
  bench::OfflineSetup setup(secrets, scale);
  const auto& db = setup.aegis.database();
  const auto events = bench::attack_events(db.model());

  attack::CollectionConfig collect;
  collect.event_ids = events;
  const std::size_t tries = bench::scaled(12, scale, 8);
  const std::size_t probes = bench::scaled(3, scale, 2);

  dp::MechanismConfig mech;
  mech.kind = dp::MechanismKind::kLaplace;
  mech.epsilon = 0.25;
  auto obf = setup.aegis.make_obfuscator(setup.result, secrets, mech);

  // The Section IX-B attacker knows the defense: he trains on defended
  // template traces (without the victim's secret-keyed constant, which he
  // cannot reproduce), then averages many victim traces of one secret.
  attack::ClassificationAttack wfa(db, attack::make_wfa_config(events, wfa_scale));
  (void)wfa.train(secrets, [&] { return obf->session(); });

  // A per-secret constant noise floor: the countermeasure. Realized as a
  // fixed extra repetition count of the cover segment per slice, keyed by
  // the secret actually running in the VM. The constant stacks the cover
  // gadgets at unit weight.
  std::vector<obf::WeightedGadget> cover_segment;
  for (const fuzzer::Gadget& g : setup.result.cover.gadgets) {
    cover_segment.push_back({g, 1.0});
  }
  auto defended_factory = [&](std::size_t secret_id, bool with_constant) {
    return [&, secret_id, with_constant]() -> sim::SliceAgent {
      sim::SliceAgent base = obf->session();
      if (!with_constant) return base;
      const double constant_norm =
          2.0 + 1.5 * static_cast<double>((secret_id * 2654435761u) % 5);
      auto injector = std::make_shared<obf::NoiseInjector>(
          setup.aegis.specification(), cover_segment,
          obf->config().segment.unit_reps, obf->config().options.clip_sigma);
      return [base, injector, constant_norm](sim::VirtualMachine& vm,
                                             std::size_t t) {
        base(vm, t);
        (void)injector->inject(vm, constant_norm);
      };
    };
  };

  auto averaged_accuracy = [&](bool with_constant) {
    util::Rng rng(0x517'B0ULL + (with_constant ? 1 : 0));
    std::size_t correct = 0, total = 0;
    for (std::size_t s = 0; s < secrets.size(); ++s) {
      for (std::size_t probe = 0; probe < probes; ++probe) {
        const trace::Trace avg =
            averaged_trace(db, *secrets[s], collect, tries, rng,
                           defended_factory(s, with_constant));
        if (wfa.predict(avg) == static_cast<int>(s)) ++correct;
        ++total;
      }
    }
    return static_cast<double>(correct) / static_cast<double>(total);
  };

  bench::print_header("Section IX-B — trace-averaging attacker (multiple tries)");
  const double single = wfa.exploit(secrets, probes, 1200,
                                    [&] { return obf->session(); });
  const double averaged = averaged_accuracy(false);
  const double averaged_vs_constant = averaged_accuracy(true);
  util::Table table({"attacker capability", "defense", "attack acc"});
  table.add_row({"single trace", "Laplace eps=2^-2", util::fmt_pct(single)});
  table.add_row({std::to_string(tries) + "-trace average", "Laplace eps=2^-2",
                 util::fmt_pct(averaged)});
  table.add_row({std::to_string(tries) + "-trace average",
                 "Laplace + secret-dependent constant",
                 util::fmt_pct(averaged_vs_constant)});
  table.print(std::cout);
  std::cout << "paper shape: averaging cancels zero-mean noise and restores "
               "accuracy; the constant secret-dependent component defeats "
               "the averaging attacker\n";
  return 0;
}
