// Deployment flow: the offline analysis is performed ONCE on a template
// server, persisted through the service TemplateCache, and warm-started on
// the victim host to arm the Event Obfuscator (paper Fig. 2: the offline
// modules run one time and their results are applied online).
//
// This example plays both roles in one process:
//   [template server]  TemplateCache miss -> analyze -> persisted to disk
//   [victim VM]        fresh cache, same dir -> warm start, NO re-analysis
// It also demonstrates portability across family members (Table I): the
// template keyed against the EPYC 7252 warm-starts on the EPYC 7313P,
// because the cache keys on CPU *family*, not model.
#include <filesystem>
#include <iostream>

#include "util/table.hpp"

#include "attack/wfa.hpp"
#include "service/template_cache.hpp"

using namespace aegis;

int main() {
  const std::string cache_dir = "/tmp/aegis_deploy_cache";
  std::filesystem::remove_all(cache_dir);
  std::filesystem::create_directories(cache_dir);

  attack::WfaScale scale;
  scale.sites = 8;
  scale.traces_per_site = 14;
  scale.epochs = 18;
  scale.slices = 160;

  core::OfflineConfig config = core::make_quick_offline_config();
  config.fuzz_top_events = 0;

  // ---------------- template server ----------------
  {
    core::Aegis template_server(isa::CpuModel::kAmdEpyc7252);
    auto secrets = attack::make_wfa_secrets(scale);
    service::TemplateCache cache({cache_dir});
    const auto key =
        service::make_template_key(template_server.cpu(), *secrets[0], config);
    const auto analysis = cache.get_or_analyze(
        key, template_server,
        [&] { return template_server.analyze(*secrets[0], secrets, config); });
    const auto stats = cache.stats();
    std::cout << "[template] analyzed " << analysis->warmup.surviving.size()
              << " vulnerable events (" << stats.analyses_run
              << " analysis run), persisted to " << cache.disk_path(key)
              << "\n";
  }

  // ---------------- victim VM (a family sibling, cold process) ----------------
  core::Aegis victim(isa::CpuModel::kAmdEpyc7313P);
  auto secrets = attack::make_wfa_secrets(scale);
  service::TemplateCache cache({cache_dir});
  const auto key = service::make_template_key(victim.cpu(), *secrets[0], config);
  const auto analysis = cache.get_or_analyze(key, victim, [&]() {
    std::cerr << "BUG: warm start failed, re-running the offline analysis\n";
    return victim.analyze(*secrets[0], secrets, config);
  });
  const auto stats = cache.stats();
  std::cout << "[victim]   warm-started the template on "
            << isa::to_string(victim.cpu()) << " (" << stats.warm_starts
            << " disk load, " << stats.analyses_run << " analyses): "
            << analysis->cover.gadgets.size() << " cover gadgets for "
            << analysis->cover.covered_events.size() << " events\n";

  std::vector<std::uint32_t> events;
  for (auto name : pmu::kAmdAttackEvents) {
    events.push_back(*victim.database().find(name));
  }
  attack::ClassificationAttack attacker(victim.database(),
                                        attack::make_wfa_config(events, scale));
  (void)attacker.train(secrets);
  const double clean = attacker.exploit(secrets, 3, 1);

  dp::MechanismConfig mechanism;
  mechanism.kind = dp::MechanismKind::kDStar;
  mechanism.epsilon = 0.5;
  auto obfuscator = victim.make_obfuscator(*analysis, secrets, mechanism);
  const double defended =
      attacker.exploit(secrets, 3, 1, [&] { return obfuscator->session(); });

  std::cout << "[victim]   attack accuracy: " << util::fmt_pct(clean)
            << " undefended -> " << util::fmt_pct(defended)
            << " under the warm-started template (d*, eps=2^-1; random "
            << util::fmt_pct(1.0 / scale.sites) << ")\n";
  return stats.analyses_run == 0 && stats.warm_starts == 1 ? 0 : 1;
}
