// Section IX-A "Constant HPC output": padding every slice of the protected
// event up to the peak value p hides the signal but injects vastly more
// noise than the Laplace mechanism.
// Paper: obfuscating DATA_CACHE_REFILLS_FROM_SYSTEM while loading
// www.youtube.com costs 595,371,616 injected counts for constant output vs
// 33,090,214 for Laplace eps=2^0 — about 18x.
#include "bench_common.hpp"
#include "obf/obfuscator.hpp"

using namespace aegis;

// aegis-rng: stream(disc-constant-output-main)
int main(int argc, char** argv) {
  const double scale = bench::scale_from_args(argc, argv);
  const std::size_t slices = bench::scaled(240, scale, 120);

  attack::WfaScale wfa_scale;
  wfa_scale.sites = bench::scaled(8, scale, 6);
  wfa_scale.slices = slices;
  auto secrets = attack::make_wfa_secrets(wfa_scale);
  bench::OfflineSetup setup(secrets, scale);
  const auto& db = setup.aegis.database();

  // The paper's example: youtube.com (site 1 in our Alexa ordering).
  std::vector<std::unique_ptr<workload::Workload>> youtube;
  youtube.push_back(std::make_unique<workload::WebsiteWorkload>(1, slices));
  const std::size_t runs = bench::scaled(10, scale, 6);

  const auto reference_cal = obf::calibrate_events(
      db, {setup.result.ranking.front().event_id}, secrets, 2, 0xC0157ULL);
  const double p_norm = reference_cal.front().peak / reference_cal.front().stddev;

  auto injected_counts = [&](dp::MechanismConfig mech) {
    auto obf = setup.aegis.make_obfuscator(setup.result, youtube, mech,
                                           core::ObfuscatorBuildOptions{}, 77);
    util::Rng rng(0xC0'57ULL);
    for (std::size_t r = 0; r < runs; ++r) {
      sim::VirtualMachine vm(sim::VmConfig{}, rng.next_u64());
      auto source = youtube[0]->visit(rng.next_u64());
      auto agent = obf->session();
      for (std::size_t t = 0; t < slices; ++t) {
        agent(vm, t);
        vm.submit(source(t));
        (void)vm.run_slice();
      }
    }
    return obf->total_injected_reference_counts();
  };

  dp::MechanismConfig laplace;
  laplace.kind = dp::MechanismKind::kLaplace;
  laplace.epsilon = 1.0;
  const double laplace_counts = injected_counts(laplace);

  dp::MechanismConfig constant;
  constant.kind = dp::MechanismKind::kConstantOutput;
  constant.constant_level = p_norm;  // pad to the peak p
  const double constant_counts = injected_counts(constant);

  bench::print_header(
      "Section IX-A — constant HPC output vs Laplace (youtube.com)");
  util::Table table({"defense", "injected reference-event counts", "ratio"});
  table.add_row({"Laplace eps=2^0",
                 util::fmt_group(static_cast<long long>(laplace_counts)), "1.00x"});
  table.add_row({"Constant output (pad to p)",
                 util::fmt_group(static_cast<long long>(constant_counts)),
                 util::fmt_f(constant_counts / std::max(laplace_counts, 1.0), 2) +
                     "x"});
  table.print(std::cout);
  std::cout << "paper: 595,371,616 vs 33,090,214 counts — constant output is "
               "an ~18x overkill defense\n";
  return 0;
}
