// Fig. 10: defense efficiency — application latency overhead (upper) and
// VM CPU usage (lower) vs epsilon, for both DP mechanisms, on the two
// heavyweight applications (website loading, DNN inference).
// Paper: at the chosen budgets (Laplace eps=2^0, d* eps=2^3) the execution
// time rises 3.18 % / 4.36 % (WFA / MEA, Laplace) and 3.94 % / 4.95 % (d*),
// with CPU usage penalties of ~7-9 %.
#include "bench_common.hpp"
#include "workload/dnn.hpp"
#include "workload/website.hpp"

using namespace aegis;

namespace {

struct RunCost {
  double completion_slices = 0.0;  // wall time to finish the application
  double cpu_usage = 0.0;          // busy fraction seen by the host's `top`
};

/// Runs one application execution to completion, with an optional in-guest
/// defense agent, on a vCPU whose slice budget makes the workload's peak
/// phases contend for the core (as a busy guest does).
RunCost run_once(const workload::Workload& app, const sim::SliceAgent& agent,
                 std::uint64_t seed, double slice_budget) {
  sim::VmConfig config;
  config.slice_budget_cycles = slice_budget;
  sim::VirtualMachine vm(config, seed);
  auto source = app.visit(seed);
  const std::size_t window = app.trace_slices();
  std::size_t t = 0;
  for (; t < window; ++t) {
    if (agent) agent(vm, t);
    vm.submit(source(t));
    (void)vm.run_slice();
  }
  // The application (and the noise interleaved into its execution flow)
  // finishes when the queued work drains.
  while (vm.pending() && t < window * 4) {
    (void)vm.run_slice();
    ++t;
  }
  return RunCost{static_cast<double>(t), vm.cpu_usage()};
}

// aegis-rng: stream(fig10-overhead-average-cost)
RunCost average_cost(const std::vector<std::unique_ptr<workload::Workload>>& apps,
                     obf::EventObfuscator* obf, std::size_t runs,
                     std::uint64_t seed, double slice_budget) {
  RunCost total;
  util::Rng rng(seed);
  std::size_t n = 0;
  for (const auto& app : apps) {
    for (std::size_t r = 0; r < runs; ++r) {
      const RunCost cost =
          run_once(*app, obf ? obf->session() : sim::SliceAgent{}, rng.next_u64(),
                   slice_budget);
      total.completion_slices += cost.completion_slices;
      total.cpu_usage += cost.cpu_usage;
      ++n;
    }
  }
  total.completion_slices /= static_cast<double>(n);
  total.cpu_usage /= static_cast<double>(n);
  return total;
}

}  // namespace

int main(int argc, char** argv) {
  const double scale = bench::scale_from_args(argc, argv);
  const std::size_t slices = bench::scaled(200, scale, 120);
  const std::size_t runs = bench::scaled(3, scale, 2);

  // Offline analysis once, against the website secret set.
  attack::WfaScale wfa_scale;
  wfa_scale.sites = bench::scaled(12, scale, 8);
  wfa_scale.slices = slices;
  auto sites = attack::make_wfa_secrets(wfa_scale);
  bench::OfflineSetup setup(sites, scale);

  std::vector<std::unique_ptr<workload::Workload>> web_apps, dnn_apps;
  for (std::size_t s = 0; s < bench::scaled(8, scale, 5); ++s) {
    web_apps.push_back(std::make_unique<workload::WebsiteWorkload>(s, slices));
  }
  for (std::size_t m = 0; m < bench::scaled(8, scale, 5); ++m) {
    dnn_apps.push_back(std::make_unique<workload::DnnWorkload>(m, slices));
  }

  // Per-guest slice budgets: sized so each application's peak phases
  // contend for the vCPU the way the paper's busy guests do.
  constexpr double kWebBudget = 70e3;
  constexpr double kDnnBudget = 40e3;
  const RunCost web_clean = average_cost(web_apps, nullptr, runs, 50, kWebBudget);
  const RunCost dnn_clean = average_cost(dnn_apps, nullptr, runs, 51, kDnnBudget);
  std::cout << "clean baseline: website load " << util::fmt_f(web_clean.completion_slices, 1)
            << " slices at " << util::fmt_pct(web_clean.cpu_usage)
            << " CPU; DNN inference " << util::fmt_f(dnn_clean.completion_slices, 1)
            << " slices at " << util::fmt_pct(dnn_clean.cpu_usage) << " CPU\n";

  bench::print_header("Fig. 10 — latency overhead and CPU usage vs epsilon");
  util::Table table({"mechanism", "epsilon", "web latency ovh", "web CPU usage ovh",
                     "dnn latency ovh", "dnn CPU usage ovh"});
  for (dp::MechanismKind kind :
       {dp::MechanismKind::kLaplace, dp::MechanismKind::kDStar}) {
    for (int p = 3; p >= -2; --p) {
      dp::MechanismConfig mech;
      mech.kind = kind;
      mech.epsilon = std::pow(2.0, p);
      auto obf = setup.aegis.make_obfuscator(setup.result, sites, mech);
      const RunCost web = average_cost(web_apps, obf.get(), runs, 60 + p, kWebBudget);
      const RunCost dnn = average_cost(dnn_apps, obf.get(), runs, 70 + p, kDnnBudget);
      const bool chosen = (kind == dp::MechanismKind::kLaplace && p == 0) ||
                          (kind == dp::MechanismKind::kDStar && p == 3);
      std::string exponent = "2^";
      exponent += std::to_string(p);
      std::string web_cpu = "+";
      web_cpu += util::fmt_f((web.cpu_usage - web_clean.cpu_usage) * 100.0, 2);
      web_cpu += " pts";
      std::string dnn_cpu = "+";
      dnn_cpu += util::fmt_f((dnn.cpu_usage - dnn_clean.cpu_usage) * 100.0, 2);
      dnn_cpu += " pts";
      table.add_row(
          {std::string(dp::to_string(kind)) + (chosen ? " *" : ""), exponent,
           util::fmt_pct(web.completion_slices / web_clean.completion_slices - 1.0),
           web_cpu,
           util::fmt_pct(dnn.completion_slices / dnn_clean.completion_slices - 1.0),
           dnn_cpu});
    }
  }
  table.print(std::cout);
  std::cout << "* = the paper's selected operating points (Laplace eps=2^0, "
               "d* eps=2^3).\npaper: latency +3.18 %/+4.36 % (Laplace, "
               "web/DNN), +3.94 %/+4.95 % (d*); CPU +6.92 %/+7.87 % "
               "(Laplace), +7.64 %/+8.66 % (d*); smaller epsilon -> more "
               "overhead; d* costs more than Laplace at equal epsilon\n";
  return 0;
}
