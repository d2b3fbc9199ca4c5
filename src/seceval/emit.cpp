// Frontier emitters. Byte-exact determinism is part of the contract
// (golden-tested): all formatting goes through snprintf with fixed
// precision — never iostream state or locale-dependent paths — and cells
// are already canonically sorted by SecurityHarness::run.
#include "seceval/seceval.hpp"

#include <cmath>
#include <cstdio>
#include <map>
#include <ostream>

#include "pmu/backend/backend.hpp"

namespace aegis::seceval {
namespace {

std::string fixed(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, value);
  return buf;
}

std::string compact(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", value);
  return buf;
}

std::string percent(double fraction) { return fixed(100.0 * fraction, 1) + "%"; }

}  // namespace

std::string format_epsilon(double epsilon) {
  if (epsilon > 0.0) {
    const double power = std::log2(epsilon);
    const double rounded = std::nearbyint(power);
    if (std::fabs(power - rounded) < 1e-9) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "2^%d", static_cast<int>(rounded));
      return buf;
    }
  }
  return compact(epsilon);
}

void write_frontier_json(const FrontierResult& frontier,
                         const HarnessConfig& config, std::ostream& out) {
  out << "{\n";
  out << "  \"bench\": \"security_frontier\",\n";
  out << "  \"schema_version\": 2,\n";
  out << "  \"cpu\": \"" << isa::to_string(config.cpu) << "\",\n";
  out << "  \"cpu_model\": \"" << isa::to_token(config.cpu) << "\",\n";
  out << "  \"backend\": \"" << pmu::backend::backend_id(config.cpu) << "\",\n";
  out << "  \"seed\": " << config.seed << ",\n";
  out << "  \"scale\": {\n";
  out << "    \"sites\": " << config.scale.sites << ",\n";
  out << "    \"traces_per_secret\": " << config.scale.traces_per_secret
      << ",\n";
  out << "    \"slices\": " << config.scale.slices << ",\n";
  out << "    \"epochs\": " << config.scale.epochs << ",\n";
  out << "    \"visits_per_secret\": " << config.scale.visits_per_secret
      << "\n";
  out << "  },\n";
  out << "  \"cells\": [\n";
  for (std::size_t i = 0; i < frontier.cells.size(); ++i) {
    const CellResult& cell = frontier.cells[i];
    out << "    {\n";
    out << "      \"attacker\": \"" << to_string(cell.spec.attacker)
        << "\",\n";
    out << "      \"defense\": \"" << to_string(cell.spec.defense) << "\",\n";
    out << "      \"epsilon\": " << compact(cell.spec.epsilon) << ",\n";
    out << "      \"attack_accuracy\": " << fixed(cell.attack_accuracy, 4)
        << ",\n";
    out << "      \"validation_accuracy\": "
        << fixed(cell.validation_accuracy, 4) << ",\n";
    out << "      \"random_guess\": " << fixed(cell.random_guess, 4) << ",\n";
    out << "      \"injected_reps_per_slice\": "
        << fixed(cell.injected_reps_per_slice, 2) << ",\n";
    out << "      \"noise_draws\": " << cell.noise_draws << "\n";
    out << "    }" << (i + 1 < frontier.cells.size() ? "," : "") << "\n";
  }
  out << "  ]\n";
  out << "}\n";
}

void write_frontier_report(const FrontierResult& frontier,
                           const HarnessConfig& config, std::ostream& out) {
  out << "# Security frontier\n\n";
  out << "Attack accuracy on the victim VM per (attacker, defense, "
         "\xCE\xB5) cell.\n";
  out << "Generated by `bench_security`; the committed copy is the CI "
         "baseline —\n";
  out << "`scripts/bench_compare.py --security` fails the build when any "
         "cell's\n";
  out << "accuracy rises more than 2 points over it. Lower is better for "
         "the\ndefense.\n\n";
  out << "- cpu: " << isa::to_string(config.cpu) << " (backend "
      << pmu::backend::backend_id(config.cpu) << ")\n";
  out << "- seed: " << config.seed << "\n";
  out << "- scale: " << config.scale.sites << " sites, "
      << config.scale.traces_per_secret << " traces/secret, "
      << config.scale.slices << " slices, " << config.scale.epochs
      << " epochs, " << config.scale.visits_per_secret
      << " victim visits/secret\n";
  out << "- cells: " << frontier.cells.size() << "\n";

  // attacker -> defense -> epsilon -> cell (ordered maps: deterministic
  // iteration; the canonical sort already fixed intra-map order anyway).
  std::map<AttackerKind, std::map<DefenseKind, std::map<double, const CellResult*>>>
      table;
  for (const CellResult& cell : frontier.cells) {
    table[cell.spec.attacker][cell.spec.defense][cell.spec.epsilon] = &cell;
  }

  for (const auto& [attacker, by_defense] : table) {
    // Row keys: the union of ε values this attacker was run at.
    std::map<double, bool> epsilons;
    double guess = 0.0;
    for (const auto& [defense, by_eps] : by_defense) {
      for (const auto& [eps, cell] : by_eps) {
        epsilons[eps] = true;
        guess = cell->random_guess;
      }
    }
    out << "\n## " << to_string(attacker) << " (guess floor "
        << percent(guess) << ")\n\n";
    out << "| \xCE\xB5 |";
    for (const auto& [defense, by_eps] : by_defense) {
      out << " " << to_string(defense) << " |";
    }
    out << "\n|---:|";
    for (std::size_t i = 0; i < by_defense.size(); ++i) out << "---:|";
    out << "\n";
    for (const auto& [eps, present] : epsilons) {
      (void)present;
      out << "| " << format_epsilon(eps) << " |";
      for (const auto& [defense, by_eps] : by_defense) {
        const auto it = by_eps.find(eps);
        if (it == by_eps.end()) {
          out << " - |";
        } else {
          out << " " << percent(it->second->attack_accuracy) << " |";
        }
      }
      out << "\n";
    }
  }
}

}  // namespace aegis::seceval
