#include "fuzzer/filtering.hpp"

#include <map>
#include <tuple>

namespace aegis::fuzzer {

FilterOutcome filter_gadgets(const std::vector<ConfirmedGadget>& confirmed,
                             const isa::IsaSpecification& spec) {
  using ClusterKey = std::tuple<isa::Extension, isa::Category, isa::Extension,
                                isa::Category>;
  FilterOutcome outcome;
  std::map<ClusterKey, std::uint32_t> clusters;
  for (std::uint32_t i = 0; i < confirmed.size(); ++i) {
    const ConfirmedGadget& g = confirmed[i];
    const isa::InstructionVariant& reset = spec.by_uid(g.gadget.reset_uid);
    const isa::InstructionVariant& trigger = spec.by_uid(g.gadget.trigger_uid);
    const ClusterKey key{reset.extension, reset.category, trigger.extension,
                         trigger.category};
    auto [it, inserted] = clusters.emplace(key, i);
    if (!inserted && g.median_delta > confirmed[it->second].median_delta) {
      it->second = i;
    }
    if (g.median_delta > outcome.best.median_delta) outcome.best = g;
  }
  outcome.clusters = clusters.size();
  outcome.representatives.reserve(clusters.size());
  for (const auto& [key, i] : clusters) outcome.representatives.push_back(i);
  return outcome;
}

}  // namespace aegis::fuzzer
