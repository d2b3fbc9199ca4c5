#include "fuzzer/set_cover.hpp"

#include <algorithm>
#include <tuple>
#include <utility>
#include <vector>

namespace aegis::fuzzer {

namespace {

/// One confirmed (gadget, event) pair, the event given by its index in the
/// sorted covered events. The greedy input is a flat list of these sorted
/// by (reset_uid, trigger_uid, event): each gadget's effects form one
/// contiguous, event-sorted run, and the runs are in gadget-key order. The
/// greedy loop scans candidates in that order and replaces the incumbent
/// only on a STRICT improvement, so every tie — same coverage, same total
/// delta — resolves to the lowest gadget key regardless of report
/// insertion order, and every delta sum has a fixed floating-point
/// evaluation order.
struct Effect {
  Gadget gadget;
  std::uint32_t event = 0;
  double delta = 0.0;
};

bool effect_less(const Effect& a, const Effect& b) {
  return std::tie(a.gadget.reset_uid, a.gadget.trigger_uid, a.event) <
         std::tie(b.gadget.reset_uid, b.gadget.trigger_uid, b.event);
}

/// One greedy candidate: a gadget and its run [begin, end) of effects.
struct Candidate {
  Gadget gadget;
  std::size_t begin = 0;
  std::size_t end = 0;
};

}  // namespace

GadgetCover minimal_gadget_cover(const FuzzResult& result) {
  GadgetCover cover;

  std::size_t pairs = 0;
  for (const EventFuzzReport& report : result.reports) {
    if (report.confirmed.empty()) {
      cover.uncovered_events.push_back(report.event_id);
    } else {
      cover.covered_events.push_back(report.event_id);
      pairs += report.confirmed.size();
    }
  }
  std::vector<std::uint32_t>& covered = cover.covered_events;
  std::sort(covered.begin(), covered.end());
  covered.erase(std::unique(covered.begin(), covered.end()), covered.end());

  std::vector<Effect> effects;
  effects.reserve(pairs);
  for (const EventFuzzReport& report : result.reports) {
    const auto event = static_cast<std::uint32_t>(
        std::lower_bound(covered.begin(), covered.end(), report.event_id) -
        covered.begin());
    for (const ConfirmedGadget& g : report.confirmed) {
      effects.push_back(Effect{g.gadget, event, g.median_delta});
    }
  }

  // Sort, then collapse each equal (gadget, event) run to its largest
  // delta (floored at 0) and cut the list into per-gadget candidates.
  std::sort(effects.begin(), effects.end(), effect_less);
  std::vector<Candidate> candidates;
  std::size_t kept = 0;
  for (std::size_t i = 0; i < effects.size();) {
    Effect e = effects[i];
    e.delta = 0.0;
    for (; i < effects.size() && !effect_less(e, effects[i]); ++i) {
      e.delta = std::max(e.delta, effects[i].delta);
    }
    if (candidates.empty() || !(candidates.back().gadget == e.gadget)) {
      candidates.push_back(Candidate{e.gadget, kept, kept});
    }
    effects[kept++] = e;
    candidates.back().end = kept;
  }
  effects.resize(kept);

  std::vector<char> uncovered(covered.size(), 1);
  std::vector<char> chosen(candidates.size(), 0);
  for (;;) {
    // Pick the gadget covering the most still-uncovered events; break ties
    // by total delta (stronger disturbance preferred), then by lowest
    // gadget key (scan order + strict improvement). Done when no gadget
    // covers anything new.
    std::size_t best = candidates.size();
    std::size_t best_newly = 0;
    double best_delta = 0.0;
    for (std::size_t c = 0; c < candidates.size(); ++c) {
      std::size_t newly = 0;
      double delta = 0.0;
      for (std::size_t i = candidates[c].begin; i < candidates[c].end; ++i) {
        if (uncovered[effects[i].event] != 0) {
          ++newly;
          delta += effects[i].delta;
        }
      }
      if (newly > best_newly ||
          (newly == best_newly && newly > 0 && delta > best_delta)) {
        best = c;
        best_newly = newly;
        best_delta = delta;
      }
    }
    if (best_newly == 0) break;
    chosen[best] = 1;
    cover.gadgets.push_back(candidates[best].gadget);
    for (std::size_t i = candidates[best].begin; i < candidates[best].end;
         ++i) {
      uncovered[effects[i].event] = 0;
    }
  }

  // Segment effect: executing every chosen gadget once sums their deltas,
  // accumulated in gadget-key order over event-sorted runs — a fixed
  // floating-point evaluation order.
  std::vector<double> segment(uncovered.size(), 0.0);
  for (std::size_t c = 0; c < candidates.size(); ++c) {
    if (chosen[c] == 0) continue;
    for (std::size_t i = candidates[c].begin; i < candidates[c].end; ++i) {
      segment[effects[i].event] += effects[i].delta;
    }
  }
  cover.segment_effect.reserve(segment.size());
  for (std::size_t k = 0; k < segment.size(); ++k) {
    cover.segment_effect.emplace_back(covered[k], segment[k]);
  }
  return cover;
}

}  // namespace aegis::fuzzer
