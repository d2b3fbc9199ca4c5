#include "fuzzer/set_cover.hpp"

#include <algorithm>
#include <iterator>
#include <numeric>
#include <utility>
#include <vector>

namespace aegis::fuzzer {

namespace {

/// Gadget key order: reset uid, then trigger uid.
std::uint64_t key(const Gadget& g) {
  return (std::uint64_t{g.reset_uid} << 32) | g.trigger_uid;
}

bool key_less(const Gadget& a, const Gadget& b) { return key(a) < key(b); }

/// The confirmed (gadget, event) pairs, read in place from the reports.
/// Event k is the k-th sorted covered event; its pairs are the confirmed
/// lists of its reports (usually one), concatenated in report order and
/// addressed by one 4-byte index each. Each event's indices are sorted by
/// gadget key, so a walk visits the event's gadgets in key order.
class PairViews {
 public:
  PairViews(const FuzzResult& result, const std::vector<std::uint32_t>& covered)
      : result_(&result), report_begin_(covered.size() + 1, 0),
        view_begin_(covered.size() + 1, 0) {
    // Reports with pairs, grouped by event; report order within an event.
    for (std::uint32_t r = 0; r < result.reports.size(); ++r) {
      if (!result.reports[r].confirmed.empty()) reports_.push_back(r);
    }
    std::stable_sort(reports_.begin(), reports_.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                       return result.reports[a].event_id <
                              result.reports[b].event_id;
                     });
    for (const std::uint32_t r : reports_) {
      const EventFuzzReport& report = result.reports[r];
      const auto k = static_cast<std::size_t>(
          std::lower_bound(covered.begin(), covered.end(), report.event_id) -
          covered.begin());
      ++report_begin_[k + 1];
      view_begin_[k + 1] += report.confirmed.size();
    }
    for (std::size_t k = 0; k < covered.size(); ++k) {
      report_begin_[k + 1] += report_begin_[k];
      view_begin_[k + 1] += view_begin_[k];
    }

    view_.resize(view_begin_.back());
    for (std::size_t k = 0; k < covered.size(); ++k) {
      const auto first = view_.begin() + static_cast<std::ptrdiff_t>(view_begin_[k]);
      const auto last = view_.begin() + static_cast<std::ptrdiff_t>(view_begin_[k + 1]);
      std::iota(first, last, std::uint32_t{0});
      std::sort(first, last, [&](std::uint32_t a, std::uint32_t b) {
        return key_less(record(k, a).gadget, record(k, b).gadget);
      });
    }
  }

  /// Calls fn(gadget, delta) for each distinct gadget of event k, in
  /// ascending key order. A gadget confirmed more than once for the event
  /// gets its largest delta; every delta is floored at 0.
  template <class Fn>
  void for_each(std::size_t k, Fn&& fn) const {
    const std::uint32_t* it = view_.data() + view_begin_[k];
    const std::uint32_t* const end = view_.data() + view_begin_[k + 1];
    while (it != end) {
      const Gadget gadget = record(k, *it).gadget;
      double delta = 0.0;
      for (; it != end && record(k, *it).gadget == gadget; ++it) {
        delta = std::max(delta, record(k, *it).median_delta);
      }
      fn(gadget, delta);
    }
  }

  /// True if some pair of event k has this gadget.
  bool contains(std::size_t k, const Gadget& gadget) const {
    const std::uint32_t* const first = view_.data() + view_begin_[k];
    const std::uint32_t* const last = view_.data() + view_begin_[k + 1];
    const std::uint32_t* it = std::lower_bound(
        first, last, gadget, [&](std::uint32_t i, const Gadget& g) {
          return key_less(record(k, i).gadget, g);
        });
    return it != last && record(k, *it).gadget == gadget;
  }

 private:
  const ConfirmedGadget& record(std::size_t k, std::uint32_t i) const {
    for (std::size_t r = report_begin_[k];; ++r) {
      const std::vector<ConfirmedGadget>& confirmed =
          result_->reports[reports_[r]].confirmed;
      if (i < confirmed.size()) return confirmed[i];
      i -= static_cast<std::uint32_t>(confirmed.size());
    }
  }

  const FuzzResult* result_;
  std::vector<std::uint32_t> reports_;     // report indices, grouped by event
  std::vector<std::size_t> report_begin_;  // per event: its first in reports_
  std::vector<std::uint32_t> view_;        // per event: indices by gadget key
  std::vector<std::size_t> view_begin_;    // per event: its first in view_
};

/// Index of `gadget` in the sorted distinct keys, at or after `from`: an
/// exponential search, since an event's next gadget is usually close.
std::size_t find_key(const std::vector<Gadget>& keys, std::size_t from,
                     const Gadget& gadget) {
  std::size_t lo = from;
  std::size_t hi = from;
  for (std::size_t step = 1; hi < keys.size() && key_less(keys[hi], gadget);
       step *= 2) {
    lo = hi + 1;
    hi += step;
  }
  return static_cast<std::size_t>(
      std::lower_bound(keys.begin() + static_cast<std::ptrdiff_t>(lo),
                       keys.begin() + static_cast<std::ptrdiff_t>(
                                          std::min(hi, keys.size())),
                       gadget, key_less) -
      keys.begin());
}

}  // namespace

GadgetCover minimal_gadget_cover(const FuzzResult& result) {
  GadgetCover cover;

  for (const EventFuzzReport& report : result.reports) {
    if (report.confirmed.empty()) {
      cover.uncovered_events.push_back(report.event_id);
    } else {
      cover.covered_events.push_back(report.event_id);
    }
  }
  std::vector<std::uint32_t>& covered = cover.covered_events;
  std::sort(covered.begin(), covered.end());
  covered.erase(std::unique(covered.begin(), covered.end()), covered.end());
  const PairViews pairs(result, covered);

  // The greedy candidates: every distinct confirmed gadget, in key order.
  std::vector<Gadget> keys;
  {
    std::vector<Gadget> event_keys;
    std::vector<Gadget> merged;
    for (std::size_t k = 0; k < covered.size(); ++k) {
      event_keys.clear();
      pairs.for_each(k, [&](const Gadget& g, double) { event_keys.push_back(g); });
      merged.clear();
      std::set_union(keys.begin(), keys.end(), event_keys.begin(),
                     event_keys.end(), std::back_inserter(merged), key_less);
      keys.swap(merged);
    }
  }

  std::vector<char> uncovered(covered.size(), 1);
  std::vector<char> chosen(keys.size(), 0);
  std::vector<std::uint32_t> newly(keys.size());
  std::vector<double> delta(keys.size());
  for (;;) {
    // Each candidate's still-uncovered events and their summed delta, the
    // events visited in ascending order — a fixed floating-point order.
    std::fill(newly.begin(), newly.end(), 0U);
    std::fill(delta.begin(), delta.end(), 0.0);
    for (std::size_t k = 0; k < covered.size(); ++k) {
      if (uncovered[k] == 0) continue;
      std::size_t c = 0;
      pairs.for_each(k, [&](const Gadget& g, double d) {
        c = find_key(keys, c, g);
        ++newly[c];
        delta[c] += d;
      });
    }
    // Pick the gadget covering the most still-uncovered events; break ties
    // by total delta (stronger disturbance preferred), then by lowest
    // gadget key (scan order + strict improvement), so the cover does not
    // depend on report or record order. Done when no gadget covers
    // anything new.
    std::size_t best = keys.size();
    std::uint32_t best_newly = 0;
    double best_delta = 0.0;
    for (std::size_t c = 0; c < keys.size(); ++c) {
      if (newly[c] > best_newly ||
          (newly[c] == best_newly && newly[c] > 0 && delta[c] > best_delta)) {
        best = c;
        best_newly = newly[c];
        best_delta = delta[c];
      }
    }
    if (best_newly == 0) break;
    chosen[best] = 1;
    cover.gadgets.push_back(keys[best]);
    for (std::size_t k = 0; k < covered.size(); ++k) {
      if (uncovered[k] != 0 && pairs.contains(k, keys[best])) uncovered[k] = 0;
    }
  }

  // Segment effect: executing every chosen gadget once sums their deltas,
  // each event's sum taken in gadget-key order — a fixed floating-point
  // evaluation order.
  cover.segment_effect.reserve(covered.size());
  for (std::size_t k = 0; k < covered.size(); ++k) {
    double segment = 0.0;
    std::size_t c = 0;
    pairs.for_each(k, [&](const Gadget& g, double d) {
      c = find_key(keys, c, g);
      if (chosen[c] != 0) segment += d;
    });
    cover.segment_effect.emplace_back(covered[k], segment);
  }
  return cover;
}

}  // namespace aegis::fuzzer
