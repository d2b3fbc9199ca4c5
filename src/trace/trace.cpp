#include "trace/trace.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <utility>

namespace aegis::trace {

std::vector<double> Trace::event_series(std::size_t e) const {
  std::vector<double> series;
  series.reserve(samples.size());
  for (const auto& row : samples) series.push_back(row.at(e));
  return series;
}

double Trace::event_total(std::size_t e) const noexcept {
  double total = 0.0;
  for (const auto& row : samples) total += row[e];
  return total;
}

std::vector<double> Trace::window_features(std::size_t windows,
                                           bool pad) const {
  WindowPooler pooler(events(), slices(), windows, pad);
  for (std::size_t t = 0; t < slices(); ++t) pooler.add(t, samples[t]);
  return std::move(pooler).features();
}

WindowPooler::WindowPooler(std::size_t events, std::size_t slices,
                           std::size_t windows, bool pad)
    : events_(events),
      slices_(slices),
      windows_(slices == 0 ? 0 : (windows > slices && !pad ? slices : windows)),
      sums_(events_ * windows_, 0.0),
      counts_(windows_, 0.0) {}

void WindowPooler::add(std::size_t t, std::span<const double> row) noexcept {
  if (windows_ == 0) return;
  std::size_t w = t * windows_ / slices_;
  if (w >= windows_) w = windows_ - 1;
  counts_[w] += 1.0;
  for (std::size_t e = 0; e < events_; ++e) sums_[e * windows_ + w] += row[e];
}

std::vector<double> WindowPooler::features() && {
  std::vector<double> features = std::move(sums_);
  for (std::size_t e = 0; e < events_; ++e) {
    for (std::size_t w = 0; w < windows_; ++w) {
      if (counts_[w] > 0.0) features[e * windows_ + w] /= counts_[w];
    }
  }
  return features;
}

std::vector<double> Trace::sorted_window_features(std::size_t windows,
                                                  bool pad) const {
  std::vector<double> features = window_features(windows, pad);
  const std::size_t E = events();
  if (E == 0) return features;
  const std::size_t w = features.size() / E;
  for (std::size_t e = 0; e < E; ++e) {
    auto first = features.begin() + static_cast<std::ptrdiff_t>(e * w);
    std::sort(first, first + static_cast<std::ptrdiff_t>(w),
              [](double a, double b) { return a > b; });
  }
  return features;
}

// aegis-rng: stream(trace-split)
void TraceSet::split(double train_fraction, util::Rng& rng, TraceSet& train,
                     TraceSet& validation) const {
  std::vector<std::size_t> order(traces.size());
  std::iota(order.begin(), order.end(), 0);
  rng.shuffle(order);
  const std::size_t n_train =
      static_cast<std::size_t>(train_fraction * static_cast<double>(order.size()));
  train = TraceSet{};
  validation = TraceSet{};
  train.num_classes = num_classes;
  validation.num_classes = num_classes;
  for (std::size_t i = 0; i < order.size(); ++i) {
    TraceSet& dst = i < n_train ? train : validation;
    dst.traces.push_back(traces[order[i]]);
    dst.labels.push_back(labels[order[i]]);
  }
}

std::vector<std::size_t> split_order_by_id(std::size_t n, std::uint64_t seed) {
  std::vector<std::pair<std::uint64_t, std::size_t>> keyed;
  keyed.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    keyed.emplace_back(util::split_mix64(seed, i), i);
  }
  std::sort(keyed.begin(), keyed.end());
  std::vector<std::size_t> order;
  order.reserve(n);
  for (const auto& [key, i] : keyed) order.push_back(i);
  return order;
}

void TraceSet::split_by_id(double train_fraction, std::uint64_t seed,
                           TraceSet& train, TraceSet& validation) const {
  const std::vector<std::size_t> order = split_order_by_id(traces.size(), seed);
  const std::size_t n_train =
      static_cast<std::size_t>(train_fraction * static_cast<double>(order.size()));
  train = TraceSet{};
  validation = TraceSet{};
  train.num_classes = num_classes;
  validation.num_classes = num_classes;
  for (std::size_t i = 0; i < order.size(); ++i) {
    TraceSet& dst = i < n_train ? train : validation;
    dst.traces.push_back(traces[order[i]]);
    dst.labels.push_back(labels[order[i]]);
  }
}

void Standardizer::fit(const std::vector<std::vector<double>>& features) {
  if (features.empty()) throw std::invalid_argument("Standardizer: empty fit set");
  const std::size_t d = features.front().size();
  mu_.assign(d, 0.0);
  sigma_.assign(d, 0.0);
  for (const auto& f : features) {
    for (std::size_t i = 0; i < d; ++i) mu_[i] += f[i];
  }
  const double n = static_cast<double>(features.size());
  for (double& m : mu_) m /= n;
  for (const auto& f : features) {
    for (std::size_t i = 0; i < d; ++i) {
      const double diff = f[i] - mu_[i];
      sigma_[i] += diff * diff;
    }
  }
  for (double& s : sigma_) s = std::sqrt(s / n);
}

void Standardizer::apply(std::vector<double>& feature) const {
  for (std::size_t i = 0; i < feature.size() && i < mu_.size(); ++i) {
    feature[i] = sigma_[i] > 1e-12 ? (feature[i] - mu_[i]) / sigma_[i] : 0.0;
  }
}

void Standardizer::apply_all(std::vector<std::vector<double>>& features) const {
  for (auto& f : features) apply(f);
}

}  // namespace aegis::trace
