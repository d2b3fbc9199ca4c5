#include "ml/sequence_model.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <span>
#include <stdexcept>

namespace aegis::ml {

FrameSequenceModel::FrameSequenceModel(SequenceModelConfig config)
    : config_(std::move(config)) {}

std::size_t FrameSequenceModel::window_width(const FrameSequence& seq) const {
  const std::size_t E = seq.frames.empty() ? 0 : seq.frames.front().size();
  for (const auto& frame : seq.frames) {
    if (frame.size() != E) {
      throw std::invalid_argument("FrameSequenceModel: ragged frames");
    }
  }
  return (2 * config_.context + 1) * E;
}

void FrameSequenceModel::write_window(const FrameSequence& seq, std::size_t t,
                                      double* out) const {
  const std::size_t T = seq.frames.size();
  const std::size_t ctx = config_.context;
  for (std::ptrdiff_t off = -static_cast<std::ptrdiff_t>(ctx);
       off <= static_cast<std::ptrdiff_t>(ctx); ++off) {
    std::ptrdiff_t idx = static_cast<std::ptrdiff_t>(t) + off;
    idx = std::clamp<std::ptrdiff_t>(idx, 0, static_cast<std::ptrdiff_t>(T) - 1);
    const auto& frame = seq.frames[static_cast<std::size_t>(idx)];
    out = std::copy(frame.begin(), frame.end(), out);
  }
}

std::vector<EpochStats> FrameSequenceModel::fit(
    const std::vector<FrameSequence>& train, const std::vector<FrameSequence>& val,
    int num_labels) {
  if (train.empty()) throw std::invalid_argument("FrameSequenceModel::fit: empty");
  num_labels_ = num_labels;
  FeatureMatrix X, X_val;
  Labels y, y_val;
  auto collect = [&](const std::vector<FrameSequence>& seqs, FeatureMatrix& Xo,
                     Labels& yo) {
    for (const auto& seq : seqs) {
      if (seq.labels.size() != seq.frames.size()) {
        throw std::invalid_argument("FrameSequenceModel: unaligned labels");
      }
      const std::size_t width = window_width(seq);
      for (std::size_t t = 0; t < seq.frames.size(); ++t) {
        write_window(seq, t, Xo.emplace_back(width).data());
        yo.push_back(seq.labels[t]);
      }
    }
  };
  collect(train, X, y);
  collect(val, X_val, y_val);
  if (X.empty()) {
    throw std::invalid_argument("FrameSequenceModel::fit: no training frames");
  }
  frame_classifier_ = std::make_unique<MlpClassifier>(
      X.front().size(), static_cast<std::size_t>(num_labels_), config_.mlp);
  return frame_classifier_->fit(X, y, X_val, y_val);
}

std::vector<double> FrameSequenceModel::frame_posteriors(
    const FrameSequence& seq) const {
  if (!frame_classifier_) throw std::logic_error("FrameSequenceModel: not fitted");
  const std::size_t T = seq.frames.size();
  const std::size_t width = window_width(seq);
  std::vector<double> windows(T * width);
  for (std::size_t t = 0; t < T; ++t) write_window(seq, t, windows.data() + t * width);
  std::vector<double> post(T * frame_classifier_->num_classes());
  frame_classifier_->predict_proba_rows(windows, post);
  return post;
}

std::vector<int> FrameSequenceModel::decode_greedy(const FrameSequence& seq) const {
  const auto post = frame_posteriors(seq);
  const std::size_t L = frame_classifier_->num_classes();
  std::vector<int> frames;
  frames.reserve(post.size() / L);
  for (std::size_t t = 0; t < post.size() / L; ++t) {
    const std::span<const double> p(&post[t * L], L);
    frames.push_back(
        static_cast<int>(std::max_element(p.begin(), p.end()) - p.begin()));
  }
  return ctc_collapse(frames, config_.blank_label);
}

std::vector<int> FrameSequenceModel::decode_beam(const FrameSequence& seq) const {
  // Standard CTC prefix beam search with separate blank/non-blank mass.
  const auto post = frame_posteriors(seq);
  const std::size_t L = frame_classifier_->num_classes();
  const int blank = config_.blank_label;

  struct Mass {
    double p_blank = 0.0;     // prefix prob, path ending in blank
    double p_nonblank = 0.0;  // prefix prob, path ending in last symbol
    double total() const { return p_blank + p_nonblank; }
  };
  std::map<std::vector<int>, Mass> beams;
  beams[{}] = Mass{1.0, 0.0};

  for (std::size_t t = 0; t < post.size() / L; ++t) {
    const std::span<const double> p(&post[t * L], L);
    std::map<std::vector<int>, Mass> next;
    for (const auto& [prefix, mass] : beams) {
      for (int s = 0; s < static_cast<int>(L); ++s) {
        const double ps = p[static_cast<std::size_t>(s)];
        if (ps < 1e-6) continue;
        if (s == blank) {
          next[prefix].p_blank += ps * mass.total();
        } else if (!prefix.empty() && prefix.back() == s) {
          // Repeat of the last symbol: extends the same prefix only from
          // the non-blank path; a new occurrence needs a blank in between.
          next[prefix].p_nonblank += ps * mass.p_nonblank;
          std::vector<int> extended = prefix;
          extended.push_back(s);
          next[extended].p_nonblank += ps * mass.p_blank;
        } else {
          std::vector<int> extended = prefix;
          extended.push_back(s);
          next[extended].p_nonblank += ps * mass.total();
        }
      }
    }
    // Keep the top beam_width prefixes.
    std::vector<std::pair<double, std::vector<int>>> ranked;
    ranked.reserve(next.size());
    for (auto& [prefix, mass] : next) ranked.emplace_back(mass.total(), prefix);
    std::sort(ranked.begin(), ranked.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    beams.clear();
    double renorm = 0.0;
    for (std::size_t i = 0; i < ranked.size() && i < config_.beam_width; ++i) {
      renorm += ranked[i].first;
    }
    if (renorm <= 0.0) renorm = 1.0;
    for (std::size_t i = 0; i < ranked.size() && i < config_.beam_width; ++i) {
      Mass m = next[ranked[i].second];
      m.p_blank /= renorm;
      m.p_nonblank /= renorm;
      beams[ranked[i].second] = m;
    }
  }

  const std::vector<int>* best = nullptr;
  double best_mass = -1.0;
  for (const auto& [prefix, mass] : beams) {
    if (mass.total() > best_mass) {
      best_mass = mass.total();
      best = &prefix;
    }
  }
  return best ? *best : std::vector<int>{};
}

double FrameSequenceModel::evaluate(
    const std::vector<FrameSequence>& sequences,
    const std::vector<std::vector<int>>& references) const {
  if (sequences.size() != references.size() || sequences.empty()) {
    throw std::invalid_argument("FrameSequenceModel::evaluate: size mismatch");
  }
  double total = 0.0;
  for (std::size_t i = 0; i < sequences.size(); ++i) {
    const std::vector<int> hyp = decode_beam(sequences[i]);
    total += sequence_match_accuracy(references[i], hyp);
  }
  return total / static_cast<double>(sequences.size());
}

}  // namespace aegis::ml
