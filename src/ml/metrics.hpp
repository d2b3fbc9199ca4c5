// Classification and sequence metrics.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace aegis::ml {

/// Levenshtein edit distance between two label sequences.
std::size_t edit_distance(std::span<const int> a, std::span<const int> b);

/// The paper's MEA "matched layers" metric: 1 - ED / max(|ref|, |hyp|).
double sequence_match_accuracy(std::span<const int> reference,
                               std::span<const int> hypothesis);

/// CTC-style collapse: merges runs of identical labels and removes `blank`.
std::vector<int> ctc_collapse(std::span<const int> frames, int blank);

}  // namespace aegis::ml
