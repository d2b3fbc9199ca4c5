#include "ml/metrics.hpp"

#include <algorithm>

namespace aegis::ml {

std::size_t edit_distance(std::span<const int> a, std::span<const int> b) {
  const std::size_t n = a.size(), m = b.size();
  std::vector<std::size_t> prev(m + 1), cur(m + 1);
  for (std::size_t j = 0; j <= m; ++j) prev[j] = j;
  for (std::size_t i = 1; i <= n; ++i) {
    cur[0] = i;
    for (std::size_t j = 1; j <= m; ++j) {
      const std::size_t sub = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
    }
    std::swap(prev, cur);
  }
  return prev[m];
}

double sequence_match_accuracy(std::span<const int> reference,
                               std::span<const int> hypothesis) {
  const std::size_t denom = std::max(reference.size(), hypothesis.size());
  if (denom == 0) return 1.0;
  const std::size_t ed = edit_distance(reference, hypothesis);
  return 1.0 - static_cast<double>(ed) / static_cast<double>(denom);
}

std::vector<int> ctc_collapse(std::span<const int> frames, int blank) {
  std::vector<int> out;
  int prev = blank;
  for (int f : frames) {
    if (f != blank && f != prev) out.push_back(f);
    prev = f;
  }
  return out;
}

}  // namespace aegis::ml
