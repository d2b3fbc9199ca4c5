// The MLP's one matrix-product kernel (DESIGN.md, "MLP training engine").
//
// mlp_kernel.cpp is compiled twice: once with the library's own flags
// (tiled_product_baseline) and, on x86-64, once more with
// -mavx2 -mno-fma -ffp-contract=off (tiled_product_avx2). Every output cell
// adds its terms in the same order in both builds and lanes never combine,
// so the two give the same bits; MlpClassifier picks one at load time.
#pragma once

#include <cstddef>

namespace aegis::ml::kernel {

/// out = init + left · right for a rows x cols result, where left element
/// (r, k) sits at left[r * left_row + k * left_k] and right is depth x cols,
/// row-major. Every cell starts from init[c] (or 0.0) and adds its terms in
/// ascending k — the order a scalar loop over that one cell would use.
struct Product {
  const double* left;
  std::size_t left_row, left_k;
  const double* right;
  const double* init;  // cols values, or nullptr for 0.0
  double* out;
  std::size_t rows, depth, cols;
};

/// Built with the library's flags: runs wherever the library runs.
void tiled_product_baseline(const Product& p);

#if defined(__x86_64__)
/// The same source built for AVX2 without FMA. Call it only on a CPU where
/// __builtin_cpu_supports("avx2") holds.
void tiled_product_avx2(const Product& p);
#endif

}  // namespace aegis::ml::kernel
