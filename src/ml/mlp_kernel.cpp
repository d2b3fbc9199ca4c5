// Compiled twice (src/CMakeLists.txt): as part of the library, defining
// tiled_product_baseline, and with AEGIS_MLP_KERNEL_AVX2 and
// -mavx2 -mno-fma -ffp-contract=off, defining tiled_product_avx2.
//
// The AVX2 object must define nothing else with external or vague linkage:
// an inline function or template instance built for AVX2 that the linker
// kept for another translation unit would be an illegal instruction on an
// older CPU. So every helper lives in an anonymous namespace and the entry
// point is [[gnu::flatten]], which inlines libstdc++'s simd operations into
// it instead of emitting them as weak symbols.
// scripts/check_mlp_kernel_symbols.sh checks the object with nm.
#include "ml/mlp_kernel.hpp"

#include <experimental/simd>

#if defined(AEGIS_MLP_KERNEL_AVX2)
#define AEGIS_MLP_KERNEL_ENTRY tiled_product_avx2
#else
#define AEGIS_MLP_KERNEL_ENTRY tiled_product_baseline
#endif

namespace aegis::ml::kernel {

namespace {

namespace stdx = std::experimental;

/// Rows per register tile. A 2 x 8 tile is eight SSE2 accumulators, enough
/// to keep both adders busy; under AVX2 it is only four, too few to cover
/// the add latency, so that build stacks four rows (eight of its sixteen
/// registers).
#if defined(__AVX2__)
constexpr std::size_t kTileRows = 4;
#else
constexpr std::size_t kTileRows = 2;
#endif

/// One R x C register tile of a Product: R rows of C lanes, one lane per
/// output cell. Each k step adds left(r, k) * right(k, c) to every lane;
/// lanes never combine, so no sum is split or reassociated and the result
/// is bit-identical to the per-cell scalar loop at any vector width.
template <std::size_t R, std::size_t C>
void product_tile(const Product& p, std::size_t r0, std::size_t c0) {
  using Lanes = stdx::fixed_size_simd<double, C>;
  Lanes acc[R];
#pragma GCC unroll 4
  for (std::size_t r = 0; r < R; ++r) {
    if (p.init != nullptr) {
      acc[r].copy_from(p.init + c0, stdx::element_aligned);
    } else {
      acc[r] = 0.0;
    }
  }
  for (std::size_t k = 0; k < p.depth; ++k) {
    const Lanes w(p.right + k * p.cols + c0, stdx::element_aligned);
#pragma GCC unroll 4
    for (std::size_t r = 0; r < R; ++r) {
      acc[r] += p.left[(r0 + r) * p.left_row + k * p.left_k] * w;
    }
  }
#pragma GCC unroll 4
  for (std::size_t r = 0; r < R; ++r) {
    acc[r].copy_to(p.out + (r0 + r) * p.cols + c0, stdx::element_aligned);
  }
}

template <std::size_t C>
void product_columns(const Product& p, std::size_t c0) {
  std::size_t r = 0;
  for (; r + kTileRows <= p.rows; r += kTileRows) {
    product_tile<kTileRows, C>(p, r, c0);
  }
  if constexpr (kTileRows > 2) {
    if (r + 2 <= p.rows) {
      product_tile<2, C>(p, r, c0);
      r += 2;
    }
  }
  if (r < p.rows) product_tile<1, C>(p, r, c0);
}

}  // namespace

/// Covers the columns with 8-wide tiles, then a 4, 2 and 1-wide tail.
[[gnu::flatten]] void AEGIS_MLP_KERNEL_ENTRY(const Product& p) {
  std::size_t c = 0;
  for (; c + 8 <= p.cols; c += 8) product_columns<8>(p, c);
  if (c + 4 <= p.cols) {
    product_columns<4>(p, c);
    c += 4;
  }
  if (c + 2 <= p.cols) {
    product_columns<2>(p, c);
    c += 2;
  }
  if (c < p.cols) product_columns<1>(p, c);
}

}  // namespace aegis::ml::kernel
