#!/usr/bin/env bash
# Fails unless the AVX2 build of the MLP product kernel
# (src/ml/mlp_kernel.cpp built with -mavx2) defines exactly one symbol, its
# entry point. Anything else it defined, such as a weak inline function or
# template instance, could be kept by the linker for a baseline translation
# unit and then fault on a CPU without AVX2; a local helper left out of line
# means [[gnu::flatten]] no longer inlines the kernel.
#
# Usage: scripts/check_mlp_kernel_symbols.sh [build-dir]   (default: build)
# The build must be an x86-64 one without a sanitizer (sanitizers add their
# own local symbols).
set -euo pipefail

dir="${1:-build}"
obj="${dir}/src/CMakeFiles/aegis_mlp_kernel_avx2.dir/ml/mlp_kernel.cpp.o"
entry="aegis::ml::kernel::tiled_product_avx2(aegis::ml::kernel::Product const&)"

if [[ ! -f "${obj}" ]]; then
  echo "check_mlp_kernel_symbols: no AVX2 kernel object at ${obj}" >&2
  exit 1
fi
symbols="$(nm -C --defined-only "${obj}")"
echo "${symbols}"
if ! grep -qF " T ${entry}" <<<"${symbols}"; then
  echo "check_mlp_kernel_symbols: ${obj} does not define ${entry}" >&2
  exit 1
fi
if grep -vF " T ${entry}" <<<"${symbols}" | grep -q .; then
  echo "check_mlp_kernel_symbols: ${obj} defines more than its entry point" >&2
  exit 1
fi
echo "check_mlp_kernel_symbols: only the entry point is defined"
