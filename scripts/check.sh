#!/usr/bin/env bash
# CI-style check: build and run the full test suite in the default
# configuration, then under ThreadSanitizer, AddressSanitizer, and
# UndefinedBehaviorSanitizer (-DAEGIS_SANITIZE=thread|address|undefined).
# The TSan pass is the data-race proof for the work-stealing parallel
# campaign engine; the UBSan pass guards the arithmetic-heavy PMU/DP
# kernels. A dedicated lint stage builds and runs aegis-lint explicitly so
# a broken lint build fails the check rather than silently skipping the
# gate, and runs clang-tidy when available. A seceval stage runs the smoke
# security frontier and fails if any attack accuracy rose over the
# committed BENCH_security.json baseline (scripts/bench_compare.py
# --security). After the default suite, scripts/check_mlp_kernel_symbols.sh
# checks that the AVX2 build of the MLP kernel defines only its entry
# point. Timing is gated by e2ebench (`python3 e2ebench/run.py`),
# which runs each change against its parent on the same host.
#
# Usage: scripts/check.sh [--fast]
#   --fast   sanitizer passes run only the concurrency-relevant suites
#            (thread pool, parallel campaign, fuzzer, profiler, queue) plus
#            the gadget runner, the seed-7 shard digests, the warm-start
#            parser suites and the two seeded-mutation suites of untrusted
#            inputs (the JSON reader and the flight-recorder dump reader),
#            instead of the whole test suite.
set -euo pipefail

cd "$(dirname "$0")/.."

FAST=0
if [[ "${1:-}" == "--fast" ]]; then
  FAST=1
elif [[ -n "${1:-}" ]]; then
  echo "usage: scripts/check.sh [--fast]" >&2
  exit 2
fi

JOBS="$(nproc 2>/dev/null || echo 2)"
FAST_FILTER='ThreadPool|Parallel|Golden|Rng|SplitMix|Fuzzer|Confirmation|Profiler|Warmup|Cleanup|BoundedQueue|GadgetRunner|EngineEquivalence|Serialize|JsonReader|FlightRecorderDump'
# Every ctest run executes with AEGIS_FR_DUMP armed so a crashing test
# leaves behind a flight-recorder dump (<prefix>.<pid>.frd) with the last
# wide events before the fault. On failure the dumps are listed so they can
# be pulled for `aegis_top --recorder` triage.
FR_DUMP_ROOT="${AEGIS_FR_DUMP_ROOT:-/tmp/aegis-fr-dumps}"

run_suite() {
  local name="$1" dir="$2" sanitize="$3"
  echo "=== ${name}: configure + build (${dir}) ==="
  cmake -B "${dir}" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DAEGIS_SANITIZE="${sanitize}" >/dev/null
  cmake --build "${dir}" -j "${JOBS}" >/dev/null
  echo "=== ${name}: ctest ==="
  local fr_dir="${FR_DUMP_ROOT}/${name}"
  rm -rf "${fr_dir}" && mkdir -p "${fr_dir}"
  local -a filter=()
  if [[ "${FAST}" == 1 && -n "${sanitize}" ]]; then
    filter=(-R "${FAST_FILTER}")
  fi
  if ! AEGIS_FR_DUMP="${fr_dir}/fr" \
      ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}" "${filter[@]}"; then
    echo "=== ${name}: ctest FAILED; flight-recorder dumps in ${fr_dir} ===" >&2
    ls -l "${fr_dir}"/*.frd >&2 2>/dev/null ||
      echo "(no crash dumps written — failures were assertions, not faults)" >&2
    exit 1
  fi
}

# Lint stage: build the analyzer and its unit tests by name so a lint build
# failure is a hard error here (ctest would otherwise just drop the gate),
# then run the tree-wide two-phase gate directly for file:line diagnostics
# on stdout. The one gate run also checks the committed RNG stream
# manifest, fails on stale suppression comments so they never accumulate,
# and emits a SARIF log.
run_lint() {
  local dir="build"
  echo "=== lint: build aegis-lint ==="
  cmake -B "${dir}" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DAEGIS_SANITIZE="" >/dev/null
  cmake --build "${dir}" -j "${JOBS}" \
    --target aegis_lint aegis_lint_test aegis_lint_graph_test >/dev/null
  echo "=== lint: aegis-lint gate (src bench examples tools + RNG manifest + stale suppressions) ==="
  "${dir}/tools/aegis_lint/aegis_lint" --root . \
    --check-rng-manifest RNG_STREAMS.md --stale-as-error \
    --sarif "${dir}/aegis-lint.sarif" \
    src bench examples tools
  echo "=== lint: aegis-lint unit tests ==="
  "${dir}/tools/aegis_lint/aegis_lint_test" --gtest_brief=1
  "${dir}/tools/aegis_lint/aegis_lint_graph_test" --gtest_brief=1
  if command -v clang-tidy >/dev/null 2>&1; then
    echo "=== lint: clang-tidy (src) ==="
    # Compile-commands come from the default build dir; tidy only src/ so
    # the pass stays fast enough for every push.
    cmake -B "${dir}" -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
    find src -name '*.cpp' -print0 |
      xargs -0 -P "${JOBS}" -n 4 clang-tidy -p "${dir}" --quiet
  else
    echo "=== lint: clang-tidy not found, skipping ==="
  fi
}

# Security regression gate: run the PR-CI smoke subset of the attack/defense
# frontier and diff it against the committed baseline. The harness is
# bit-deterministic, so any cell whose attack accuracy rises more than
# 2 points absolute is a real security regression, not jitter.
run_seceval() {
  local dir="build"
  echo "=== seceval: smoke frontier + security gate ==="
  cmake --build "${dir}" -j "${JOBS}" --target bench_security >/dev/null
  "${dir}/bench/bench_security" --smoke \
    --json /tmp/aegis_seceval_smoke.json \
    --report /tmp/aegis_seceval_smoke.md >/dev/null
  python3 scripts/bench_compare.py --security \
    BENCH_security.json /tmp/aegis_seceval_smoke.json
}

run_lint
run_suite "default" build ""
echo "=== default: AVX2 kernel object symbols ==="
scripts/check_mlp_kernel_symbols.sh build >/dev/null
run_seceval
run_suite "tsan" build-tsan thread
run_suite "asan" build-asan address
run_suite "ubsan" build-ubsan undefined

echo "All checks passed."
