#!/usr/bin/env python3
"""Diff fresh gate artifacts against their committed baselines.

Usage:
    scripts/bench_compare.py --security BASELINE_security.json \
                             FRESH_security.json
    scripts/bench_compare.py --lint BENCH_lint.json FRESH_lint.json

Timing of the pipeline itself is gated by e2ebench (BENCHMARK.json), which
runs each change against its parent on the same host; this script gates
only the two artifacts that a committed baseline can judge.

--security mode diffs BENCH_security.json frontiers. The metric is
directional per cell keyed by (attacker, defense, epsilon): fresh attack
accuracy may not RISE more than 2 points absolute over the committed
baseline (override with AEGIS_SECURITY_TOLERANCE, a fraction of 1.0, e.g.
0.02). Accuracy drops are improvements and never fail. Every fresh cell
must exist in the baseline — the smoke subset is a strict subset of the
committed full frontier, so an unmatched cell means the matrix drifted and
the gate would otherwise pass vacuously. The harness is bit-deterministic,
so the gate needs no jitter allowance; the tolerance only absorbs
intentional small reshapes of shared attack fixtures.

The PMU backend provenance fields ("backend", "cpu_model") gate hard: when
both sides carry them and they disagree, the comparison FAILS — an
AEGIS_CPU=intel run measured a different event database than the committed
AMD baseline, so no delta between them is meaningful.

--lint mode gates the analyzer's own runtime: aegis_lint --time-json
writes {ruleset, files_analyzed, cache_hits, wall_ms}, and a fresh COLD
run (cache_hits == 0) may not exceed 2x the committed BENCH_lint.json
wall time (override with AEGIS_LINT_TOLERANCE, a multiplier). The loose
multiplier absorbs runner jitter on a tens-of-milliseconds measurement;
only a superlinear blowup in the analyzer (the failure mode interproc
analyses actually have) trips it. A ruleset mismatch between the two
artifacts is a note, not a failure — new rules legitimately cost time,
but the budget still holds. Warm runs (cache_hits > 0) are compared
informationally only; the committed baseline is a cold-run number.

Stdlib only — no pip installs in CI.
"""

import json
import os
import sys


DEFAULT_SECURITY_TOLERANCE = 0.02  # 2 accuracy points, absolute
DEFAULT_LINT_TOLERANCE = 2.0  # fresh cold wall time may not exceed 2x base


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench_compare: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


def security_tolerance():
    raw = os.environ.get("AEGIS_SECURITY_TOLERANCE", "")
    if not raw:
        return DEFAULT_SECURITY_TOLERANCE
    try:
        value = float(raw)
    except ValueError:
        print(f"bench_compare: bad AEGIS_SECURITY_TOLERANCE {raw!r}",
              file=sys.stderr)
        sys.exit(2)
    if value < 0:
        print("bench_compare: AEGIS_SECURITY_TOLERANCE must be >= 0",
              file=sys.stderr)
        sys.exit(2)
    return value


def lint_tolerance():
    raw = os.environ.get("AEGIS_LINT_TOLERANCE", "")
    if not raw:
        return DEFAULT_LINT_TOLERANCE
    try:
        value = float(raw)
    except ValueError:
        print(f"bench_compare: bad AEGIS_LINT_TOLERANCE {raw!r}",
              file=sys.stderr)
        sys.exit(2)
    if value <= 1.0:
        print("bench_compare: AEGIS_LINT_TOLERANCE must be > 1 (a multiplier "
              "on the baseline wall time)", file=sys.stderr)
        sys.exit(2)
    return value


def compare_lint(base_path, fresh_path):
    """Lint runtime budget: a cold run slower than tol x baseline fails."""
    baseline, fresh = load(base_path), load(fresh_path)
    tol = lint_tolerance()
    try:
        base_ms = float(baseline["wall_ms"])
        new_ms = float(fresh["wall_ms"])
        base_files = int(baseline["files_analyzed"])
        new_files = int(fresh["files_analyzed"])
        hits = int(fresh.get("cache_hits", 0))
    except (KeyError, TypeError, ValueError) as e:
        print(f"bench_compare: malformed lint timing artifact: {e}",
              file=sys.stderr)
        sys.exit(2)
    base_rules = baseline.get("ruleset")
    new_rules = fresh.get("ruleset")
    if base_rules and new_rules and base_rules != new_rules:
        print(f"note  lint ruleset changed: baseline {base_rules!r}, fresh "
              f"{new_rules!r} — new rules cost time, but the budget holds")
    if new_files != base_files:
        print(f"note  lint tree grew: {base_files} -> {new_files} file(s); "
              f"the wall-time budget is deliberately NOT per-file — a "
              f"superlinear analyzer shows up here first")
    if hits > 0:
        print(f"  ok  lint wall time (warm, {hits} cache hit(s)): "
              f"{new_ms:.0f} ms — informational only, the budget gates "
              f"cold runs")
        return 0
    # The absolute floor keeps the gate honest across machines: the
    # committed baseline is a fast-dev-box number, and a CI runner being
    # 5x slower on a 30 ms measurement is not the failure mode this gate
    # exists for. A superlinear blowup in the interprocedural analysis —
    # the failure mode it DOES exist for — lands in whole seconds and
    # clears the floor on any hardware.
    budget = max(base_ms * tol, 2000.0)
    verdict = "FAIL" if new_ms > budget else "  ok"
    print(f"{verdict}  lint wall time (cold): baseline {base_ms:.0f} ms -> "
          f"{new_ms:.0f} ms (budget {budget:.0f} ms = max({tol:g}x baseline, "
          f"2000 ms))")
    if new_ms > budget:
        print(f"bench_compare: aegis-lint cold run exceeded its wall-time "
              f"budget; profile phase 1/2 or re-baseline BENCH_lint.json "
              f"deliberately", file=sys.stderr)
        return 1
    return 0


def frontier_cells(doc, path):
    cells = doc.get("cells")
    if not isinstance(cells, list) or not cells:
        print(f"bench_compare: {path} has no 'cells' array", file=sys.stderr)
        sys.exit(2)
    table = {}
    for cell in cells:
        try:
            key = (cell["attacker"], cell["defense"], float(cell["epsilon"]))
            accuracy = float(cell["attack_accuracy"])
        except (TypeError, KeyError, ValueError) as e:
            print(f"bench_compare: malformed cell in {path}: {e}",
                  file=sys.stderr)
            sys.exit(2)
        if key in table:
            print(f"bench_compare: duplicate cell {key} in {path}",
                  file=sys.stderr)
            sys.exit(2)
        table[key] = accuracy
    return table


def compare_security(base_path, fresh_path):
    """Directional per-cell gate: attack accuracy may drop, not rise."""
    baseline = frontier_cells(load(base_path), base_path)
    fresh = frontier_cells(load(fresh_path), fresh_path)
    tol = security_tolerance()
    regressions = 0
    for key in sorted(fresh):
        attacker, defense, epsilon = key
        label = f"security {attacker} vs {defense} @ eps={epsilon:g}"
        if key not in baseline:
            # A cell with no committed counterpart cannot be gated; treat it
            # as a hard failure so matrix drift re-baselines deliberately.
            print(f"FAIL  {label}: cell missing from baseline {base_path}")
            regressions += 1
            continue
        base, new = baseline[key], fresh[key]
        delta = new - base
        verdict = "FAIL" if delta > tol else ("  ok" if delta >= 0 else "good")
        print(f"{verdict}  {label}: accuracy {base:.4f} -> {new:.4f} "
              f"({'+' if delta >= 0 else ''}{delta * 100:.2f} pts, "
              f"tolerance +{tol * 100:.0f} pts)")
        if delta > tol:
            regressions += 1
    skipped = len(baseline) - sum(1 for k in fresh if k in baseline)
    if skipped:
        print(f"note  {skipped} baseline cell(s) not exercised by this run "
              f"(smoke subset)")
    return regressions


def check_backend_match(label, baseline, fresh):
    """Hard gate on the PMU backend provenance fields.

    A backend or cpu_model mismatch means the two artifacts measured
    DIFFERENT event databases — an AEGIS_CPU=intel run diffed against the
    committed AMD baseline compares nothing comparable, so it fails.
    Artifacts predating the backend layer carry neither field and are
    compared as before. Returns the number of regressions (0 or 1 per
    field).
    """
    regressions = 0
    for field in ("backend", "cpu_model"):
        base, new = baseline.get(field), fresh.get(field)
        if not isinstance(base, str) or not isinstance(new, str):
            continue  # pre-backend artifact
        if base != new:
            print(f"FAIL  {label} {field} mismatch: baseline measured "
                  f"{base!r}, fresh measured {new!r} — not comparable; "
                  f"re-baseline or rerun with the matching AEGIS_CPU")
            regressions += 1
    return regressions


def main(argv):
    if len(argv) == 4 and argv[1] == "--security":
        regressions = check_backend_match("security", load(argv[2]),
                                          load(argv[3]))
        regressions += compare_security(argv[2], argv[3])
        if regressions:
            print(f"bench_compare: {regressions} security cell(s) regressed",
                  file=sys.stderr)
            return 1
        print("bench_compare: no security cell rose above tolerance")
        return 0
    if len(argv) == 4 and argv[1] == "--lint":
        failures = compare_lint(argv[2], argv[3])
        if failures:
            return 1
        print("bench_compare: lint runtime within budget")
        return 0
    print(__doc__.strip(), file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
