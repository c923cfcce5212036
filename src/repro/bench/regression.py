"""Bench-regression gate: fresh run vs committed baseline.

CI's bench-smoke job produces miniature wall-clock reports on every push;
this module compares them against the committed full-scale baselines
(``BENCH_query.json``) and fails loudly instead of letting a kernel
regression ride a green build.

What is actually comparable across runs
---------------------------------------
* **Bitwise cross-checks** — every wall-clock run verifies each timed
  query (per-query kernels and every batch lane) against the reference
  oracle and refuses to report otherwise; a report without the
  ``crosscheck: bitwise`` marker is rejected here, so a run that skipped
  (or failed) verification can never pass the gate.
* **Absolute p50 latencies** are only meaningful between cells measured at
  the same (distribution, d, n, k) — the gate compares exactly those and
  flags a fresh p50 more than ``tolerance`` (default 25%) above baseline.
* When the fresh run has *no* overlapping cells (the CI smoke runs at
  n=2000 while the committed grid starts at 10k — absolute smoke latencies
  on a shared CI runner would gate on noise, as the bench-smoke job's own
  comment warns), the gate falls back to **within-run invariants** of the
  fresh report: every kernel timing positive, every batch sweep present
  and positive, and ``auto`` no slower than the best single kernel at p50
  beyond the same tolerance — the dispatch-correctness property that holds
  at any scale on any machine.
"""

from __future__ import annotations

import json

from repro.bench.analyticsbench import validate_analytics_report
from repro.bench.snapshotbench import validate_snapshot_report
from repro.bench.wallclock import validate_query_report

__all__ = [
    "check_analytics_regression",
    "check_query_regression",
    "check_regression",
    "check_snapshot_regression",
    "load_report",
]

#: Per-suite schema validators ``load_report`` dispatches on (reports
#: predating the ``suite`` key are wall-clock query reports).
_VALIDATORS = {
    "wallclock": validate_query_report,
    "snapshot": validate_snapshot_report,
    "analytics": validate_analytics_report,
}


def load_report(path: str) -> dict:
    """Load and schema-validate one benchmark report (any suite)."""
    with open(path) as handle:
        report = json.load(handle)
    _VALIDATORS.get(report.get("suite", "wallclock"), validate_query_report)(
        report
    )
    return report


def _cell_key(cell: dict) -> tuple:
    return (cell["distribution"], cell["d"], cell["n"], cell["k"])


def _check_matched(fresh: dict, baseline: dict, tolerance: float) -> list[str]:
    """Absolute p50 comparison over cells present in both reports."""
    failures: list[str] = []
    baseline_cells = {_cell_key(cell): cell for cell in baseline["cells"]}
    matched = 0
    for cell in fresh["cells"]:
        base = baseline_cells.get(_cell_key(cell))
        if base is None:
            continue
        matched += 1
        for kernel, timing in cell["kernels"].items():
            base_timing = base["kernels"].get(kernel)
            if base_timing is None:
                continue
            limit = base_timing["p50_ms"] * (1.0 + tolerance) + NOISE_FLOOR_MS
            if timing["p50_ms"] > limit:
                failures.append(
                    f"{_cell_key(cell)} kernel {kernel}: p50 "
                    f"{timing['p50_ms']:.4f}ms > baseline "
                    f"{base_timing['p50_ms']:.4f}ms +{tolerance:.0%}"
                )
        base_batch = {t["B"]: t for t in base.get("batch", [])}
        for timing in cell.get("batch", []):
            base_timing = base_batch.get(timing["B"])
            if base_timing is None:
                continue
            # Compare on amortized per-query latency with the same
            # noise floor as the kernel p50s: batch lanes amortize to
            # the 0.03–0.3ms range where scheduler jitter alone can
            # exceed the relative tolerance, and a pure qps ratio has
            # no absolute slack to absorb it.
            fresh_ms = 1000.0 / timing["qps"]
            base_ms = 1000.0 / base_timing["qps"]
            limit = base_ms * (1.0 + tolerance) + NOISE_FLOOR_MS
            if fresh_ms > limit:
                failures.append(
                    f"{_cell_key(cell)} batch B={timing['B']}: amortized "
                    f"{fresh_ms:.4f}ms/query > baseline "
                    f"{base_ms:.4f}ms +{tolerance:.0%} "
                    f"(+{NOISE_FLOOR_MS}ms floor)"
                )
    if not matched:
        failures.append("__no_overlap__")
    return failures


#: Absolute slack (ms) added to relative tolerances when comparing p50s.
#: Smoke cells run in the 0.1–0.3ms range where scheduler jitter alone
#: exceeds 25%; the floor absorbs that without loosening the relative
#: check at full scale, where latencies are 10x larger and the relative
#: term dominates.  A wrong dispatch is a 2–4x miss, far outside both.
NOISE_FLOOR_MS = 0.05


def _check_invariants(fresh: dict, tolerance: float) -> list[str]:
    """Scale-free checks on the fresh report alone."""
    failures: list[str] = []
    for cell in fresh["cells"]:
        key = _cell_key(cell)
        kernels = cell["kernels"]
        if "auto" in kernels:
            best = min(
                timing["p50_ms"]
                for name, timing in kernels.items()
                if name != "auto"
            )
            limit = best * (1.0 + tolerance) + NOISE_FLOOR_MS
            if kernels["auto"]["p50_ms"] > limit:
                failures.append(
                    f"{key}: auto p50 {kernels['auto']['p50_ms']:.4f}ms "
                    f"exceeds best single kernel {best:.4f}ms "
                    f"+{tolerance:.0%} (+{NOISE_FLOOR_MS}ms floor)"
                )
        if not cell.get("batch"):
            failures.append(f"{key}: batch sweep missing from fresh report")
    return failures


#: Floor on the native kernel's p50 speedup over csr at the committed
#: full-scale gate cell.  The committed BENCH_query.json measures 5–9x;
#: 1.3x is the hold-the-win threshold: losing it means the compiled
#: kernel stopped paying for itself while still passing bitwise checks,
#: which is exactly the silent regression this gate exists to catch.
NATIVE_SPEEDUP_FLOOR = 1.3

#: The (distribution, d, n, k) cell the native floor binds on — the
#: full-scale cell the ROADMAP's raw-speed item targets.  Smoke reports
#: never contain it, so CI's miniature runs are not latency-gated; any
#: report that *does* carry the cell (the committed baseline, refreshed
#: full-scale runs) must both include a native column and hold the floor.
NATIVE_GATE_CELL = ("IND", 4, 100_000, 10)


def _check_native_floor(report: dict, label: str) -> list[str]:
    """Enforce the native-vs-csr speedup floor on the gate cell."""
    failures: list[str] = []
    for cell in report["cells"]:
        if _cell_key(cell) != NATIVE_GATE_CELL:
            continue
        native = cell["kernels"].get("native")
        if native is None:
            failures.append(
                f"{label} {NATIVE_GATE_CELL}: full-scale report lacks a "
                "native kernel column (run perf-bench on a host with a C "
                "toolchain)"
            )
            continue
        csr_p50 = cell["kernels"]["csr"]["p50_ms"]
        ratio = (
            csr_p50 / native["p50_ms"] if native["p50_ms"] > 0 else float("inf")
        )
        if ratio < NATIVE_SPEEDUP_FLOOR:
            failures.append(
                f"{label} {NATIVE_GATE_CELL}: native p50 "
                f"{native['p50_ms']:.4f}ms is only {ratio:.2f}x over csr "
                f"{csr_p50:.4f}ms (floor {NATIVE_SPEEDUP_FLOOR}x)"
            )
    return failures


def check_query_regression(
    fresh: dict, baseline: dict, *, tolerance: float = 0.25
) -> list[str]:
    """Compare a fresh wall-clock report against a committed baseline.

    Returns a list of human-readable failure strings (empty = gate
    passes).  Always enforced: both reports schema-valid, the fresh
    report carries the bitwise cross-check marker, and any report
    containing the full-scale :data:`NATIVE_GATE_CELL` holds the native
    kernel's :data:`NATIVE_SPEEDUP_FLOOR` over csr (the committed
    baseline always contains it, so the compiled kernel's win is held on
    every CI run even though smoke cells are too small to latency-gate).
    Cells present in both reports are compared on absolute p50 latency
    and batch qps; with no overlap, the fresh report's within-run
    invariants are checked instead (see module docstring for why
    absolute smoke latencies don't gate).
    """
    validate_query_report(fresh)
    validate_query_report(baseline)
    failures: list[str] = []
    if fresh.get("crosscheck") != "bitwise":
        failures.append(
            "fresh report lacks the 'crosscheck: bitwise' marker — it was "
            "produced without (or predates) per-query oracle verification"
        )
    failures.extend(_check_native_floor(fresh, "fresh"))
    failures.extend(_check_native_floor(baseline, "baseline"))
    matched_failures = _check_matched(fresh, baseline, tolerance)
    if matched_failures == ["__no_overlap__"]:
        failures.extend(_check_invariants(fresh, tolerance))
    else:
        failures.extend(f for f in matched_failures if f != "__no_overlap__")
    return failures


#: Minimum pickle-vs-snapshot cold-open ratio a full-scale report must
#: hold (the acceptance criterion); reports measured below this n are
#: smoke runs where the constant per-file open cost dominates and only
#: the scale-free invariants gate.
SNAPSHOT_SPEEDUP_FLOOR = 10.0
SNAPSHOT_FULL_SCALE_N = 100_000


def _check_snapshot_invariants(report: dict, label: str) -> list[str]:
    """Scale-free + full-scale invariants of one snapshot report.

    Scale-free (any n, any machine): pruning never *increases* cost and
    actually bites — strictly fewer tuples at some cell inside the
    must-bite window (the bound table's reason to exist).  The window is
    k <= 10 for v1-era reports (block bounds only) and k <= 64 for
    snapshot-format v2 reports, whose hierarchical sublayer table and
    reordered block minima keep saving accesses well past small k; a v2
    report measured at full scale must additionally show a bite at some
    k > 10 cell, pinning the "not just small k" acceptance criterion on
    the committed baseline.  Full-scale (n >= 100k): the cold-open
    speedup holds the acceptance floor — deserializing O(n) arrays must
    lose to reading O(1) headers by at least 10x.
    """
    failures: list[str] = []
    v2 = int(report.get("snapshot_version", 1)) >= 2
    bite_window = 64 if v2 else 10
    strict = strict_large = False
    for cell in report["pruning"]:
        if cell["pruned_cost"] > cell["unpruned_cost"]:
            failures.append(
                f"{label}: pruning at k={cell['k']} increased cost "
                f"({cell['pruned_cost']} > {cell['unpruned_cost']})"
            )
        bites = cell["pruned_cost"] < cell["unpruned_cost"]
        if cell["k"] <= bite_window and bites:
            strict = True
        if cell["k"] > 10 and bites:
            strict_large = True
    if not strict:
        failures.append(
            f"{label}: layer-bound skipping saved nothing at any "
            f"k<={bite_window} cell — the bound table is not pruning"
        )
    if (
        v2
        and report["n"] >= SNAPSHOT_FULL_SCALE_N
        and any(cell["k"] > 10 for cell in report["pruning"])
        and not strict_large
    ):
        failures.append(
            f"{label}: v2 hierarchical bounds saved nothing at any k>10 "
            "cell at full scale — pruning degenerated to small k only"
        )
    if report["n"] >= SNAPSHOT_FULL_SCALE_N:
        speedup = report["open"]["speedup"]
        if speedup < SNAPSHOT_SPEEDUP_FLOOR:
            failures.append(
                f"{label}: cold-open speedup {speedup:.1f}x < "
                f"{SNAPSHOT_SPEEDUP_FLOOR:.0f}x at n={report['n']}"
            )
    return failures


def check_snapshot_regression(
    fresh: dict, baseline: dict, *, tolerance: float = 0.25
) -> list[str]:
    """Gate a fresh snapshot report against the committed baseline.

    Both reports must be schema-valid, carry the bitwise cross-check
    marker, and hold the snapshot invariants (pruning monotone + biting,
    >= 10x cold open at full scale) — checking the *baseline* too keeps
    the committed ``BENCH_snapshot.json`` honest: a hand-edited or stale
    baseline fails the gate just like a regressed fresh run.  When both
    reports measured the same cell, the fresh cold-open speedup may not
    fall more than ``tolerance`` below the baseline's.
    """
    validate_snapshot_report(fresh)
    validate_snapshot_report(baseline)
    failures: list[str] = []
    for report, label in ((fresh, "fresh"), (baseline, "baseline")):
        if report.get("crosscheck") != "bitwise":
            failures.append(
                f"{label} snapshot report lacks the 'crosscheck: bitwise' "
                "marker — it was produced without oracle verification"
            )
        failures.extend(_check_snapshot_invariants(report, label))
    same_cell = all(
        fresh[key] == baseline[key] for key in ("distribution", "d", "n")
    )
    if same_cell:
        floor = baseline["open"]["speedup"] / (1.0 + tolerance)
        if fresh["open"]["speedup"] < floor:
            failures.append(
                f"cold-open speedup {fresh['open']['speedup']:.1f}x < "
                f"baseline {baseline['open']['speedup']:.1f}x "
                f"-{tolerance:.0%}"
            )
    return failures


#: Minimum share of workload vectors an analytics report must resolve
#: without a walk on at least one full-scale cell (the acceptance
#: criterion: screens must carry real weight, not just exist).  Smoke
#: runs below this n only hold the scale-free invariants.
ANALYTICS_RESOLVED_FLOOR_PCT = 30.0
ANALYTICS_FULL_SCALE_N = 10_000


def _check_analytics_invariants(report: dict, label: str) -> list[str]:
    """Scale-free + full-scale invariants of one analytics report.

    Scale-free: every cell bitwise-verified (the validator enforces the
    marker per cell), ranks positive, certified volumes ordered.
    Full-scale (n >= 10k): the layer-bound screens must resolve at least
    ``ANALYTICS_RESOLVED_FLOOR_PCT`` of the workload without a walk on
    some cell — a report where every vector walks means the screens
    stopped biting.
    """
    failures: list[str] = []
    if report.get("crosscheck") != "bitwise":
        failures.append(
            f"{label} analytics report lacks the 'crosscheck: bitwise' "
            "marker — it was produced without oracle verification"
        )
    if report["n"] >= ANALYTICS_FULL_SCALE_N:
        best = report["summary"]["best_resolved_without_walk_pct"]
        if best < ANALYTICS_RESOLVED_FLOOR_PCT:
            failures.append(
                f"{label}: best walk-free resolution {best:.1f}% < "
                f"{ANALYTICS_RESOLVED_FLOOR_PCT:.0f}% at n={report['n']} — "
                "the bichromatic screens are not pruning"
            )
    return failures


def check_analytics_regression(
    fresh: dict, baseline: dict, *, tolerance: float = 0.25
) -> list[str]:
    """Gate a fresh analytics report against the committed baseline.

    Both reports must be schema-valid, carry the bitwise cross-check
    marker, and hold the analytics invariants (checking the baseline too
    keeps the committed ``BENCH_analytics.json`` honest).  When both
    reports measured the same grid, the fresh best walk-free resolution
    may not fall more than ``tolerance`` below the baseline's.
    """
    validate_analytics_report(fresh)
    validate_analytics_report(baseline)
    failures: list[str] = []
    for report, label in ((fresh, "fresh"), (baseline, "baseline")):
        failures.extend(_check_analytics_invariants(report, label))
    same_grid = all(
        fresh[key] == baseline[key] for key in ("distributions", "d", "n", "k")
    )
    if same_grid:
        floor = baseline["summary"]["best_resolved_without_walk_pct"] / (
            1.0 + tolerance
        )
        best = fresh["summary"]["best_resolved_without_walk_pct"]
        if best < floor:
            failures.append(
                f"best walk-free resolution {best:.1f}% < baseline "
                f"{baseline['summary']['best_resolved_without_walk_pct']:.1f}% "
                f"-{tolerance:.0%}"
            )
    return failures


def check_regression(
    fresh: dict, baseline: dict, *, tolerance: float = 0.25
) -> list[str]:
    """Dispatch to the right gate for the fresh report's suite.

    A fresh report must be gated against a baseline of its own suite —
    comparing across suites is reported as a failure rather than
    silently passing.
    """
    fresh_suite = fresh.get("suite", "wallclock")
    baseline_suite = baseline.get("suite", "wallclock")
    if fresh_suite != baseline_suite:
        return [
            f"suite mismatch: fresh report is {fresh_suite!r} but baseline "
            f"is {baseline_suite!r} — point bench-check at the matching "
            "committed baseline"
        ]
    if fresh_suite == "snapshot":
        return check_snapshot_regression(fresh, baseline, tolerance=tolerance)
    if fresh_suite == "analytics":
        return check_analytics_regression(fresh, baseline, tolerance=tolerance)
    return check_query_regression(fresh, baseline, tolerance=tolerance)
