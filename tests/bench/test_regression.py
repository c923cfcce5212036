"""Bench-regression gate: matched-cell comparison, invariant fallback,
cross-check enforcement, and the bench-check CLI surface."""

import copy
import json
from pathlib import Path

import pytest

from repro.bench.regression import (
    NOISE_FLOOR_MS,
    check_query_regression,
    check_regression,
    load_report,
)


def make_report(*, n=10_000, auto_p50=0.10, csr_p50=0.10, qps=5000.0):
    timing = lambda p50: {"p50_ms": p50, "p95_ms": p50 * 2, "mean_ms": p50}  # noqa: E731
    return {
        "suite": "wallclock",
        "algorithm": "DL+",
        "k": 10,
        "queries": 8,
        "repeats": 1,
        "seed": 7,
        "crosscheck": "bitwise",
        "cells": [
            {
                "distribution": "IND",
                "d": 3,
                "n": n,
                "k": 10,
                "build_seconds": 0.1,
                "mean_cost": 40.0,
                "speedup_p50": 1.5,
                "kernels": {
                    "reference": timing(0.30),
                    "csr": timing(csr_p50),
                    "auto": timing(auto_p50),
                },
                "batch": [
                    {"B": 8, "qps": qps, "ms_per_query": 1000.0 / qps, "speedup_vs_csr": 2.0}
                ],
            }
        ],
    }


def test_identical_reports_pass():
    report = make_report()
    assert check_query_regression(report, report) == []


def test_matched_cell_p50_regression_fails():
    baseline = make_report(csr_p50=1.0)
    fresh = make_report(csr_p50=1.0 * 1.26 + NOISE_FLOOR_MS + 0.01)
    failures = check_query_regression(fresh, baseline)
    assert any("kernel csr" in f for f in failures)
    # Within tolerance + noise floor: passes.
    ok = make_report(csr_p50=1.0 * 1.24)
    assert check_query_regression(ok, baseline) == []


def test_noise_floor_absorbs_sub_ms_jitter():
    """A 50% relative blip on a 0.05ms cell is scheduler noise, not a
    regression — the absolute floor must absorb it."""
    baseline = make_report(csr_p50=0.05, auto_p50=0.05)
    fresh = make_report(csr_p50=0.075, auto_p50=0.075)  # +50% but tiny
    assert check_query_regression(fresh, baseline) == []


def test_matched_cell_qps_regression_fails():
    # Batch lanes gate on amortized ms/query with the same noise floor
    # as the kernel p50s: at 1 qps-in-thousands scale (1.0ms/query) the
    # limit is 1.0 * 1.25 + 0.05 = 1.30ms — i.e. qps below 1000/1.3.
    baseline = make_report(qps=1000.0)
    fresh = make_report(qps=1000.0 / 1.5)
    failures = check_query_regression(fresh, baseline)
    assert any("batch B=8" in f for f in failures)
    assert check_query_regression(make_report(qps=1000.0 / 1.29), baseline) == []
    # At smoke scale (sub-0.1ms lanes) the absolute floor absorbs
    # scheduler jitter that a pure qps ratio would flag.
    tiny_base = make_report(qps=20000.0)  # 0.05ms/query
    tiny_fresh = make_report(qps=10000.0)  # 0.10ms — within 0.05*1.25+0.05
    assert check_query_regression(tiny_fresh, tiny_base) == []


def test_no_overlap_falls_back_to_invariants():
    baseline = make_report(n=100_000)
    smoke_ok = make_report(n=2000)
    assert check_query_regression(smoke_ok, baseline) == []
    # Auto far slower than best single kernel: the scale-free invariant
    # trips even without any comparable baseline cell.
    smoke_bad = make_report(n=2000, auto_p50=0.50, csr_p50=0.10)
    failures = check_query_regression(smoke_bad, baseline)
    assert any("auto p50" in f for f in failures)
    # Missing batch sweep also trips the invariant path.
    smoke_nobatch = make_report(n=2000)
    smoke_nobatch["cells"][0]["batch"] = []
    failures = check_query_regression(smoke_nobatch, baseline)
    assert any("batch sweep missing" in f for f in failures)


def test_missing_crosscheck_marker_rejected():
    baseline = make_report()
    unchecked = copy.deepcopy(baseline)
    del unchecked["crosscheck"]
    failures = check_query_regression(unchecked, baseline)
    assert any("crosscheck" in f for f in failures)


def test_malformed_reports_rejected_outright():
    report = make_report()
    broken = copy.deepcopy(report)
    broken["cells"][0]["kernels"].pop("reference")
    with pytest.raises((ValueError, KeyError)):
        check_query_regression(broken, report)
    with pytest.raises((ValueError, KeyError)):
        check_query_regression(report, broken)


def test_load_report_validates(tmp_path):
    path = tmp_path / "report.json"
    path.write_text(json.dumps(make_report()))
    assert load_report(str(path))["suite"] == "wallclock"
    path.write_text(json.dumps({"suite": "wallclock"}))
    with pytest.raises((ValueError, KeyError)):
        load_report(str(path))


#: Committed baselines of the non-query suites, read by the routing tests.
ANALYTICS_BASELINE = Path(__file__).resolve().parents[2] / "BENCH_analytics.json"


def test_check_regression_dispatches_by_suite():
    query = make_report()
    assert check_regression(query, query) == []
    failures = check_regression(query, {"suite": "analytics"})
    assert any("suite mismatch" in f for f in failures)


def test_load_report_dispatches_suite_validator(tmp_path):
    report = json.loads(ANALYTICS_BASELINE.read_text())
    path = tmp_path / "analytics.json"
    path.write_text(json.dumps(report))
    assert load_report(str(path))["suite"] == "analytics"
    del report["summary"]
    path.write_text(json.dumps(report))
    with pytest.raises((ValueError, KeyError)):
        load_report(str(path))


def test_bench_check_cli_routes_suite_reports(tmp_path, capsys, monkeypatch):
    """With no --baseline, a non-query report gates against its own
    suite's committed baseline rather than BENCH_query.json."""
    from repro.cli import main

    monkeypatch.chdir(ANALYTICS_BASELINE.parent)
    fresh = tmp_path / "fresh_analytics.json"
    report = json.loads(ANALYTICS_BASELINE.read_text())
    fresh.write_text(json.dumps(report))
    assert main(["bench-check", "--fresh", str(fresh)]) == 0
    assert "vs BENCH_analytics.json" in capsys.readouterr().out

    del report["crosscheck"]
    fresh.write_text(json.dumps(report))
    assert main(["bench-check", "--fresh", str(fresh)]) == 1
    assert "crosscheck" in capsys.readouterr().out


def test_bench_check_cli_exit_codes(tmp_path, capsys):
    from repro.cli import main

    fresh = tmp_path / "fresh.json"
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps(make_report(csr_p50=1.0)))
    fresh.write_text(json.dumps(make_report(csr_p50=1.0)))
    assert (
        main(["bench-check", "--fresh", str(fresh), "--baseline", str(baseline)]) == 0
    )
    assert "bench-check OK" in capsys.readouterr().out

    fresh.write_text(json.dumps(make_report(csr_p50=2.0)))
    assert (
        main(["bench-check", "--fresh", str(fresh), "--baseline", str(baseline)]) == 1
    )
    out = capsys.readouterr().out
    assert "kernel csr" in out
