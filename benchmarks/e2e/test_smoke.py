"""Smoke test of the end-to-end benchmark: ``python -m pytest benchmarks/e2e``.

Runs every workload at the smoke scale (n=2000, a half-second phase) with
tracing on, then checks the reported metric names and units against
``BENCHMARK.json``, the nesting of the written spans, and that a wrong
answer or a checkout without the package makes the command fail.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args: str, script: Path = HERE / "run.py") -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(script), "--scale", "smoke", "--seconds", "0.5", *args],
        cwd=script.parents[2], capture_output=True, text=True, timeout=170,
    )


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e")
    proc = run_bench("--trace", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    return out, proc.stdout


def test_metrics_match_benchmark_json(traced):
    out, stdout = traced
    runs = json.loads((out / "results.json").read_text())["runs"]
    assert [run["workload"] for run in runs] == WORKLOADS
    printed = {
        (fields[0], fields[1]): fields[3]
        for fields in (line.split() for line in stdout.splitlines())
        if len(fields) == 4
    }
    for kind, section in (("end_to_end", "e2e"), ("per_layer", "layer")):
        declared = {m["name"]: m["unit"] for m in SPEC[kind]}
        for run in runs:
            assert {n: e["unit"] for n, e in run[section].items()} == declared
            for name, unit in declared.items():
                assert printed[(run["workload"], name)] == unit
    for run in runs:
        assert run["checked"] > 0
        assert run["mismatches"] == 0 and run["failed"] == 0
        assert all(run["e2e"][m["name"]]["value"] > 0 for m in SPEC["end_to_end"])


def test_spans_nest_with_nonnegative_self_time(traced):
    out, _ = traced
    for workload in WORKLOADS:
        with open(out / f"{workload}.spans.jsonl") as handle:
            spans = [json.loads(line) for line in handle]
        assert spans, workload
        by_id = {span["id"]: span for span in spans}
        child_ns = defaultdict(int)
        for span in spans:
            assert span["end_ns"] >= span["start_ns"]
            if span["parent"] >= 0:
                parent = by_id[span["parent"]]
                assert parent["start_ns"] <= span["start_ns"]
                assert span["end_ns"] <= parent["end_ns"]
                child_ns[span["parent"]] += span["end_ns"] - span["start_ns"]
        for span in spans:
            assert span["end_ns"] - span["start_ns"] - child_ns[span["id"]] >= 0


def test_corrupted_answer_fails_the_run():
    proc = run_bench("--workload", "solo", "--corrupt-answer")
    assert proc.returncode != 0
    final = json.loads(proc.stdout.splitlines()[-1])
    assert final["correct"] is False and final["failed"] >= 1


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e")
    proc = run_bench("--workload", "solo", script=tmp_path / "benchmarks" / "e2e" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
