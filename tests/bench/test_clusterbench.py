"""Cluster benchmark suite: smoke coverage, validator, CLI, committed report."""

import json

import pytest

from repro.bench.clusterbench import (
    run_cluster_bench,
    validate_cluster_report,
    write_report,
)


@pytest.fixture(scope="module")
def smoke_report():
    return run_cluster_bench(
        distributions=("IND",),
        shard_counts=(2,),
        d=3,
        n=400,
        k=5,
        queries=4,
        partitioner="round-robin",
        seed=7,
    )


def test_run_cluster_bench_smoke(smoke_report, tmp_path):
    report = smoke_report
    assert report["suite"] == "cluster"
    assert len(report["cells"]) == 1
    cell = report["cells"][0]
    assert cell["distribution"] == "IND" and cell["n"] == 400
    assert cell["single_node"]["mean_cost"] >= 5  # at least k tuples
    [entry] = cell["clusters"]
    assert entry["shards"] == 2
    assert entry["bitwise_equal"] is True
    assert entry["threshold_le_naive"] is True
    assert (
        entry["merges"]["threshold"]["mean_cost"]
        <= entry["merges"]["naive"]["mean_cost"]
    )
    for merge in ("naive", "threshold"):
        assert entry["merges"][merge]["p95_ms"] >= entry["merges"][merge]["p50_ms"]

    validate_cluster_report(report)
    out = tmp_path / "BENCH_cluster.json"
    write_report(report, str(out))
    assert json.loads(out.read_text()) == report


def test_shard_throughput_excludes_build_time(monkeypatch):
    """``shard_throughput_qps`` divides by the time the merge streams
    served, not by the time since the first shard was built: a cluster
    whose construction takes a full second still reports the serving
    rate."""
    import time

    from repro.bench import clusterbench

    build_pause = 1.0
    built = []

    class SlowBuildCluster(clusterbench.ClusterEngine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            time.sleep(build_pause)
            built.append(self)

    monkeypatch.setattr(clusterbench, "ClusterEngine", SlowBuildCluster)
    report = run_cluster_bench(
        distributions=("IND",),
        shard_counts=(2,),
        d=3,
        n=400,
        k=5,
        queries=4,
        partitioner="round-robin",
        seed=7,
    )
    [entry] = report["cells"][0]["clusters"]
    [cluster] = built
    shard_queries = cluster.stats()["shards"]["queries"]
    assert shard_queries > 0
    # Counting the pause would cap the rate at shard_queries / pause.
    assert entry["shard_throughput_qps"] > shard_queries / build_pause


def test_validator_rejects_drift(smoke_report):
    import copy

    broken = copy.deepcopy(smoke_report)
    broken["suite"] = "wallclock"
    with pytest.raises(ValueError, match="unexpected suite"):
        validate_cluster_report(broken)

    broken = copy.deepcopy(smoke_report)
    broken["cells"][0]["clusters"][0]["bitwise_equal"] = False
    with pytest.raises(ValueError, match="bitwise"):
        validate_cluster_report(broken)

    broken = copy.deepcopy(smoke_report)
    broken["cells"][0]["clusters"][0]["merges"].pop("threshold")
    with pytest.raises(ValueError, match="missing merge"):
        validate_cluster_report(broken)

    broken = copy.deepcopy(smoke_report)
    broken["cells"][0]["clusters"][0]["merges"]["threshold"]["mean_cost"] = 10**9
    with pytest.raises(ValueError, match="exceeds naive"):
        validate_cluster_report(broken)

    with pytest.raises(ValueError, match="missing key"):
        validate_cluster_report({})


def test_cli_cluster_bench_smoke(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "report.json"
    code = main(
        [
            "cluster-bench",
            "--distributions", "IND",
            "--shards", "2",
            "--d", "3",
            "--n", "300",
            "--k", "4",
            "--queries", "3",
            "--partitioner", "angular",
            "--out", str(out),
        ]
    )
    assert code == 0
    report = json.loads(out.read_text())
    validate_cluster_report(report)
    assert "wrote 1 cells" in capsys.readouterr().out


def test_committed_report_passes_validator():
    """The repository's BENCH_cluster.json must stay schema-valid."""
    from pathlib import Path

    path = Path(__file__).resolve().parents[2] / "BENCH_cluster.json"
    validate_cluster_report(json.loads(path.read_text()))
