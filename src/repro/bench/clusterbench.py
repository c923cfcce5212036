"""Cluster benchmark: single node vs sharded scatter-gather, cost and latency.

For each (distribution, shard count) cell the same workload is served twice
through a :class:`~repro.cluster.ClusterEngine` — once per merge strategy —
and once through a single-node :class:`~repro.serving.QueryEngine` baseline
over the unpartitioned relation.  Reported per merge: mean Definition 9
cost (summed over shards, Definition 9's natural cluster extension) and
wall-clock p50/p95 per query.

Every served query doubles as an oracle check, the discipline the other
timing suites (:mod:`repro.bench.wallclock`, :mod:`repro.bench.buildprof`)
apply: both merges' answers must be **bitwise identical** (ids and float
scores) to the single-node answer, and the threshold merge's cost must not
exceed the naive merge's on any query.  A run that produced a wrong or
costlier-than-naive answer raises instead of reporting.

The default grid is the acceptance grid of the committed
``BENCH_cluster.json`` — IND/ANT, d=4, n=20k, shards ∈ {2, 4, 8} under the
angular partitioner — and the CLI (``repro-topk cluster-bench``) scales
every axis down for smoke runs (CI uses n=1500, shards 2).
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

from repro.bench.workload import DEFAULT_SEED, Workload, write_report
from repro.cluster import MERGE_STRATEGIES, PARTITIONERS, ClusterEngine
from repro.exceptions import SerializationError
from repro.stats.latency import percentile

__all__ = [
    "DEFAULT_DISTRIBUTIONS",
    "DEFAULT_SHARD_COUNTS",
    "run_cluster_bench",
    "validate_cluster_report",
    "write_report",
]

#: The acceptance grid (matches the committed BENCH_cluster.json) — the
#: IND/ANT pair of the suite-wide grid (:mod:`repro.bench.workload`).
DEFAULT_DISTRIBUTIONS = ("IND", "ANT")
DEFAULT_SHARD_COUNTS = (2, 4, 8)


def _serve_stream(serve, weights, k: int) -> dict:
    """Serve every weight vector; returns answers + cost/latency summaries.

    ``serve(w, k)`` must return an object with ``ids``/``scores``/``cost``.
    """
    answers = []
    costs: list[int] = []
    latencies: list[float] = []
    for w in weights:
        start = time.perf_counter()
        result = serve(w, k)
        latencies.append((time.perf_counter() - start) * 1e3)
        answers.append((result.ids, result.scores))
        costs.append(result.cost)
    return {
        "answers": answers,
        "costs": costs,
        "mean_cost": round(float(np.mean(costs)), 2),
        "p50_ms": round(percentile(latencies, 50.0), 4),
        "p95_ms": round(percentile(latencies, 95.0), 4),
    }


def _bitwise_equal(reference, candidate) -> bool:
    """True when two answer streams agree bitwise (ids and score bytes)."""
    return all(
        np.array_equal(ids_ref, ids)
        and scores_ref.tobytes() == scores.tobytes()
        for (ids_ref, scores_ref), (ids, scores) in zip(reference, candidate)
    )


def run_cluster_bench(
    *,
    distributions=DEFAULT_DISTRIBUTIONS,
    shard_counts=DEFAULT_SHARD_COUNTS,
    d: int = 4,
    n: int = 20_000,
    k: int = 10,
    queries: int = 32,
    partitioner: str = "angular",
    seed: int = DEFAULT_SEED,
    algorithm: str = "DL+",
    snapshot_dir: str | None = None,
    progress=None,
) -> dict:
    """Run the grid; returns the JSON-serializable report.

    ``snapshot_dir`` makes builds resumable across invocations: the
    single-node index and every shard index are persisted there as mmap
    snapshots on the first run and re-opened (instead of rebuilt) on the
    next — the report's ``build_seconds`` then measure the open, which is
    the capacity-run wall-clock the flag exists to cut.  Answers are
    bitwise-unchanged either way (a snapshot serves byte-identical
    arrays).  ``progress`` is an optional ``callable(str)`` fed one line
    per (distribution, shard count); the CLI passes ``print``.
    """
    from repro import ALGORITHMS
    from repro.io.snapshot import open_snapshot, save_snapshot
    from repro.serving import QueryEngine

    index_class = ALGORITHMS[algorithm]
    cells = []
    for distribution in distributions:
        workload = Workload.make(distribution, n, d, queries, seed)

        single_home = (
            Path(snapshot_dir) / f"single-{distribution}"
            if snapshot_dir is not None
            else None
        )
        start = time.perf_counter()
        index = None
        if single_home is not None:
            try:
                candidate = open_snapshot(single_home)
                if np.array_equal(
                    candidate.relation.matrix, workload.relation.matrix
                ):
                    index = candidate
            except SerializationError:
                pass
        if index is None:
            try:
                index = index_class(workload.relation, max_layers=k).build()
            except TypeError:  # algorithm without a max_layers knob
                index = index_class(workload.relation).build()
            if single_home is not None:
                save_snapshot(index, single_home)
        single_build = time.perf_counter() - start
        single_engine = QueryEngine(index, cache_size=0)
        single = _serve_stream(single_engine.query, workload.weights, k)
        reference = single.pop("answers")
        single.pop("costs")
        single["build_seconds"] = round(single_build, 3)

        clusters = []
        for shards in shard_counts:
            start = time.perf_counter()
            cluster = ClusterEngine(
                workload.relation,
                shards=shards,
                partitioner=partitioner,
                index_class=index_class,
                index_kwargs={"max_layers": k},
                cache_size=0,
                snapshot_dir=(
                    Path(snapshot_dir) / f"{distribution}-shards{shards}"
                    if snapshot_dir is not None
                    else None
                ),
            )
            cluster_build = time.perf_counter() - start
            merges: dict[str, dict] = {}
            streams: dict[str, dict] = {}
            serve_seconds = 0.0
            for merge in MERGE_STRATEGIES:
                cluster.merge = merge
                start = time.perf_counter()
                stream = _serve_stream(cluster.query, workload.weights, k)
                serve_seconds += time.perf_counter() - start
                if not _bitwise_equal(reference, stream["answers"]):
                    raise AssertionError(
                        f"cluster mismatch: {merge} merge disagrees with the "
                        f"single node for {distribution} shards={shards} "
                        f"(partitioner={partitioner})"
                    )
                streams[merge] = stream
                merges[merge] = {
                    key: stream[key] for key in ("mean_cost", "p50_ms", "p95_ms")
                }
            dominated = all(
                t <= nv
                for t, nv in zip(
                    streams["threshold"]["costs"], streams["naive"]["costs"]
                )
            )
            if not dominated:
                raise AssertionError(
                    f"threshold merge cost exceeded naive for {distribution} "
                    f"shards={shards} (partitioner={partitioner})"
                )
            # Pooled shard throughput: total queries the shard fleet
            # absorbed over the wall time of the two merge streams.  The
            # roll-up's own rate counts from the first shard's build, so
            # it would also divide by the builds of the later shards.
            shard_qps = cluster.stats()["shards"]["queries"] / serve_seconds
            clusters.append(
                {
                    "shards": shards,
                    "build_seconds": round(cluster_build, 3),
                    "merges": merges,
                    "shard_throughput_qps": round(shard_qps, 1),
                    "bitwise_equal": True,
                    "threshold_le_naive": True,
                }
            )
            if progress is not None:
                progress(
                    f"{distribution} shards={shards}: "
                    f"naive cost {merges['naive']['mean_cost']:.1f}, "
                    f"threshold cost {merges['threshold']['mean_cost']:.1f} "
                    f"(single node {single['mean_cost']:.1f}); "
                    f"threshold p50 {merges['threshold']['p50_ms']:.3f}ms, "
                    f"shard pool {shard_qps:.0f} q/s"
                )
        cells.append(
            {
                "distribution": distribution,
                "d": d,
                "n": n,
                "k": k,
                "partitioner": partitioner,
                "single_node": single,
                "clusters": clusters,
            }
        )
    return {
        "suite": "cluster",
        "algorithm": algorithm,
        "k": k,
        "queries": queries,
        "partitioner": partitioner,
        "seed": seed,
        "cells": cells,
    }


def validate_cluster_report(report: dict) -> None:
    """Schema check for a cluster-bench report; raises ``ValueError`` on drift.

    Used by CI after the smoke run and available to consumers that load a
    committed ``BENCH_cluster.json``.
    """
    for key in ("suite", "algorithm", "k", "queries", "partitioner", "seed", "cells"):
        if key not in report:
            raise ValueError(f"cluster report missing key {key!r}")
    if report["suite"] != "cluster":
        raise ValueError(f"unexpected suite {report['suite']!r}")
    if report["partitioner"] not in PARTITIONERS:
        raise ValueError(f"unknown partitioner {report['partitioner']!r}")
    if not report["cells"]:
        raise ValueError("cluster report has no cells")
    for cell in report["cells"]:
        for key in ("distribution", "d", "n", "k", "single_node", "clusters"):
            if key not in cell:
                raise ValueError(f"cluster cell missing key {key!r}")
        single = cell["single_node"]
        for key in ("mean_cost", "p50_ms", "p95_ms", "build_seconds"):
            if key not in single:
                raise ValueError(f"single_node summary missing key {key!r}")
        if not cell["clusters"]:
            raise ValueError("cluster cell has no shard-count entries")
        for entry in cell["clusters"]:
            for key in ("shards", "build_seconds", "merges"):
                if key not in entry:
                    raise ValueError(f"cluster entry missing key {key!r}")
            if entry.get("bitwise_equal") is not True:
                raise ValueError(
                    f"cluster entry shards={entry.get('shards')} is not "
                    "bitwise-equal to the single node"
                )
            if entry.get("threshold_le_naive") is not True:
                raise ValueError(
                    f"cluster entry shards={entry.get('shards')} lacks the "
                    "threshold<=naive cost guarantee"
                )
            # Optional: baselines committed before the roll-up gained a
            # pooled throughput lack this key; fresh reports carry it.
            if "shard_throughput_qps" in entry and (
                entry["shard_throughput_qps"] <= 0
            ):
                raise ValueError(
                    f"cluster entry shards={entry['shards']}: non-positive "
                    "pooled shard throughput"
                )
            for merge in MERGE_STRATEGIES:
                if merge not in entry["merges"]:
                    raise ValueError(f"cluster entry missing merge {merge!r}")
                summary = entry["merges"][merge]
                for key in ("mean_cost", "p50_ms", "p95_ms"):
                    if key not in summary:
                        raise ValueError(
                            f"merge {merge!r} summary missing key {key!r}"
                        )
                    if summary[key] < 0:
                        raise ValueError(f"merge {merge!r} has negative {key}")
            if (
                entry["merges"]["threshold"]["mean_cost"]
                > entry["merges"]["naive"]["mean_cost"]
            ):
                raise ValueError(
                    f"cluster entry shards={entry['shards']}: threshold mean "
                    "cost exceeds naive"
                )
