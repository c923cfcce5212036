"""Metrics registry: counters, latency summary, queue depth, thread safety."""

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.serving import MetricsRegistry
from repro.stats import LatencyWindow, percentile


def test_track_records_hits_misses_and_cost():
    registry = MetricsRegistry()
    with registry.track_rows(1) as record:
        record.cost = 40
    with registry.track_rows(1) as record:
        record.hits = 1
        record.cost = 0
    assert registry.queries == 2
    assert registry.cache_hits == 1 and registry.cache_misses == 1
    assert registry.hit_rate == 0.5
    assert registry.total_cost == 40 and registry.max_cost == 40
    assert registry.mean_cost == 20.0


def test_queue_depth_gauge():
    registry = MetricsRegistry()
    with registry.track_rows(1):
        with registry.track_rows(1):
            assert registry.queue_depth == 2
    assert registry.queue_depth == 0
    assert registry.max_queue_depth == 2


def test_as_dict_exposes_all_series():
    registry = MetricsRegistry()
    with registry.track_rows(1) as record:
        record.cost = 10
        record.batched = True
    snapshot = registry.as_dict()
    for key in (
        "queries",
        "batched_queries",
        "cache_hits",
        "cache_misses",
        "hit_rate",
        "mean_cost",
        "latency_ms_mean",
        "latency_ms_p50",
        "latency_ms_p95",
        "latency_ms_p99",
        "queue_depth",
        "max_queue_depth",
    ):
        assert key in snapshot
    assert snapshot["queries"] == 1.0
    assert snapshot["batched_queries"] == 1.0
    assert snapshot["latency_ms_mean"] > 0.0


def test_failed_query_still_tracked():
    registry = MetricsRegistry()
    with pytest.raises(RuntimeError):
        with registry.track_rows(1):
            raise RuntimeError("query blew up")
    assert registry.queries == 1
    assert registry.queue_depth == 0


def test_reset():
    registry = MetricsRegistry()
    with registry.track_rows(1) as record:
        record.cost = 5
    registry.reset()
    assert registry.queries == 0
    assert registry.as_dict()["total_cost"] == 0.0


def test_concurrent_track_loses_no_updates():
    """Hammering track_rows(1) from many threads must account for every
    query — the single-lock contract: counters and the latency window move together
    and no increment is ever torn or dropped."""
    registry = MetricsRegistry()
    per_thread, threads = 200, 8

    def worker(thread_id: int) -> None:
        for i in range(per_thread):
            with registry.track_rows(1) as record:
                record.cost = 3
                record.hits = int(i % 2 == 0)
                record.batched = (thread_id % 2) == 0

    with ThreadPoolExecutor(max_workers=threads) as pool:
        list(pool.map(worker, range(threads)))

    total = per_thread * threads
    assert registry.queries == total
    assert registry.cache_hits == total // 2
    assert registry.cache_misses == total // 2
    assert registry.batched_queries == total // 2
    assert registry.total_cost == 3 * total
    assert registry.queue_depth == 0
    assert registry._latency.count == total


def test_concurrent_query_many_loses_no_metric_updates():
    """End-to-end: a thread-pooled query_many over a live engine must leave
    the registry exactly accounting for every served query."""
    import numpy as np

    from repro.core import DLPlusIndex
    from repro.data import generate
    from repro.serving import QueryEngine

    relation = generate("IND", 200, 3, seed=44)
    engine = QueryEngine(DLPlusIndex(relation), cache_size=0)
    rng = np.random.default_rng(3)
    queries = [(rng.dirichlet(np.ones(3)), 5) for _ in range(64)]
    results = engine.query_many(queries, max_workers=8)
    assert len(results) == 64
    metrics = engine.metrics
    assert metrics.queries == 64
    assert metrics.cache_misses == 64  # cache disabled: every query served
    assert metrics.total_cost == sum(result.cost for result in results)
    assert metrics._latency.count == 64
    assert metrics.queue_depth == 0


def test_record_external_folds_in_one_query():
    registry = MetricsRegistry()
    registry.record_external(cost=17, seconds=0.004)
    registry.record_external(cost=0, hit=True)
    assert registry.queries == 2
    assert registry.cache_hits == 1 and registry.cache_misses == 1
    assert registry.total_cost == 17 and registry.max_cost == 17
    assert registry._latency.count == 1  # hit recorded no latency sample


def test_aggregate_pools_registries():
    a, b = MetricsRegistry(), MetricsRegistry()
    with a.track_rows(1) as record:
        record.cost = 10
    with b.track_rows(1) as record:
        record.cost = 30
        record.hits = 1
    rollup = MetricsRegistry.aggregate([a, b])
    assert rollup["queries"] == 2.0
    assert rollup["cache_hits"] == 1.0
    assert rollup["total_cost"] == 40.0
    assert rollup["mean_cost"] == 20.0
    assert rollup["max_cost"] == 30.0
    # Percentiles come from the pooled sample population, not an average
    # of per-registry percentiles.
    assert rollup["latency_ms_max"] >= max(
        a.as_dict()["latency_ms_max"], b.as_dict()["latency_ms_max"]
    )
    empty = MetricsRegistry.aggregate([])
    assert empty["queries"] == 0.0 and empty["latency_ms_p50"] == 0.0


def test_slo_violations_counted_and_reset():
    registry = MetricsRegistry()
    registry.record_external(cost=5, seconds=0.002, slo_violated=True)
    registry.record_external(cost=5, seconds=0.001)
    with registry.track_rows(1) as record:
        record.cost = 3
        record.slo_violated = True
    assert registry.slo_violations == 2
    assert registry.as_dict()["slo_violations"] == 2.0
    registry.reset()
    assert registry.slo_violations == 0
    assert registry.as_dict()["slo_violations"] == 0.0


def test_aggregate_pools_throughput_and_slo():
    """Regression: the roll-up used to omit throughput entirely.  Pooled
    semantics: total queries over the window since the *earliest* registry
    started — summing per-registry rates would double-count the shared
    wall clock."""
    import time

    a, b = MetricsRegistry(), MetricsRegistry()
    now = time.perf_counter()
    a.started_at = now - 2.0  # earliest: defines the pooled window
    b.started_at = now - 1.0
    for _ in range(6):
        a.record_external(cost=1, seconds=0.001)
    for _ in range(4):
        b.record_external(cost=1, seconds=0.001, slo_violated=True)
    rollup = MetricsRegistry.aggregate([a, b])
    assert rollup["queries"] == 10.0
    assert rollup["slo_violations"] == 4.0
    # 10 queries over the ~2s pooled window — not 6/2 + 4/1 = 7 q/s.
    assert rollup["throughput_qps"] == pytest.approx(5.0, rel=0.05)
    assert MetricsRegistry.aggregate([])["throughput_qps"] == 0.0


def test_record_batch_histogram_and_amortized_latency():
    registry = MetricsRegistry()
    registry.record_batch(1, seconds=0.001)
    registry.record_batch(8, seconds=0.004)
    registry.record_batch(12, seconds=0.006)  # buckets with 8 (power of two)
    registry.record_batch(32, seconds=0.008)
    registry.record_batch(0)  # no-op
    assert registry.batches == 4
    assert registry.batch_rows == 1 + 8 + 12 + 32
    assert registry.max_batch_size == 32
    assert registry.batch_size_hist == {1: 1, 8: 2, 32: 1}
    snapshot = registry.as_dict()
    assert snapshot["batches"] == 4.0
    assert snapshot["batch_rows"] == 53.0
    assert snapshot["batch_size_max"] == 32.0
    assert snapshot["batch_size_mean"] == pytest.approx(53 / 4)
    assert snapshot["batch_size_hist_8"] == 2.0
    # Amortized per-query latencies: 1.0ms, 0.5ms, 0.5ms, 0.25ms.
    assert snapshot["batch_amortized_ms_p50"] == pytest.approx(0.5)
    registry.reset()
    assert registry.batches == 0 and registry.batch_size_hist == {}
    assert registry.as_dict()["batch_amortized_ms_p50"] == 0.0


def test_aggregate_rolls_up_batch_series():
    a, b = MetricsRegistry(), MetricsRegistry()
    a.record_batch(8, seconds=0.008)
    b.record_batch(8, seconds=0.004)
    b.record_batch(64, seconds=0.016)
    rollup = MetricsRegistry.aggregate([a, b])
    assert rollup["batches"] == 3.0
    assert rollup["batch_rows"] == 80.0
    assert rollup["batch_size_max"] == 64.0
    assert rollup["batch_size_hist_8"] == 2.0
    assert rollup["batch_size_hist_64"] == 1.0
    # Pooled amortized samples: 1.0ms, 0.5ms, 0.25ms — not a mean of means.
    assert rollup["batch_amortized_ms_p50"] == pytest.approx(0.5)


def test_percentile_interpolation():
    values = [1.0, 2.0, 3.0, 4.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 4.0
    assert percentile(values, 50) == 2.5
    assert percentile([], 50) == 0.0
    assert percentile([7.0], 95) == 7.0
    with pytest.raises(ValueError):
        percentile(values, 101)


def test_latency_window_bounds_samples():
    window = LatencyWindow(window=4)
    for sample in (1.0, 2.0, 3.0, 4.0, 5.0):
        window.record(sample)
    assert window.count == 5  # lifetime count keeps growing
    summary = window.summary(scale=1.0)
    assert summary["max"] == 5.0
    assert summary["p50"] == 3.5  # windowed: [2, 3, 4, 5]
    assert window.mean == 3.0  # lifetime mean over all 5 samples
    with pytest.raises(ValueError):
        LatencyWindow(window=0)
