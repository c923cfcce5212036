"""Serving metrics: latency, Definition 9 cost, cache hits, queue depth.

A thread-safe registry shared by every query path of the
:class:`~repro.serving.engine.QueryEngine`.  Each engine call is tracked
through the :meth:`MetricsRegistry.track_rows` context manager (one
registry update per call, however many rows it serves), which measures
wall-clock latency and maintains the in-flight queue-depth gauge; the
engine fills in the cost and cache outcome on the returned
:class:`QueryRecord`.  Callers that serve one query at a time (the cluster
coordinator) use :meth:`MetricsRegistry.track`, the one-row form.
:meth:`as_dict` exports a flat snapshot for reporting (the ``serve-bench``
CLI renders it).
"""

from __future__ import annotations

import threading
import time

from repro.stats import LatencyWindow


class QueryRecord:
    """Context manager tracking one call that serves ``rows`` queries.

    Returned by :meth:`MetricsRegistry.track_rows` (and by
    :meth:`MetricsRegistry.track`, a one-row call); the caller fills in
    the cost and cache outcome while serving, and the registry folds the
    record in on exit under one lock.
    """

    __slots__ = (
        "_registry",
        "rows",
        "batched",
        "hits",
        "cost",
        "max_cost",
        "slo_violated",
        "_start",
    )

    def __init__(
        self, registry: "MetricsRegistry", rows: int = 1, batched: bool = False
    ) -> None:
        self._registry = registry
        self.rows = rows
        #: True when the rows arrived through ``query_batch``.
        self.batched = batched
        #: Rows answered from the result cache.
        self.hits = 0
        #: Definition 9 cost (tuples evaluated) summed over the rows;
        #: cache hits add 0.
        self.cost = 0
        #: Largest single-row cost (a one-row record uses :attr:`cost`).
        self.max_cost = 0
        #: True when the rows' end-to-end latency missed their SLO target
        #: (only the gateway sets this — offline paths have no SLO).
        self.slo_violated = False
        self._start = 0.0

    @property
    def hit(self) -> bool:
        """True when every row came from the result cache."""
        return self.hits == self.rows

    @hit.setter
    def hit(self, value: bool) -> None:
        self.hits = self.rows if value else 0

    def __enter__(self) -> "QueryRecord":
        registry = self._registry
        with registry._lock:
            registry.queue_depth += self.rows
            if registry.queue_depth > registry.max_queue_depth:
                registry.max_queue_depth = registry.queue_depth
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        elapsed = time.perf_counter() - self._start
        if exc_type is None:
            served, hits = self.rows, self.hits
        else:
            # A call that raises returns no row: it counts as one failed
            # query (a miss), however many rows it carried.
            served, hits = 1, 0
        max_cost = self.cost if self.rows == 1 else self.max_cost
        registry = self._registry
        with registry._lock:
            registry.queue_depth -= self.rows
            registry.queries += served
            registry.cache_hits += hits
            registry.cache_misses += served - hits
            if self.batched:
                registry.batched_queries += served
            if self.slo_violated:
                registry.slo_violations += served
            registry.total_cost += self.cost
            if max_cost > registry.max_cost:
                registry.max_cost = max_cost
            registry._latency.record_many(elapsed / served, served)


class MetricsRegistry:
    """Aggregates per-query serving metrics; safe for concurrent writers.

    Thread-safety contract: every mutation — a tracked
    :class:`QueryRecord`'s enter/exit, :meth:`record_external`,
    :meth:`reset` — runs under the registry's single lock, covering the
    counters *and* the latency window together, so concurrent writers
    (the serving engine's thread pool, the cluster coordinator driving
    one registry per shard from its scatter threads) can never lose an
    update or tear a counter/latency pair.  :meth:`as_dict` snapshots under the same lock.
    """

    def __init__(self, *, latency_window: int = 4096) -> None:
        self._lock = threading.Lock()
        self.queries = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.batched_queries = 0
        self.total_cost = 0
        self.max_cost = 0
        self.queue_depth = 0
        self.max_queue_depth = 0
        #: Queries whose end-to-end latency missed the SLO target (set per
        #: query by the gateway via :class:`QueryRecord.slo_violated` or
        #: :meth:`record_external`).
        self.slo_violations = 0
        self.batches = 0
        self.batch_rows = 0
        self.max_batch_size = 0
        #: Batch-size histogram: power-of-two bucket lower bound -> count
        #: (a batch of 12 rows lands in bucket 8).
        self.batch_size_hist: dict[int, int] = {}
        #: Per-kernel dispatch counters: kernel name ("reference", "csr",
        #: "batch", "native") -> queries served by that kernel.  Cache
        #: hits touch no kernel and are not counted here, so the sum
        #: attributes exactly the traversal work (bench runs read these
        #: to attribute wins to the kernel that produced them).
        self.kernel_counts: dict[str, int] = {}
        self.started_at = time.perf_counter()
        self._latency = LatencyWindow(latency_window)
        #: Amortized per-query latency of batched execution (seconds/row,
        #: one sample per batch) — the figure that shows what batching
        #: buys over the per-query latency window above.
        self._batch_amortized = LatencyWindow(latency_window)

    def track(self) -> QueryRecord:
        """Track one query: latency, queue depth, and the caller's record."""
        return QueryRecord(self)

    def track_rows(self, rows: int, *, batched: bool) -> QueryRecord:
        """Track one call serving ``rows`` queries: a single registry update.

        The engine's serving path answers a whole weight matrix per call
        (a solo query is a one-row call), so it takes the lock twice per
        call rather than twice per row.  The ``rows`` queries count as
        in flight for the call's duration; on a normal exit every row is
        counted as served — a hit for each of the record's ``hits``, a
        miss otherwise — and each row gets the call's amortized latency
        ``elapsed / rows`` as its latency sample.  A call that raises
        returns no row and counts as one failed query (a miss with the
        call's latency), whatever its width.  ``batched`` marks the rows
        as ``query_batch`` traffic.
        """
        return QueryRecord(self, rows, batched)

    def record_external(
        self,
        *,
        cost: int,
        seconds: float | None = None,
        hit: bool = False,
        batched: bool = False,
        slo_violated: bool = False,
    ) -> None:
        """Fold in one query served outside :meth:`track`.

        The cluster coordinator's threshold merge drives shard cursors
        directly (round-robin, interleaved across shards), so a shard's
        share of the work has no contiguous wall-clock span to wrap in
        :meth:`track`; the gateway likewise records each query's
        end-to-end latency and SLO outcome after its flush.  This records
        one served query's cost (and optionally its latency), under the
        same single lock.
        """
        with self._lock:
            self.queries += 1
            if hit:
                self.cache_hits += 1
            else:
                self.cache_misses += 1
            if batched:
                self.batched_queries += 1
            if slo_violated:
                self.slo_violations += 1
            self.total_cost += cost
            if cost > self.max_cost:
                self.max_cost = cost
            if seconds is not None:
                self._latency.record(seconds)

    def record_kernel(self, name: str, count: int = 1) -> None:
        """Attribute ``count`` served queries to kernel ``name``.

        Called by the engine once per dispatched k-group with the group's
        lane count (never for cache hits).  Surfaced as ``kernel_<name>``
        in :meth:`as_dict` and summed by :meth:`aggregate`.
        """
        if count <= 0:
            return
        with self._lock:
            self.kernel_counts[name] = self.kernel_counts.get(name, 0) + count

    def record_batch(self, size: int, seconds: float | None = None) -> None:
        """Record one batch of ``size`` rows computed under one dispatch.

        Feeds the batch-size histogram (power-of-two buckets) and, when
        ``seconds`` is given, the amortized per-query latency window with
        one ``seconds / size`` sample.  Per-row counters are *not*
        touched here — the rows are counted by the call's
        :meth:`track_rows` record — so ``batch_rows`` vs ``queries``
        separates kernel invocations from served queries.
        """
        if size <= 0:
            return
        with self._lock:
            self.batches += 1
            self.batch_rows += size
            if size > self.max_batch_size:
                self.max_batch_size = size
            bucket = 1 << (int(size).bit_length() - 1)
            self.batch_size_hist[bucket] = self.batch_size_hist.get(bucket, 0) + 1
            if seconds is not None:
                self._batch_amortized.record(seconds / size)

    @staticmethod
    def aggregate(registries: "list[MetricsRegistry]") -> dict[str, float]:
        """One flat snapshot summed across registries (cluster roll-up).

        Counters add; queue depths take the max; latency percentiles are
        computed over the union of every registry's latency window, so the
        roll-up reflects the pooled query population rather than an
        average of percentiles.  Throughput is likewise pooled — total
        queries over the elapsed time since the *earliest* registry
        started — matching what single-engine ``stats()`` reports as
        ``throughput_qps`` (summing per-registry rates would double-count
        the shared wall clock).  Each registry is snapshotted under its
        own lock.
        """
        queries = hits = misses = batched = 0
        total_cost = 0
        max_cost = 0
        queue_depth = max_queue_depth = 0
        slo_violations = 0
        batches = batch_rows = max_batch_size = 0
        batch_hist: dict[int, int] = {}
        kernel_counts: dict[str, int] = {}
        samples: list[float] = []
        amortized: list[float] = []
        total_seconds = 0.0
        lifetime = 0
        earliest_start: float | None = None
        for registry in registries:
            with registry._lock:
                queries += registry.queries
                hits += registry.cache_hits
                misses += registry.cache_misses
                batched += registry.batched_queries
                total_cost += registry.total_cost
                max_cost = max(max_cost, registry.max_cost)
                queue_depth = max(queue_depth, registry.queue_depth)
                max_queue_depth = max(max_queue_depth, registry.max_queue_depth)
                slo_violations += registry.slo_violations
                batches += registry.batches
                batch_rows += registry.batch_rows
                max_batch_size = max(max_batch_size, registry.max_batch_size)
                for bucket, count in registry.batch_size_hist.items():
                    batch_hist[bucket] = batch_hist.get(bucket, 0) + count
                for name, count in registry.kernel_counts.items():
                    kernel_counts[name] = kernel_counts.get(name, 0) + count
                samples.extend(registry._latency._samples)
                amortized.extend(registry._batch_amortized._samples)
                total_seconds += registry._latency.total
                lifetime += registry._latency.count
                if earliest_start is None or registry.started_at < earliest_start:
                    earliest_start = registry.started_at
        elapsed = (
            time.perf_counter() - earliest_start
            if earliest_start is not None
            else 0.0
        )
        from repro.stats.latency import percentile

        scaled = [s * 1e3 for s in samples]
        amortized_ms = [s * 1e3 for s in amortized]
        merged = {
            "queries": float(queries),
            "batched_queries": float(batched),
            "cache_hits": float(hits),
            "cache_misses": float(misses),
            "hit_rate": hits / queries if queries else 0.0,
            "total_cost": float(total_cost),
            "mean_cost": total_cost / queries if queries else 0.0,
            "max_cost": float(max_cost),
            "latency_ms_mean": (total_seconds / lifetime * 1e3) if lifetime else 0.0,
            "latency_ms_p50": percentile(scaled, 50.0),
            "latency_ms_p95": percentile(scaled, 95.0),
            "latency_ms_p99": percentile(scaled, 99.0),
            "latency_ms_max": max(scaled) if scaled else 0.0,
            "throughput_qps": queries / elapsed if elapsed > 0 else 0.0,
            "queue_depth": float(queue_depth),
            "max_queue_depth": float(max_queue_depth),
            "slo_violations": float(slo_violations),
            "batches": float(batches),
            "batch_rows": float(batch_rows),
            "batch_size_mean": batch_rows / batches if batches else 0.0,
            "batch_size_max": float(max_batch_size),
            "batch_amortized_ms_p50": percentile(amortized_ms, 50.0),
            "batch_amortized_ms_p95": percentile(amortized_ms, 95.0),
        }
        for bucket in sorted(batch_hist):
            merged[f"batch_size_hist_{bucket}"] = float(batch_hist[bucket])
        for name in sorted(kernel_counts):
            merged[f"kernel_{name}"] = float(kernel_counts[name])
        return merged

    @property
    def hit_rate(self) -> float:
        """Cache hit fraction over all served queries (0 when idle)."""
        return self.cache_hits / self.queries if self.queries else 0.0

    @property
    def mean_cost(self) -> float:
        """Mean Definition 9 cost per query (cache hits count as 0)."""
        return self.total_cost / self.queries if self.queries else 0.0

    def throughput(self) -> float:
        """Served queries per second since the registry was created."""
        elapsed = time.perf_counter() - self.started_at
        return self.queries / elapsed if elapsed > 0 else 0.0

    def as_dict(self) -> dict[str, float]:
        """Flat snapshot of every gauge and summary statistic."""
        with self._lock:
            latency = self._latency.summary(scale=1e3)
            amortized = self._batch_amortized.summary(scale=1e3)
            snapshot = {
                "queries": float(self.queries),
                "batched_queries": float(self.batched_queries),
                "cache_hits": float(self.cache_hits),
                "cache_misses": float(self.cache_misses),
                "hit_rate": self.hit_rate,
                "total_cost": float(self.total_cost),
                "mean_cost": self.mean_cost,
                "max_cost": float(self.max_cost),
                "latency_ms_mean": latency["mean"],
                "latency_ms_p50": latency["p50"],
                "latency_ms_p95": latency["p95"],
                "latency_ms_p99": latency["p99"],
                "latency_ms_max": latency["max"],
                "queue_depth": float(self.queue_depth),
                "max_queue_depth": float(self.max_queue_depth),
                "slo_violations": float(self.slo_violations),
                "batches": float(self.batches),
                "batch_rows": float(self.batch_rows),
                "batch_size_mean": (
                    self.batch_rows / self.batches if self.batches else 0.0
                ),
                "batch_size_max": float(self.max_batch_size),
                "batch_amortized_ms_p50": amortized["p50"],
                "batch_amortized_ms_p95": amortized["p95"],
            }
            for bucket in sorted(self.batch_size_hist):
                snapshot[f"batch_size_hist_{bucket}"] = float(
                    self.batch_size_hist[bucket]
                )
            for name in sorted(self.kernel_counts):
                snapshot[f"kernel_{name}"] = float(self.kernel_counts[name])
            return snapshot

    def reset(self) -> None:
        """Zero every counter and restart the clock (for benchmark phases)."""
        with self._lock:
            self.queries = 0
            self.cache_hits = 0
            self.cache_misses = 0
            self.batched_queries = 0
            self.total_cost = 0
            self.max_cost = 0
            self.max_queue_depth = self.queue_depth
            self.slo_violations = 0
            self.batches = 0
            self.batch_rows = 0
            self.max_batch_size = 0
            self.batch_size_hist = {}
            self.kernel_counts = {}
            self.started_at = time.perf_counter()
            window = self._latency._samples.maxlen or 4096
            self._latency = LatencyWindow(window)
            self._batch_amortized = LatencyWindow(window)
