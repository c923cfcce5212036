"""The batched, cached, concurrent query-serving engine.

:class:`QueryEngine` fronts any built index — a static
:class:`~repro.core.base.TopKIndex` (DL/DL+/DG/DG+/baselines) or a mutable
:class:`~repro.core.maintenance.DynamicDualLayerIndex` — and serves query
traffic the way a deployed system would:

* **result caching** — answers are memoized in an LRU keyed by
  ``(quantized weights, k, structure version)`` (see
  :mod:`repro.serving.cache`); a hit returns the stored answer with *zero*
  tuple evaluations and the version key guarantees freshness across
  inserts/deletes and rebuilds;
* **batching** — :meth:`query_batch` validates and normalizes the whole
  weight matrix in one pass, builds every cache key from one read of the
  normalized matrix, deduplicates repeated weight vectors through the
  cache, groups the remaining rows by effective k, and dispatches each
  group once: a native group crosses into the compiled walker in one call
  (C scores the seeds and walks the lanes one after another on one
  workspace, GIL released), and on hosts without it the lane-parallel
  :func:`~repro.core.query.process_top_k_batch` kernel walks the gate graph
  once per round for *all* rows of the group.  :meth:`query` is a one-row
  pass through the same path.  Batched answers are byte-identical to
  sequential :meth:`query` calls (every kernel's bitwise-identity
  contract).  The loop itself lives in :class:`ServingLoop`, which the
  cluster coordinator (:class:`~repro.cluster.ClusterEngine`) shares;
* **per-call cost** — a call's fixed work is a handful of numpy calls,
  not one per step: validation reads the values once as python floats
  (:func:`check_rows`), normalization is numpy's row sum and one divide,
  the keys come from one rounded matrix read with one ``tolist``, k travels
  as python ints, a native group is one crossing with two allocations
  (:func:`~repro.core.native.native_walk_lanes`), and the metrics take
  the registry lock on entry and exit only (kernel counts ride on the
  call's record).  A one-row miss costs the C walk plus this fixed work,
  so this work, not the walk, sets solo latency;
* **concurrency** — :meth:`query_many` fans queries out over a thread pool.
  The frozen :class:`~repro.core.structure.LayerStructure` is read-only by
  contract and every query owns its
  :class:`~repro.stats.AccessCounter`/heap, so no locking is needed on the
  traversal itself (the cache and metrics registry carry their own locks);
* **metrics** — every query is counted in a
  :class:`~repro.serving.metrics.MetricsRegistry` (latency percentiles,
  Definition 9 cost, hit rate, queue depth) with one registry update per
  call, exportable as a flat dict (:meth:`QueryEngine.stats`; keys and
  counter semantics in DESIGN.md §3b).
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.core.base import TopKIndex, TopKResult, validate_k
from repro.core.dispatch import get_jit_kernel, select_kernel
from repro.core.native import NativeWorkspace, build_info
from repro.core.query import (
    BatchWorkspace,
    QueryWorkspace,
    process_top_k,
    process_top_k_batch,
    process_top_k_reference,
)
from repro.exceptions import InvalidQueryError, InvalidWeightError
from repro.relation import normalize_weights
from repro.serving.cache import ResultCache
from repro.serving.metrics import MetricsRegistry, QueryRecord
from repro.stats import AccessCounter


class ServingLoop:
    """The one cached serving loop, shared by every serving engine.

    :class:`QueryEngine` and :class:`~repro.cluster.ClusterEngine` serve
    through it: the whole weight matrix is validated and normalized in
    one pass, every cache key comes from one rounded matrix, cache hits
    are answered, duplicates of an in-flight key are deferred until their
    first occurrence is computed, the misses are grouped by effective k,
    and each call is counted by one metrics record.  A front end that
    queues requests (the :class:`~repro.serving.AsyncGateway`) asks
    :meth:`cached_answer` first: a hit is answered at admission from the
    same cache and keys, and only misses are queued, coalesced and
    served through the loop.  A subclass provides ``d``/``n``/``version``
    and three hooks:

    * :meth:`_compute` — the answers for one k-group of cache misses;
    * :meth:`_cached` — the result a cache hit returns;
    * :meth:`_cacheable` — whether a computed answer may enter the cache.

    ``_forward_raw`` picks the rows :meth:`_compute` receives: the
    normalized rows, or the caller's raw rows for a subclass whose
    backends normalize on their own.  Normalization is not bitwise
    idempotent (``sum(w / s)`` is not always exactly 1.0), so rows that
    are normalized again downstream must arrive raw or their scores
    shift by an ulp.
    """

    _forward_raw = False

    def __init__(
        self, *, cache_size: int, quantize_decimals: int, latency_window: int
    ) -> None:
        self.cache = ResultCache(cache_size, decimals=quantize_decimals)
        self.metrics = MetricsRegistry(latency_window=latency_window)
        self._seen_version = self.version

    def stats(self) -> dict:
        """Registry metrics plus the cache's occupancy.

        ``cache_hits``/``cache_misses`` are the registry's counts of rows
        served from the cache and computed; only ``entries``,
        ``capacity`` and ``evictions`` come from the cache itself.
        """
        snapshot = self.metrics.as_dict()
        cache = self.cache.stats()
        for key in ("entries", "capacity", "evictions"):
            snapshot[f"cache_{key}"] = float(cache[key])
        snapshot["throughput_qps"] = self.metrics.throughput()
        return snapshot

    def analytics(self):
        """A dual-direction :class:`~repro.analytics.AnalyticsEngine` facade.

        The facade serves reverse top-k / why-not / what-if through this
        engine (on a cluster, why-not ranks compose from per-shard beater
        counts); it snapshots placements per structure version, so the
        same facade stays valid across maintenance.
        """
        from repro.analytics import AnalyticsEngine

        return AnalyticsEngine(self)

    # ------------------------------------------------------------------ #
    # Serving paths
    # ------------------------------------------------------------------ #

    def query(self, weights: np.ndarray, k: int) -> TopKResult:
        """Serve one top-k query through the cache.

        A one-row pass through the :meth:`query_batch` path: same cache,
        dispatch and metrics code, but counted as a solo query — it is
        not a batched query and touches no batch counter.
        """
        w = np.asarray(weights, dtype=np.float64)
        if w.ndim != 1:
            normalize_weights(w, self.d)  # raises: a query is one vector
        raw = w[None, :]
        normalized = normalize_rows(raw, self.d)
        return self._serve_rows(raw, normalized, [validate_k(k)], batched=False)[0]

    def cached_answer(self, raw: np.ndarray, k: int) -> TopKResult | None:
        """The cached answer to one request, or ``None``: admission's lookup.

        ``raw`` is one weight vector already validated by
        :func:`check_weights` and ``k`` a :func:`validate_k` size.  A hit
        is the result :meth:`query` would return; it is counted once, as a
        non-batched query, with one registry lock round.  ``None`` counts
        nothing: the caller serves the request through the loop, which
        counts the miss.  The lookup is skipped (``None``) with caching
        off, and when the version moved since the loop last served, so
        that the loop prunes the old version's entries first.  The row is
        normalized as ``raw / sum``, bitwise a row of
        :func:`normalize_rows`, so the key is the one the loop builds.
        """
        cache = self.cache
        if not cache.capacity:
            return None
        start = time.perf_counter()
        version = self.version
        if version != self._seen_version:
            return None
        n = self.n
        key = cache.make_key(raw / np.add.reduce(raw), k if k < n else n, version)
        cached = cache.probe(key)
        if cached is None:
            return None
        result = self._cached(*cached)
        self.metrics.record_external(
            cost=0, seconds=time.perf_counter() - start, hit=True
        )
        return result

    def query_batch(self, weights_matrix: np.ndarray, k) -> list[TopKResult]:
        """Serve one query per row of ``weights_matrix``, amortizing overhead.

        ``k`` is a scalar applied to every row, or a sequence with one
        retrieval size per row.  The whole matrix is validated and
        normalized in one pass before any row is served, and the cache
        keys come from one rounded matrix; repeated weight vectors are
        computed once and answered from the cache.  The remaining cache
        misses are grouped by effective k (k clamped to the relation size
        — the unit the cache keys and the kernels share) and each group
        is computed by one :meth:`_compute` call.  Metrics are recorded
        once per call.  Results are byte-identical to issuing the queries
        one at a time.
        """
        matrix = np.asarray(weights_matrix, dtype=np.float64)
        if matrix.ndim == 1:
            matrix = matrix[None, :]
        if matrix.ndim != 2:
            raise InvalidWeightError(
                f"weight matrix must be 2-D, got shape {matrix.shape}"
            )
        n_rows = matrix.shape[0]
        # Validate k *before* any integer conversion: casting to int64 up
        # front would truncate a non-integral k (2.5 -> 2) and silently
        # serve the wrong retrieval size instead of raising.
        ks_input = np.asarray(k)
        if ks_input.ndim == 0:
            ks = [validate_k(ks_input[()])] * n_rows
        elif ks_input.shape != (n_rows,):
            raise InvalidQueryError(
                f"per-row k must have one entry per weight row: "
                f"got {ks_input.shape} for {n_rows} rows"
            )
        else:
            ks = [validate_k(value) for value in ks_input]
        if not n_rows:
            if matrix.shape[1] != self.d:
                # The width error a row of this width would raise.
                normalize_weights(np.ones(matrix.shape[1]), self.d)
            return []
        # Fail fast: every row is validated/normalized before any query runs.
        normalized = normalize_rows(matrix, self.d)
        return self._serve_rows(matrix, normalized, ks, batched=True)

    def query_many(
        self,
        queries,
        *,
        max_workers: int | None = None,
    ) -> list[TopKResult]:
        """Serve ``(weights, k)`` pairs concurrently on a thread pool.

        Safe because the frozen structures are read-only and all per-query
        traversal state is private; results are returned in input order.
        Every pair is validated *before* the pool spawns, so one malformed
        row raises immediately instead of surfacing as a late future
        exception after sibling queries already ran.  The raw weights are
        submitted (not the validation pass's normalized copies) so
        :meth:`query` normalizes exactly once, keeping answers bitwise
        identical to the sequential path.
        """
        items = list(queries)
        if not items:
            return []
        d = self.d
        validated = [(check_weights(w, d), validate_k(k)) for w, k in items]
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            futures = [pool.submit(self.query, w, k) for w, k in validated]
            return [future.result() for future in futures]

    # ------------------------------------------------------------------ #
    # The loop and its hooks
    # ------------------------------------------------------------------ #

    def _serve_rows(
        self, raw: np.ndarray, weights: np.ndarray, ks: list, *, batched: bool
    ) -> list[TopKResult]:
        """The cached serving path: ``weights`` is the normalized ``(B, d)``
        form of ``raw`` and ``ks`` its validated per-row retrieval sizes
        (python ints)."""
        n_rows = len(ks)
        source = raw if self._forward_raw else weights
        cache = self.cache
        with self.metrics.track_rows(n_rows, batched=batched) as record:
            version = self.version
            if version != self._seen_version:
                # A mutation/rebuild happened since we last looked:
                # old-version entries are unreachable by key; free them.
                cache.prune(version)
                self._seen_version = version
            n = self.n
            keys = cache.make_keys(
                weights, [k if k < n else n for k in ks], version
            )
            cache_enabled = cache.capacity > 0
            results: list[TopKResult | None] = [None] * n_rows
            # First pass: answer cache hits, defer duplicates of an
            # in-flight key (the first occurrence pays, the duplicate hits
            # once its group is computed), and group the rest by k.
            pending: set = set()
            groups: dict[int, list[int]] = {}
            deferred: list[int] = []
            for row, key in enumerate(keys):
                if cache_enabled and key in pending:
                    deferred.append(row)
                    continue
                cached = cache.get(key)
                if cached is not None:
                    record.hits += 1
                    results[row] = self._cached(*cached)
                    continue
                pending.add(key)
                groups.setdefault(key[1], []).append(row)

            def settle(rows, outputs) -> None:
                for row, result in zip(rows, outputs):
                    if self._cacheable(result):
                        cache.put(keys[row], result.ids, result.scores)
                    counter = result.counter
                    cost = counter.real + counter.pseudo
                    record.cost += cost
                    if cost > record.max_cost:
                        record.max_cost = cost
                    results[row] = result

            for effective_k, rows in groups.items():
                start = time.perf_counter()
                lanes = source if len(rows) == n_rows else source[rows]
                outputs = self._compute(lanes, effective_k, record)
                if batched:
                    self.metrics.record_batch(
                        len(rows), time.perf_counter() - start
                    )
                settle(rows, outputs)
            # Duplicates of computed rows: now cache hits (unless a tiny
            # cache already evicted the entry, or the first answer was not
            # cacheable, in which case compute singly — exactly what the
            # sequential loop would have done).
            for row in deferred:
                cached = cache.get(keys[row])
                if cached is not None:
                    record.hits += 1
                    results[row] = self._cached(*cached)
                else:
                    settle(
                        [row],
                        self._compute(
                            source[row : row + 1], keys[row][1], record
                        ),
                    )
        return results

    def _compute(
        self, lanes: np.ndarray, k: int, record: QueryRecord
    ) -> list[TopKResult]:
        """Answer every row of ``lanes`` (cache misses) at one effective k.

        ``record`` is the call's metrics record (a subclass attributes
        the rows to the kernel that computed them through it)."""
        raise NotImplementedError

    def _cached(self, ids: np.ndarray, scores: np.ndarray) -> TopKResult:
        """The result a cache hit returns: the stored answer at zero cost."""
        return TopKResult(ids=ids, scores=scores, counter=AccessCounter())

    def _cacheable(self, result: TopKResult) -> bool:
        """Whether a computed answer may enter the cache."""
        return True


class QueryEngine(ServingLoop):
    """Serve top-k queries against one index with caching and batching.

    Parameters
    ----------
    index:
        A :class:`~repro.core.base.TopKIndex` (built automatically if not
        yet built) or any object exposing ``query(weights, k, counter=...)``
        plus ``d``/``n``/``version`` attributes (duck-typed; the dynamic
        maintenance index qualifies).
    cache_size:
        LRU capacity in entries; ``0`` disables result caching.
    quantize_decimals:
        Weight-vector rounding used for cache keys (see
        :class:`~repro.serving.cache.ResultCache`).
    latency_window:
        Sliding-window size for latency percentiles.

    Every cache-miss group of a gated layer index is walked by the kernel
    :func:`~repro.core.dispatch.select_kernel` picks for it: the compiled
    C walker (built on first use; see :mod:`repro.core.native`) for every
    miss it can serve, at any batch width.  Without it, the lane-parallel
    :func:`~repro.core.query.process_top_k_batch` serves wide enough
    groups, the per-node :func:`~repro.core.query.process_top_k_reference`
    small low-dimensional structures (where whole-slice numpy overhead
    loses to the python loop), and the vectorized
    :func:`~repro.core.query.process_top_k` everything else.  Every
    kernel returns bitwise-identical answers, so the choice only changes
    wall-clock time; a compiler-less host serves every query through the
    python kernels with one logged warning and no errors.
    ``stats()["kernel_<name>"]`` counts the rows each kernel computed.
    """

    def __init__(
        self,
        index,
        *,
        cache_size: int = 1024,
        quantize_decimals: int = 12,
        latency_window: int = 4096,
    ) -> None:
        if isinstance(index, TopKIndex) and not index._built:
            index.build()
        self.index = index
        # Gated layer indexes are walked by the engine's own kernels;
        # anything else answers each row itself (see _compute).
        self._gated = isinstance(index, TopKIndex)
        # Reusable (n_nodes, B) gate-state scratch for the batch kernel;
        # owned by the engine because the frozen structure is immutable by
        # contract and cannot cache mutable state.
        self._workspace = BatchWorkspace()
        # Reusable solo gate-state scratch for the CSR kernel (undo-log
        # checkout/reset; concurrent query_many threads that lose the
        # non-blocking checkout fall back to a fresh allocation and are
        # counted — see stats()["workspace_fallbacks"]).
        self._solo_workspace = QueryWorkspace()
        # Reusable buffers for the compiled native kernel (gate state,
        # heap scratch, pinned cffi pointers — see NativeWorkspace);
        # cheap to hold even when the native kernel never loads.
        self._native_workspace = NativeWorkspace()
        super().__init__(
            cache_size=cache_size,
            quantize_decimals=quantize_decimals,
            latency_window=latency_window,
        )

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def version(self) -> int:
        """The fronted index's structure version (0 for unversioned indexes)."""
        return int(getattr(self.index, "version", 0))

    @property
    def d(self) -> int:
        """Dimensionality of the fronted index."""
        relation = getattr(self.index, "relation", None)
        return relation.d if relation is not None else self.index.d

    @property
    def n(self) -> int:
        """Current tuple population of the fronted index."""
        relation = getattr(self.index, "relation", None)
        return relation.n if relation is not None else self.index.n

    def stats(self) -> dict[str, float]:
        """:meth:`ServingLoop.stats` plus workspace and native-build keys."""
        snapshot = super().stats()
        snapshot["workspace_checkouts"] = float(self._solo_workspace.checkouts)
        snapshot["workspace_fallbacks"] = float(self._solo_workspace.fallbacks)
        snapshot["native_workspace_checkouts"] = float(
            self._native_workspace.checkouts
        )
        snapshot["native_workspace_fallbacks"] = float(
            self._native_workspace.fallbacks
        )
        # Native build outcome as 0/1 flags ("built" = compiled this
        # process, "cached" = loaded a prior build, "fallback" = build
        # failed or was never demanded — the python kernels serve).
        status = build_info()["status"]
        snapshot["native_built"] = float(status == "built")
        snapshot["native_cached"] = float(status == "cached")
        snapshot["native_fallback"] = float(status not in ("built", "cached"))
        return snapshot

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _compute(
        self, lanes: np.ndarray, k: int, record: QueryRecord
    ) -> list[TopKResult]:
        """Run uncached queries (rows of ``lanes``) at one effective ``k``.

        Resolves the kernel once for the group and, once the kernel has
        returned, attributes the group's lanes to it on the call's
        metrics record.
        """
        width = lanes.shape[0]
        structure = getattr(self.index, "structure", None)
        if not self._gated or structure is None:
            # Non-gated index, or a duck-typed mutable index
            # (DynamicDualLayerIndex, which returns ids remapped to
            # insertion-order ids): the index serves each row itself.
            outputs = []
            for w in lanes:
                counter = AccessCounter()
                answer = self.index.query(w, k, counter=counter)
                if isinstance(answer, TopKResult):
                    answer = (answer.ids, answer.scores)
                outputs.append(
                    TopKResult(ids=answer[0], scores=answer[1], counter=counter)
                )
            return outputs
        # Gated layer index: traverse the frozen structure directly with
        # the kernel dispatch picks (skips re-validation; bitwise the
        # same answers whichever kernel runs).
        kernel = select_kernel(structure, batch_width=width)
        if kernel == "native":
            # Every group, one row or many, crosses into the compiled
            # walker once, through the callable get_jit_kernel returns
            # (dispatch only lands here when it is loadable).
            walk = get_jit_kernel()
            results = [
                TopKResult(ids, scores, AccessCounter(real, pseudo))
                for ids, scores, real, pseudo in walk(
                    structure, lanes, k, workspace=self._native_workspace
                )
            ]
            record.record_kernel("native", width)
            return results
        counters = [AccessCounter() for _ in range(width)]
        if kernel == "batch":
            outputs = process_top_k_batch(
                structure, lanes, k, counters, workspace=self._workspace
            )
        elif kernel == "reference":
            outputs = [
                process_top_k_reference(structure, w, k, counter)
                for w, counter in zip(lanes, counters)
            ]
        else:
            outputs = [
                process_top_k(
                    structure, w, k, counter, workspace=self._solo_workspace
                )
                for w, counter in zip(lanes, counters)
            ]
        record.record_kernel(kernel, width)
        return [
            TopKResult(ids=ids, scores=scores, counter=counter)
            for (ids, scores), counter in zip(outputs, counters)
        ]


def check_rows(matrix: np.ndarray, d: int) -> np.ndarray:
    """Validate every row of a ``(B, d)`` weight matrix, B >= 1, at once.

    Returns the matrix as contiguous float64.  A bad row raises exactly
    what :func:`~repro.relation.normalize_weights` raises on the first
    bad row.  The check reads the values once as python floats: it costs
    a fixed few builtins, not a numpy reduction per test.
    """
    matrix = np.ascontiguousarray(matrix, dtype=np.float64)
    if matrix.shape[1] != d or not d:
        normalize_weights(matrix[0], d)  # raises the width error
    values = matrix.ravel().tolist()
    # min/max skip a NaN that is not first; the sum is NaN whatever its
    # position, and it fails the self-comparison.
    total = sum(values)
    if not (min(values) > 0 and max(values) < np.inf and total == total):
        valid = ((matrix > 0) & (matrix < np.inf)).all(axis=1)
        normalize_weights(matrix[np.argmin(valid)], d)  # first bad row
    return matrix


def check_weights(weights, d: int) -> np.ndarray:
    """One weight vector as float64, validated like
    :func:`~repro.relation.normalize_weights` but not normalized.

    The serving entry points that queue or forward raw rows (the
    gateway, :meth:`ServingLoop.query_many`) validate through it, with
    the same error types and texts.
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1:
        normalize_weights(w, d)  # raises: a query is one vector
    check_rows(w[None, :], d)
    return w


def normalize_rows(matrix: np.ndarray, d: int) -> np.ndarray:
    """:func:`~repro.relation.normalize_weights` over every row at once.

    Row ``i`` of the result is bitwise ``normalize_weights(matrix[i], d)``:
    both divide by numpy's pairwise sum along a contiguous row.  A matrix
    with a bad row raises exactly what ``normalize_weights`` raises on the
    first bad row (see :func:`check_rows`), before any row is served.
    """
    matrix = check_rows(matrix, d)
    return matrix / np.add.reduce(matrix, axis=1, keepdims=True)
