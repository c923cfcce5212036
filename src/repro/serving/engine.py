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
* **batching** — :meth:`query_batch` normalizes the whole weight matrix up
  front, deduplicates repeated weight vectors through the cache, groups the
  remaining rows by effective k, and dispatches each group once: the
  compiled native walker serves the group lane by lane, and on hosts
  without it the lane-parallel
  :func:`~repro.core.query.process_top_k_batch` kernel walks the gate graph
  once per round for *all* rows of the group.  Batched answers are
  byte-identical to sequential :meth:`query` calls (every kernel's
  bitwise-identity contract);
* **concurrency** — :meth:`query_many` fans queries out over a thread pool.
  The frozen :class:`~repro.core.structure.LayerStructure` is read-only by
  contract and every query owns its
  :class:`~repro.stats.AccessCounter`/heap, so no locking is needed on the
  traversal itself (the cache and metrics registry carry their own locks);
* **metrics** — every query is tracked in a
  :class:`~repro.serving.metrics.MetricsRegistry` (latency percentiles,
  Definition 9 cost, hit rate, queue depth), exportable as a flat dict and
  rendered by the ``repro-topk serve-bench`` CLI.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.core.base import TopKIndex, TopKResult
from repro.core.dispatch import VALID_KERNELS, get_jit_kernel, select_kernel
from repro.core.native import NativeWorkspace, build_info, native_supported
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


def validate_k(k) -> int:
    """Validate a retrieval size and return it as a plain ``int``.

    Accepts anything integral (``int``, ``np.int64``, ``2.0``) and raises
    :class:`~repro.exceptions.InvalidQueryError` on non-integral values —
    ``np.asarray(k, dtype=np.int64)`` used to silently truncate ``k=2.5``
    to ``k=2`` on the batched path, so a malformed request returned two
    results instead of failing.  Shared by the engine, the cluster
    coordinator, and the gateway so every serving entry point enforces the
    same contract.  Strings and booleans are rejected even when ``float``
    would coerce them — ``k="5"`` or ``k=True`` in a request is a caller
    bug, not a retrieval size.
    """
    if isinstance(k, (str, bytes, bool)):
        raise InvalidQueryError(
            f"retrieval size k must be an integer, got {k!r}"
        )
    try:
        as_float = float(k)
    except (TypeError, ValueError) as exc:
        raise InvalidQueryError(
            f"retrieval size k must be an integer, got {k!r}"
        ) from exc
    if not as_float.is_integer():
        raise InvalidQueryError(
            f"retrieval size k must be an integer, got {k!r}"
        )
    value = int(as_float)
    if value < 1:
        raise InvalidQueryError(f"retrieval size k must be >= 1, got {k}")
    return value


class QueryEngine:
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
    kernel:
        ``"auto"`` (default) dispatches through
        :func:`~repro.core.dispatch.select_kernel`, once per query or
        per :meth:`query_batch` group: the compiled C walker
        (``"native"``, built on first use; see :mod:`repro.core.native`)
        for every miss it can serve, at any batch width.  Without it,
        the lane-parallel :func:`~repro.core.query.process_top_k_batch`
        serves wide enough cache-miss groups, the per-node
        :func:`~repro.core.query.process_top_k_reference` small
        low-dimensional structures (where whole-slice numpy overhead
        loses to the python loop), and the vectorized
        :func:`~repro.core.query.process_top_k` everything else.
        ``"csr"``, ``"reference"``, and ``"batch"`` force one kernel
        unconditionally.  Every kernel returns bitwise-identical
        answers, so this switch only changes wall-clock behaviour — it
        exists for A/B latency measurements (``repro-topk perf-bench``)
        and for ruling individual kernels in or out when debugging.
        ``"native"`` forces the compiled walker and raises
        :class:`~repro.exceptions.KernelUnavailableError` when it cannot
        be built (no C toolchain); shapes outside its bitwise contract
        (d > 7) run the csr kernel instead.  ``auto`` only selects it
        when it is actually loadable, so a compiler-less host serves
        every query through the python kernels with one logged warning
        and no errors.
    build_parallel:
        Worker count for (re)builds the engine triggers: applied to the
        fronted index's ``parallel`` knob before the initial build and for
        every index that exposes one.  Parallel builds are array-equal to
        sequential ones, so this only changes build wall-clock.
    prune:
        Enable layer-bound skipping in the CSR and batch kernels (see
        :func:`~repro.core.query.process_top_k`): children whose bound-table
        score bound already beats the running k-th score are dropped before
        they are scored.  Answers stay bitwise identical; only the access
        counts shrink.  When the dispatcher would pick the ``reference``
        kernel (which has no pruning path), it is promoted to ``csr`` so
        the skip actually runs.
    """

    def __init__(
        self,
        index,
        *,
        cache_size: int = 1024,
        quantize_decimals: int = 12,
        latency_window: int = 4096,
        kernel: str = "auto",
        build_parallel: int | None = None,
        prune: bool = False,
    ) -> None:
        if kernel not in VALID_KERNELS:
            raise InvalidQueryError(
                f"kernel must be one of {VALID_KERNELS}, got {kernel!r}"
            )
        self.build_parallel = build_parallel
        if build_parallel is not None and hasattr(index, "parallel"):
            index.parallel = build_parallel
        if isinstance(index, TopKIndex) and not index._built:
            index.build()
        self.index = index
        self.kernel = kernel
        self.prune = bool(prune)
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
        self.cache = ResultCache(cache_size, decimals=quantize_decimals)
        self.metrics = MetricsRegistry(latency_window=latency_window)
        self._seen_version = self.version

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
        """Merged metrics + cache snapshot."""
        snapshot = self.metrics.as_dict()
        for key, value in self.cache.stats().items():
            snapshot[f"cache_{key}"] = float(value)
        snapshot["throughput_qps"] = self.metrics.throughput()
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

    def analytics(self):
        """A dual-direction :class:`~repro.analytics.AnalyticsEngine` facade.

        The facade serves reverse top-k / why-not / what-if through this
        engine's kernels and cache; it snapshots placements per structure
        version, so the same facade stays valid across maintenance.
        """
        from repro.analytics import AnalyticsEngine

        return AnalyticsEngine(self)

    # ------------------------------------------------------------------ #
    # Serving paths
    # ------------------------------------------------------------------ #

    def query(self, weights: np.ndarray, k: int) -> TopKResult:
        """Serve one top-k query through the cache."""
        w = normalize_weights(weights, self.d)
        k = validate_k(k)
        with self.metrics.track() as record:
            return self._serve(w, k, record)

    def query_batch(self, weights_matrix: np.ndarray, k) -> list[TopKResult]:
        """Serve one query per row of ``weights_matrix``, amortizing overhead.

        ``k`` is a scalar applied to every row, or a sequence with one
        retrieval size per row.  The whole matrix is validated and
        normalized up front; repeated weight vectors are computed once and
        answered from the cache.  The remaining cache misses are grouped by
        effective k (k clamped to the relation size — the unit the cache
        keys and the batch kernel share) and the kernel is dispatched once
        per group.  A native group walks lane by lane through the compiled
        walker; a batch group (compiler-less hosts) runs one lane-parallel
        :func:`~repro.core.query.process_top_k_batch` call, walking the
        gate graph once per round for the whole group.  Results are
        byte-identical to issuing the queries one at a time.
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
            ks = np.full(n_rows, validate_k(ks_input[()]), dtype=np.int64)
        elif ks_input.shape != (n_rows,):
            raise InvalidQueryError(
                f"per-row k must have one entry per weight row: "
                f"got {ks_input.shape} for {n_rows} rows"
            )
        else:
            ks = np.asarray(
                [validate_k(value) for value in ks_input], dtype=np.int64
            )
        d = self.d
        # Fail fast: every row is validated/normalized before any query runs.
        normalized = [normalize_weights(matrix[row], d) for row in range(n_rows)]
        if not n_rows:
            return []
        version = self.version
        if version != self._seen_version:
            self.cache.prune(version)
            self._seen_version = version
        n = self.n
        cache_enabled = self.cache.capacity > 0
        results: list[TopKResult | None] = [None] * n_rows
        # First pass: answer cache hits immediately, defer duplicates of an
        # in-flight key (first occurrence pays, the duplicate hits after the
        # group is computed), and collect the rows that need a traversal.
        pending_keys: set = set()
        to_compute: list[tuple[int, tuple, np.ndarray, int]] = []
        deferred: list[tuple[int, tuple, int]] = []
        for row, w in enumerate(normalized):
            effective_k = min(int(ks[row]), n)
            key = self.cache.make_key(w, effective_k, version)
            if cache_enabled and key in pending_keys:
                deferred.append((row, key, effective_k))
                continue
            start = time.perf_counter()
            cached = self.cache.get(key)
            if cached is not None:
                self.metrics.record_external(
                    cost=0,
                    seconds=time.perf_counter() - start,
                    hit=True,
                    batched=True,
                )
                results[row] = TopKResult(
                    ids=cached[0], scores=cached[1], counter=AccessCounter()
                )
            else:
                pending_keys.add(key)
                to_compute.append((row, key, w, effective_k))
        # Group misses by effective k and dispatch once per group — fused
        # when the dispatcher picks "batch", row by row otherwise.
        groups: dict[int, list[tuple[int, tuple, np.ndarray, int]]] = {}
        for item in to_compute:
            groups.setdefault(item[3], []).append(item)
        structure = getattr(self.index, "structure", None)
        batchable = isinstance(self.index, TopKIndex) and structure is not None
        for effective_k, group in groups.items():
            width = len(group)
            kernel = self.kernel
            if kernel == "auto":
                kernel = (
                    select_kernel(structure, batch_width=width, prune=self.prune)
                    if batchable
                    else "csr"
                )
            if batchable and kernel == "batch":
                lanes = np.ascontiguousarray(
                    np.stack([item[2] for item in group])
                )
                counters = [AccessCounter() for _ in group]
                self.metrics.record_kernel("batch", width)
                start = time.perf_counter()
                outputs = process_top_k_batch(
                    structure,
                    lanes,
                    effective_k,
                    counters,
                    workspace=self._workspace,
                    prune=self.prune,
                )
                elapsed = time.perf_counter() - start
                self.metrics.record_batch(width, elapsed)
                share = elapsed / width
                for (row, key, _w, _ek), counter, (ids, scores) in zip(
                    group, counters, outputs
                ):
                    self.cache.put(key, ids, scores)
                    self.metrics.record_external(
                        cost=counter.total, seconds=share, hit=False, batched=True
                    )
                    results[row] = TopKResult(
                        ids=ids, scores=scores, counter=counter
                    )
            else:
                start = time.perf_counter()
                for row, key, w, _ek in group:
                    with self.metrics.track() as record:
                        record.batched = True
                        counter = AccessCounter()
                        ids, scores = self._execute(
                            w, effective_k, counter, kernel
                        )
                        self.cache.put(key, ids, scores)
                        record.cost = counter.total
                        results[row] = TopKResult(
                            ids=ids, scores=scores, counter=counter
                        )
                self.metrics.record_batch(width, time.perf_counter() - start)
        # Duplicates of computed rows: now cache hits (unless the entry was
        # already evicted by a tiny cache, in which case compute singly —
        # exactly what the sequential loop would have done).
        for row, key, effective_k in deferred:
            with self.metrics.track() as record:
                record.batched = True
                cached = self.cache.get(key)
                if cached is not None:
                    record.hit = True
                    results[row] = TopKResult(
                        ids=cached[0], scores=cached[1], counter=AccessCounter()
                    )
                else:
                    counter = AccessCounter()
                    ids, scores = self._execute(
                        normalized[row], effective_k, counter
                    )
                    self.cache.put(key, ids, scores)
                    record.cost = counter.total
                    results[row] = TopKResult(
                        ids=ids, scores=scores, counter=counter
                    )
        return results

    def query_many(
        self,
        queries,
        *,
        max_workers: int | None = None,
    ) -> list[TopKResult]:
        """Serve ``(weights, k)`` pairs concurrently on a thread pool.

        Safe because the frozen structure is read-only and all per-query
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
        validated = []
        for weights, k in items:
            normalize_weights(weights, d)
            validated.append((weights, validate_k(k)))
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            futures = [pool.submit(self.query, w, k) for w, k in validated]
            return [future.result() for future in futures]

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _serve(self, w: np.ndarray, k: int, record: QueryRecord) -> TopKResult:
        """Core cached path: ``w`` is already normalized."""
        version = self.version
        if version != self._seen_version:
            # A mutation/rebuild happened since we last looked: old-version
            # entries are unreachable by key; free them eagerly.
            self.cache.prune(version)
            self._seen_version = version
        effective_k = min(int(k), self.n)
        key = self.cache.make_key(w, effective_k, version)
        cached = self.cache.get(key)
        if cached is not None:
            record.hit = True
            record.cost = 0
            return TopKResult(ids=cached[0], scores=cached[1], counter=AccessCounter())
        counter = AccessCounter()
        ids, scores = self._execute(w, effective_k, counter)
        self.cache.put(key, ids, scores)
        record.cost = counter.total
        return TopKResult(ids=ids, scores=scores, counter=counter)

    def _execute(
        self, w: np.ndarray, k: int, counter: AccessCounter, kernel: str | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Run one uncached query on the fronted index.

        ``kernel`` is a kernel the caller already resolved (``query_batch``
        dispatches once per group); ``None`` resolves it here.
        """
        structure = getattr(self.index, "structure", None)
        if isinstance(self.index, TopKIndex):
            if structure is not None:
                # Gated layer index: traverse the frozen structure directly
                # with the configured kernel (skips re-validation; bitwise
                # the same answers whichever kernel runs).
                if kernel is None:
                    kernel = self.kernel
                if kernel == "auto":
                    kernel = select_kernel(structure, prune=self.prune)
                elif kernel == "native" and not native_supported(structure):
                    # Forced native on a shape outside the C walker's
                    # bitwise contract (d > 7): the csr kernel serves it
                    # with the engine's solo workspace.
                    kernel = "csr"
                if kernel == "native":
                    # Compiled walker: built on first demand; an explicit
                    # request on a host without a toolchain raises a clear
                    # KernelUnavailableError, while auto only lands here
                    # when the kernel is loadable.
                    walk = get_jit_kernel()
                    self.metrics.record_kernel("native")
                    return walk(
                        structure,
                        w,
                        k,
                        counter,
                        prune=self.prune,
                        workspace=self._native_workspace,
                    )
                if kernel == "reference":
                    if not (self.prune and structure.has_layer_bounds):
                        self.metrics.record_kernel("reference")
                        return process_top_k_reference(structure, w, k, counter)
                    # The reference kernel has no pruning path; the CSR
                    # kernel is bitwise identical, so promote when the
                    # frozen bound table makes pruning worthwhile.
                    kernel = "csr"
                if kernel == "batch":
                    # Forced batch kernel on a single query: one lane.
                    self.metrics.record_kernel("batch")
                    outputs = process_top_k_batch(
                        structure,
                        np.asarray(w, dtype=np.float64)[None, :],
                        k,
                        [counter],
                        workspace=self._workspace,
                        prune=self.prune,
                    )
                    return outputs[0]
                self.metrics.record_kernel("csr")
                return process_top_k(
                    structure,
                    w,
                    k,
                    counter,
                    prune=self.prune,
                    workspace=self._solo_workspace,
                )
            result = self.index.query(w, k, counter=counter)
            return result.ids, result.scores
        # Duck-typed mutable index (DynamicDualLayerIndex): returns ids
        # remapped to insertion-order ids.
        return self.index.query(w, k, counter=counter)
