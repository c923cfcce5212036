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
  weight matrix in one pass, builds every cache key from one rounded
  matrix, deduplicates repeated weight vectors through the cache, groups
  the remaining rows by effective k, and dispatches each group once: a
  native group crosses into the compiled walker in one call (C scores the
  seeds and walks the lanes one after another on one workspace, GIL
  released), and on hosts without it the lane-parallel
  :func:`~repro.core.query.process_top_k_batch` kernel walks the gate graph
  once per round for *all* rows of the group.  :meth:`query` is a one-row
  pass through the same path.  Batched answers are byte-identical to
  sequential :meth:`query` calls (every kernel's bitwise-identity
  contract);
* **concurrency** — :meth:`query_many` fans queries out over a thread pool.
  The frozen :class:`~repro.core.structure.LayerStructure` is read-only by
  contract and every query owns its
  :class:`~repro.stats.AccessCounter`/heap, so no locking is needed on the
  traversal itself (the cache and metrics registry carry their own locks);
* **metrics** — every query is counted in a
  :class:`~repro.serving.metrics.MetricsRegistry` (latency percentiles,
  Definition 9 cost, hit rate, queue depth) with one registry update per
  call, exportable as a flat dict (:meth:`QueryEngine.stats`; keys and
  counter semantics in DESIGN.md §3b) and rendered by the
  ``repro-topk serve-bench`` CLI.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.core.base import TopKIndex, TopKResult
from repro.core.dispatch import VALID_KERNELS, get_jit_kernel, select_kernel
from repro.core.native import (
    NativeWorkspace,
    build_info,
    native_supported,
    native_walk_many,
)
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
from repro.serving.metrics import MetricsRegistry
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
        """Serve one top-k query through the cache.

        A one-row pass through the :meth:`query_batch` path: same cache,
        dispatch and metrics code, but counted as a solo query — it is
        not a batched query and touches no batch counter.
        """
        w = np.asarray(weights, dtype=np.float64)
        if w.ndim != 1:
            normalize_weights(w, self.d)  # raises: a query is one vector
        matrix = normalize_rows(w[None, :], self.d)
        ks = np.array([validate_k(k)], dtype=np.int64)
        return self._serve_rows(matrix, ks, batched=False)[0]

    def query_batch(self, weights_matrix: np.ndarray, k) -> list[TopKResult]:
        """Serve one query per row of ``weights_matrix``, amortizing overhead.

        ``k`` is a scalar applied to every row, or a sequence with one
        retrieval size per row.  The whole matrix is validated and
        normalized in one pass before any row is served, and the cache
        keys come from one rounded matrix; repeated weight vectors are
        computed once and answered from the cache.  The remaining cache
        misses are grouped by effective k (k clamped to the relation size
        — the unit the cache keys and the kernels share) and the kernel is
        dispatched once per group.  A native group crosses into the
        compiled walker once, which walks its lanes one after another; a
        batch group (compiler-less hosts) runs one lane-parallel
        :func:`~repro.core.query.process_top_k_batch` call, walking the
        gate graph once per round for the whole group.  Metrics are
        recorded once per call.  Results are byte-identical to issuing
        the queries one at a time.
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
        if not n_rows:
            return []
        # Fail fast: every row is validated/normalized before any query runs.
        normalized = normalize_rows(matrix, self.d)
        return self._serve_rows(normalized, ks, batched=True)

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

    def _serve_rows(
        self, weights: np.ndarray, ks: np.ndarray, *, batched: bool
    ) -> list[TopKResult]:
        """The cached serving path: ``weights`` is a normalized ``(B, d)``
        matrix and ``ks`` its validated per-row retrieval sizes."""
        n_rows = weights.shape[0]
        with self.metrics.track_rows(n_rows, batched=batched) as record:
            version = self.version
            if version != self._seen_version:
                # A mutation/rebuild happened since we last looked:
                # old-version entries are unreachable by key; free them.
                self.cache.prune(version)
                self._seen_version = version
            effective = np.minimum(ks, self.n)
            keys = self.cache.make_keys(weights, effective, version)
            cache_enabled = self.cache.capacity > 0
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
                cached = self.cache.get(key)
                if cached is not None:
                    record.hits += 1
                    results[row] = TopKResult(
                        ids=cached[0], scores=cached[1], counter=AccessCounter()
                    )
                    continue
                pending.add(key)
                groups.setdefault(key[1], []).append(row)

            def settle(rows, outputs) -> None:
                for row, (ids, scores, counter) in zip(rows, outputs):
                    self.cache.put(keys[row], ids, scores)
                    cost = counter.real + counter.pseudo
                    record.cost += cost
                    if cost > record.max_cost:
                        record.max_cost = cost
                    results[row] = TopKResult(
                        ids=ids, scores=scores, counter=counter
                    )

            for effective_k, rows in groups.items():
                start = time.perf_counter()
                lanes = weights if len(rows) == n_rows else weights[rows]
                outputs = self._compute(lanes, effective_k)
                if batched:
                    self.metrics.record_batch(
                        len(rows), time.perf_counter() - start
                    )
                settle(rows, outputs)
            # Duplicates of computed rows: now cache hits (unless a tiny
            # cache already evicted the entry, in which case compute singly
            # — exactly what the sequential loop would have done).
            for row in deferred:
                cached = self.cache.get(keys[row])
                if cached is not None:
                    record.hits += 1
                    results[row] = TopKResult(
                        ids=cached[0], scores=cached[1], counter=AccessCounter()
                    )
                else:
                    settle(
                        [row], self._compute(weights[row : row + 1], keys[row][1])
                    )
        return results

    def _compute(
        self, lanes: np.ndarray, k: int
    ) -> list[tuple[np.ndarray, np.ndarray, AccessCounter]]:
        """Run uncached queries (rows of ``lanes``) at one effective ``k``.

        Resolves the kernel once for the group and records its per-lane
        dispatch counter once.  Returns ``(ids, scores, counter)`` per row.
        """
        width = lanes.shape[0]
        structure = getattr(self.index, "structure", None)
        if not isinstance(self.index, TopKIndex) or structure is None:
            # Non-gated index, or a duck-typed mutable index
            # (DynamicDualLayerIndex, which returns ids remapped to
            # insertion-order ids): the index serves each row itself.
            outputs = []
            for w in lanes:
                counter = AccessCounter()
                answer = self.index.query(w, k, counter=counter)
                if isinstance(answer, TopKResult):
                    answer = (answer.ids, answer.scores)
                outputs.append((answer[0], answer[1], counter))
            return outputs
        # Gated layer index: traverse the frozen structure directly with
        # the resolved kernel (skips re-validation; bitwise the same
        # answers whichever kernel runs).
        kernel = self.kernel
        if kernel == "auto":
            kernel = select_kernel(structure, batch_width=width, prune=self.prune)
        elif kernel == "native" and not native_supported(structure):
            # Forced native on a shape outside the C walker's bitwise
            # contract (d > 7): the csr kernel serves it with the
            # engine's solo workspace.
            kernel = "csr"
        if kernel == "reference" and self.prune and structure.has_layer_bounds:
            # The reference kernel has no pruning path; the CSR kernel is
            # bitwise identical, so promote when the frozen bound table
            # makes pruning worthwhile.
            kernel = "csr"
        counters = [AccessCounter() for _ in range(width)]
        if kernel == "native":
            # Compiled walker, built on first demand: get_jit_kernel()
            # raises a clear KernelUnavailableError for an explicit
            # request on a host without a toolchain (auto only lands here
            # when the kernel is loadable).  Every group, one row or many,
            # crosses into it once.
            get_jit_kernel()
            self.metrics.record_kernel("native", width)
            ids, scores, n_answers, counts = native_walk_many(
                structure,
                lanes,
                k,
                prune=self.prune,
                workspace=self._native_workspace,
            )
            outputs = []
            for lane, (n, (real, pseudo)) in enumerate(
                zip(n_answers.tolist(), counts.tolist())
            ):
                counter = counters[lane]
                counter.real = real
                counter.pseudo = pseudo
                outputs.append((ids[lane, :n], scores[lane, :n], counter))
            return outputs
        self.metrics.record_kernel(kernel, width)
        if kernel == "batch":
            outputs = process_top_k_batch(
                structure,
                lanes,
                k,
                counters,
                workspace=self._workspace,
                prune=self.prune,
            )
        elif kernel == "reference":
            outputs = [
                process_top_k_reference(structure, w, k, counter)
                for w, counter in zip(lanes, counters)
            ]
        else:
            outputs = [
                process_top_k(
                    structure,
                    w,
                    k,
                    counter,
                    prune=self.prune,
                    workspace=self._solo_workspace,
                )
                for w, counter in zip(lanes, counters)
            ]
        return [
            (ids, scores, counter)
            for (ids, scores), counter in zip(outputs, counters)
        ]


def normalize_rows(matrix: np.ndarray, d: int) -> np.ndarray:
    """:func:`~repro.relation.normalize_weights` over every row at once.

    Row ``i`` of the result is bitwise ``normalize_weights(matrix[i], d)``:
    both divide by numpy's pairwise sum along a contiguous row.  A matrix
    with a bad row raises exactly what ``normalize_weights`` raises on the
    first bad row, before any row is served.
    """
    matrix = np.ascontiguousarray(matrix, dtype=np.float64)
    if matrix.shape[1] != d or not d:
        normalize_weights(matrix[0], d)  # raises the width error
    # min/max propagate NaN, so both comparisons fail on any NaN entry.
    if not (matrix.min() > 0 and matrix.max() < np.inf):
        valid = ((matrix > 0) & (matrix < np.inf)).all(axis=1)
        normalize_weights(matrix[np.argmin(valid)], d)  # first bad row
    return matrix / matrix.sum(axis=1, keepdims=True)
