"""Incremental top-k: a resumable cursor over the gated traversal.

Interactive applications rarely know ``k`` up front — users page through
results ("show me 10 more").  Rebuilding the queue per page wastes exactly
the work the index saved, so :class:`TopKCursor` keeps Algorithm 2's state
(priority queue, gate counters) alive between calls: ``fetch(m)`` emits the
next ``m`` tuples in score order at the marginal cost of only the newly
opened gates.

The cursor is single-use per weight vector; create a new one to change the
preference.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.core.base import as_integer
from repro.core.query import relax_gates, score_node, score_rows, seed_scores
from repro.core.structure import LayerStructure
from repro.exceptions import IndexCapacityError, InvalidQueryError
from repro.relation import normalize_weights
from repro.stats import AccessCounter


class TopKCursor:
    """Resumable best-first traversal of a layer structure.

    Parameters
    ----------
    structure:
        A frozen :class:`~repro.core.structure.LayerStructure` (obtain via
        ``index.structure`` on DL/DL+/DG/DG+).
    weights:
        Query weight vector (validated and normalized).
    """

    def __init__(self, structure: LayerStructure, weights: np.ndarray) -> None:
        self.structure = structure
        self.weights = normalize_weights(weights, structure.values.shape[1])
        self.counter = AccessCounter()
        self._remaining_forall = structure.forall_parent_count.copy()
        self._exists_open = ~structure.exists_gated
        self._enqueued = np.zeros(structure.n_nodes, dtype=bool)
        self._heap: list[tuple[float, int]] = []
        self._emitted = 0
        # A just-emitted node whose gate relaxation was deferred (mirrors
        # Algorithm 2's early exit — the caller may never ask for more).
        self._deferred: int | None = None
        seed_ids, scores = seed_scores(structure, self.weights)
        for pos, node in enumerate(seed_ids):
            node = int(node)
            if not self._enqueued[node]:
                self._access(node, float(scores[pos]))

    @property
    def emitted(self) -> int:
        """How many answers have been fetched so far."""
        return self._emitted

    @property
    def exhausted(self) -> bool:
        """True when no further tuple can be emitted.

        When the heap has drained but the last emission's gate relaxation
        was deferred, that relaxation is resolved here — it may enqueue
        further nodes, and only an empty heap afterwards means exhaustion.
        The relaxation's accesses are counted as usual; they would have been
        paid by the next ``fetch`` anyway.
        """
        if self._heap:
            return False
        if self._deferred is not None:
            node, self._deferred = self._deferred, None
            self._relax(node)
        return not self._heap

    def fetch(
        self, m: int, *, stop_score: float | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """The next ``m`` tuples ``(ids, scores)`` in ascending score order.

        Returns fewer than ``m`` when the relation (or the materialized
        part of a bounded index) is exhausted; raises
        :class:`IndexCapacityError` when a partial index cannot guarantee
        the requested depth.  ``fetch(0)`` is a valid no-op returning empty
        arrays; a non-integral ``m`` (``2.5``, ``True``) raises
        :class:`InvalidQueryError`, as :func:`~repro.serving.validate_k`
        does for k.

        ``stop_score`` is the **threshold hook** the cluster coordinator's
        scatter-gather merge uses (see :mod:`repro.cluster`): when given,
        the fetch also stops — *without consuming* — at the first tuple
        whose score strictly exceeds it (the tuple is pushed back onto the
        queue, so a later fetch re-emits it at no extra Definition 9 cost;
        accesses are counted at enqueue time, not at pop time).  Tuples
        scoring exactly ``stop_score`` are still emitted, so a caller
        merging several cursors can resolve score ties by id itself.
        Emissions are in ascending score order either way, so once a fetch
        stops early every future tuple of this cursor also exceeds the
        threshold.
        """
        m = as_integer(m, "fetch size")
        if m < 0:
            raise InvalidQueryError(f"fetch size must be >= 0, got {m}")
        if m == 0:
            return (
                np.empty(0, dtype=np.intp),
                np.empty(0, dtype=np.float64),
            )
        target = self._emitted + m
        if not self.structure.complete and target > self.structure.num_coarse_layers:
            raise IndexCapacityError(
                f"index materializes {self.structure.num_coarse_layers} "
                f"coarse layers; cannot guarantee rank {target}"
            )
        if self._deferred is not None:
            node, self._deferred = self._deferred, None
            self._relax(node)

        ids: list[int] = []
        scores: list[float] = []
        n_real = self.structure.n_real
        while self._heap and len(ids) < m:
            score, node = heapq.heappop(self._heap)
            if node < n_real:
                if stop_score is not None and score > stop_score:
                    # Threshold hook: past the caller's global cutoff.  Push
                    # the tuple back unconsumed (its access was already
                    # counted at enqueue time, so this costs nothing) and
                    # stop; all later emissions score at least as high.
                    heapq.heappush(self._heap, (score, node))
                    break
                ids.append(node)
                scores.append(score)
                self._emitted += 1
                if len(ids) >= m:
                    self._deferred = node
                    break
            self._relax(node)
        return (
            np.asarray(ids, dtype=np.intp),
            np.asarray(scores, dtype=np.float64),
        )

    def __iter__(self):
        """Iterate ``(id, score)`` pairs until exhaustion."""
        while not self.exhausted:
            ids, scores = self.fetch(1)
            if ids.shape[0] == 0:
                return
            yield int(ids[0]), float(scores[0])

    def _relax(self, node: int) -> None:
        """Open the gates ``node``'s pop unlocks (vectorized CSR relax).

        Shares :func:`~repro.core.query.relax_gates` with the batch kernel,
        so the cursor's access order, scores, and Definition 9 accounting
        stay bitwise identical to a one-shot :func:`process_top_k` run at
        the same depth.
        """
        opened = relax_gates(
            self.structure,
            node,
            self._remaining_forall,
            self._exists_open,
            self._enqueued,
        )
        if opened is None:
            return
        self._enqueued[opened] = True
        n_real = self.structure.n_real
        scores = score_rows(self.structure.values, opened, self.weights)
        for child, score in zip(opened.tolist(), scores.tolist()):
            if child < n_real:
                self.counter.count_real()
            else:
                self.counter.count_pseudo()
            heapq.heappush(self._heap, (score, child))

    def _access(self, node: int, score: float | None = None) -> None:
        if score is None:
            score = score_node(self.structure.values, node, self.weights)
        if node < self.structure.n_real:
            self.counter.count_real()
        else:
            self.counter.count_pseudo()
        self._enqueued[node] = True
        heapq.heappush(self._heap, (score, node))
