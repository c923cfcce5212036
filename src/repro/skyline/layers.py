"""Layer peeling: skyline layers (DG/DL coarse layers) and convex layers (Onion/HL).

Both peels satisfy the layer-index contract the paper relies on: the i-th
best tuple under any monotone linear scoring function lies within the first
``i`` layers, so a top-k query never needs more than ``k`` layers.  Passing
``max_layers`` bounds construction accordingly (the remainder is returned as
an overflow layer by :func:`skyline_layers` / :func:`convex_layers` callers
via the ``leftover`` entry).

Two routes produce the skyline-layer partition:

* the classic *iterated peel* (:func:`skyline_layers` with ``bnl`` / ``sfs``
  / ``bskytree``): layer i is the skyline of whatever layers < i left —
  every pass re-scans all remaining points;
* the *blocked partition* (:func:`skyline_layer_partition`, algorithm name
  ``"blocked"``): every point's layer is its longest-dominance-chain length,
  so processing points in ascending attribute-sum order assigns each point
  in one pass — its layer is the first existing layer with no member
  dominating it (a monotone predicate by transitivity), corrected for
  dominators inside its own block by a vectorized fix-point.  With
  ``max_layers`` set, a single check against the deepest kept layer routes
  overflow points straight to ``leftover``, which is what makes bounded
  builds cheap (the iterated peel pays a full scan per layer regardless).

The partition is unique — layer membership does not depend on the
algorithm — so both routes return identical layers (asserted in the tests).
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.geometry.convex_skyline import convex_skyline
from repro.skyline.bnl import skyline_bnl
from repro.skyline.bskytree import skyline_bskytree
from repro.skyline.dominance import dominates_any, leq_matrix
from repro.skyline.sfs import skyline_sfs

_ALGORITHMS: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "bnl": skyline_bnl,
    "sfs": skyline_sfs,
    "bskytree": skyline_bskytree,
}

#: Rows per processed block in :func:`skyline_layer_partition`; intra-block
#: pairwise matrices stay ~block² bytes.
_PARTITION_BLOCK = 512


def skyline(points: np.ndarray, algorithm: str = "sfs") -> np.ndarray:
    """Skyline indices of ``points`` using a named algorithm (sfs default)."""
    try:
        impl = _ALGORITHMS[algorithm]
    except KeyError:
        raise ValueError(
            f"unknown skyline algorithm {algorithm!r}; have {sorted(_ALGORITHMS)}"
        ) from None
    return impl(points)


def _peel(
    points: np.ndarray,
    extract: Callable[[np.ndarray], np.ndarray],
    max_layers: int | None,
) -> tuple[list[np.ndarray], np.ndarray]:
    """Iteratively peel ``points`` with ``extract``; returns (layers, leftover).

    Each layer is an ascending array of *global* indices into ``points``;
    ``leftover`` holds the indices never assigned because ``max_layers``
    stopped the peel (empty on a full peel).
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    remaining = np.arange(points.shape[0], dtype=np.intp)
    layers: list[np.ndarray] = []
    while remaining.shape[0] > 0:
        if max_layers is not None and len(layers) >= max_layers:
            return layers, remaining
        local = extract(points[remaining])
        if local.shape[0] == 0:
            raise RuntimeError("layer extraction returned an empty layer")
        layer = remaining[local]
        layers.append(np.sort(layer).astype(np.intp))
        mask = np.ones(remaining.shape[0], dtype=bool)
        mask[local] = False
        remaining = remaining[mask]
    return layers, remaining


def skyline_layers(
    points: np.ndarray,
    algorithm: str = "sfs",
    max_layers: int | None = None,
) -> tuple[list[np.ndarray], np.ndarray]:
    """Skyline-layer peel: layer i is the skyline of what layers < i left.

    Returns ``(layers, leftover)`` of global index arrays.  ``"blocked"``
    routes to :func:`skyline_layer_partition` (identical layers, one pass).
    """
    if algorithm == "blocked":
        return skyline_layer_partition(points, max_layers)
    impl = _ALGORITHMS.get(algorithm)
    if impl is None:
        raise ValueError(
            f"unknown skyline algorithm {algorithm!r}; "
            f"have {sorted([*_ALGORITHMS, 'blocked'])}"
        )
    return _peel(points, impl, max_layers)


class _LayerAccumulator:
    """One growing skyline layer: member ids plus an amortized point buffer."""

    __slots__ = ("ids", "buffer", "count")

    def __init__(self, d: int) -> None:
        self.ids: list[np.ndarray] = []
        self.buffer = np.empty((64, d), dtype=np.float64)
        self.count = 0

    def members(self) -> np.ndarray:
        """Current member points, in insertion (ascending attribute-sum) order."""
        return self.buffer[: self.count]

    def extend(self, ids: np.ndarray, points: np.ndarray) -> None:
        needed = self.count + points.shape[0]
        if needed > self.buffer.shape[0]:
            capacity = self.buffer.shape[0]
            while capacity < needed:
                capacity *= 2
            grown = np.empty((capacity, self.buffer.shape[1]), dtype=np.float64)
            grown[: self.count] = self.buffer[: self.count]
            self.buffer = grown
        self.buffer[self.count : needed] = points
        self.count = needed
        self.ids.append(ids)


def skyline_layer_partition(
    points: np.ndarray,
    max_layers: int | None = None,
    *,
    block: int = _PARTITION_BLOCK,
) -> tuple[list[np.ndarray], np.ndarray]:
    """Single-pass skyline-layer partition (the ``"blocked"`` algorithm).

    Returns the same ``(layers, leftover)`` as the iterated peel: each layer
    an ascending array of global indices, ``leftover`` the (ascending)
    indices beyond ``max_layers``.

    A point's layer equals the length of its longest dominance chain, and a
    dominator always has a strictly smaller attribute sum, so walking points
    in ascending-sum order (ties broken lexicographically, like
    :mod:`repro.skyline.sfs`) guarantees every cross-block dominator is
    already placed.  For a block of points the tentative layer is found by
    scanning existing layers in order — the "dominated by layer i" predicate
    is monotone in ``i``, so the first non-dominating layer is the answer —
    restricted to the still-dominated subset at each step.  Dominators
    *inside* the block only ever deepen a point's layer; a vectorized
    fix-point (``layer[j] = max(layer[j], 1 + max over in-block dominators
    i of layer[i])``) converges in at most the longest in-block chain.
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    n, d = points.shape
    if n == 0:
        return [], np.empty(0, dtype=np.intp)

    keys = (np.arange(n), *(points[:, c] for c in range(d - 1, -1, -1)),
            points.sum(axis=1))
    order = np.lexsort(keys)
    sorted_pts = points[order]

    layers: list[_LayerAccumulator] = []
    leftover_ids: list[np.ndarray] = []
    #: With max_layers set, anything at this depth or beyond is leftover.
    cutoff = max_layers if max_layers is not None else np.iinfo(np.int64).max

    for start in range(0, n, block):
        chunk = sorted_pts[start : start + block]
        chunk_ids = order[start : start + block]
        m = chunk.shape[0]
        assigned = np.zeros(m, dtype=np.int64)

        # Overflow fast path: one check against the deepest kept layer
        # settles every point that would land beyond the bound.
        overflow = np.zeros(m, dtype=bool)
        if max_layers is not None and len(layers) >= max_layers:
            overflow = dominates_any(chunk, layers[max_layers - 1].members())
            assigned[overflow] = cutoff

        # Tentative layers vs already-placed points: scan layers in order on
        # the still-dominated subset (first non-dominating layer wins).
        undecided = np.nonzero(~overflow)[0]
        for depth, layer in enumerate(layers):
            if undecided.shape[0] == 0:
                break
            if max_layers is not None and depth >= max_layers:
                break
            dominated = dominates_any(chunk[undecided], layer.members())
            assigned[undecided[~dominated]] = depth
            undecided = undecided[dominated]
        if undecided.shape[0]:
            # Dominated by every existing layer: opens the next one.
            assigned[undecided] = min(len(layers), cutoff)

        # In-block dominators deepen layers: fix-point over the block DAG
        # (earlier-in-order rows only, since dominance lowers the sum).
        if m > 1:
            leq = leq_matrix(chunk, chunk)
            rows = np.arange(m)
            leq &= rows[:, None] < rows[None, :]
            di, dj = np.nonzero(leq)
            dom = np.zeros((m, m), dtype=bool)
            if di.shape[0]:
                strict = np.any(chunk[di] != chunk[dj], axis=1)
                dom[di[strict], dj[strict]] = True
            if np.any(dom):
                while True:
                    pushed = np.where(dom, (assigned + 1)[:, None], 0).max(axis=0)
                    deeper = np.maximum(assigned, pushed)
                    if np.array_equal(deeper, assigned):
                        break
                    assigned = deeper

        np.minimum(assigned, cutoff, out=assigned)
        in_bounds = assigned < cutoff
        if not np.all(in_bounds):
            leftover_ids.append(chunk_ids[~in_bounds])
        kept = np.nonzero(in_bounds)[0]
        if kept.shape[0] == 0:
            continue
        for depth in np.unique(assigned[kept]):
            sel = kept[assigned[kept] == depth]
            while depth >= len(layers):
                layers.append(_LayerAccumulator(d))
            layers[depth].extend(chunk_ids[sel], chunk[sel])

    result = [
        np.sort(np.concatenate(layer.ids)).astype(np.intp) for layer in layers
    ]
    leftover = (
        np.sort(np.concatenate(leftover_ids)).astype(np.intp)
        if leftover_ids
        else np.empty(0, dtype=np.intp)
    )
    return result, leftover


def convex_layers(
    points: np.ndarray,
    max_layers: int | None = None,
) -> tuple[list[np.ndarray], np.ndarray]:
    """Convex (onion) peel: layer i is the convex skyline of the residual.

    Returns ``(layers, leftover)`` of global index arrays.
    """
    return _peel(points, convex_skyline, max_layers)
