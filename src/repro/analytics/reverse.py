"""Reverse top-k: for which weight vectors does a target make the top-k?

Monochromatic (Chester et al., *Indexing Reverse Top-k Queries*): the
weight-space region where a target tuple ranks in the top-k.  In d=2 the
normalized weight space is the interval ``w₁ ∈ (0, 1)`` and the region is
computed **exactly** by the same breakpoint machinery as the zero-layer
weight-range partition (:mod:`repro.geometry.weight_ranges`): each
incomparable competitor flips its beats-the-target indicator at one
breakpoint, so the beater count is a step function and the region is a
union of intervals.  For d>2 the region is a (d-1)-simplex subset with
curved combinatorics; :func:`certified_region` returns sound volume
*bounds* by recursive simplex bisection — a competitor's score-difference
``g(w) = w · (s - t)`` is linear, so its sign over a cell is certified by
its sign at the cell's vertices.

Bichromatic: given a workload ``W`` of weight vectors, return the subset
whose top-k contains the target.  :class:`BichromaticScreen` resolves most
vectors without any gate-graph walk using the layer containment theorem
(every top-k member lies in coarse layers ``0..k-1``, so beater counts
restricted to those layers decide membership exactly) plus two-sided
zonemap bounds (:func:`repro.core.structure.compute_block_extrema`); the
few unresolved vectors fall through to one ``engine.query_batch`` walk,
which crosses natively when the compiler is present.

Every comparison against a kernel answer uses the kernels' own ``einsum``
contraction (:func:`repro.core.query.score_rows`), so screen decisions are
bitwise consistent with :func:`repro.core.query.process_top_k` — the
float-soundness argument is in :func:`compute_block_extrema`'s docstring.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.query import score_rows
from repro.core.structure import compute_block_extrema
from repro.exceptions import InvalidWeightError

__all__ = [
    "BichromaticResult",
    "BichromaticScreen",
    "CertifiedRegion",
    "MonochromaticRegion",
    "SimplexCell",
    "certified_region",
    "monochromatic_region_2d",
    "split_competitors",
]

#: Sign-certificate margin for the d>2 cell classifier.  Score diffs live
#: in [-1, 1] and the fixed-order einsum dot accumulates at most ~d·ε of
#: rounding (ε = 2⁻⁵²), so 1e-10 is orders of magnitude above float noise
#: while still far below any geometrically meaningful margin; a competitor
#: inside the margin stays *uncertain*, never mis-certified.
CELL_MARGIN = 1e-10


def _target_score(values: np.ndarray, weights: np.ndarray) -> float:
    """Kernel-bitwise score of one value row (same contraction, same bits)."""
    row = np.asarray(values, dtype=np.float64).reshape(1, -1)
    return float(score_rows(row, np.asarray([0], dtype=np.intp), weights)[0])


def split_competitors(
    matrix: np.ndarray,
    cand_rows: np.ndarray,
    target_values: np.ndarray,
    target_id: int,
) -> tuple[int, np.ndarray]:
    """Split candidates into always-beaters and weight-dependent ones.

    Returns ``(always, variable_rows)``: ``always`` counts candidates that
    beat the target under *every* strictly positive weight vector — its
    dominators, plus exact duplicates with a smaller id (Definition 1 ties
    break by id) — while ``variable_rows`` lists the incomparable
    candidates whose beat indicator depends on the weights.  Candidates
    the target dominates (and duplicates with a larger id) are dropped:
    they never beat.  The target's own row, if present, compares equal to
    itself and is excluded by the duplicate rule.
    """
    diffs = matrix[cand_rows] - np.asarray(target_values, dtype=np.float64)
    leq = (diffs <= 0).all(axis=1)
    geq = (diffs >= 0).all(axis=1)
    duplicate = leq & geq
    always = (leq & ~duplicate) | (duplicate & (cand_rows < target_id))
    variable = ~leq & ~geq
    return int(np.count_nonzero(always)), cand_rows[variable]


# --------------------------------------------------------------------- #
# Monochromatic, d=2: exact interval region
# --------------------------------------------------------------------- #


@dataclass
class MonochromaticRegion:
    """Exact d=2 reverse top-k region: a union of ``w₁`` intervals.

    ``intervals`` are ``(lo, hi)`` pairs, ascending and disjoint, giving
    the closure of ``{w₁ ∈ (0, 1) : target ∈ top-k under (w₁, 1-w₁)}``.
    Interval endpoints are score-tie breakpoints (measure zero);
    :meth:`contains` is the authoritative membership test — it counts
    beaters with kernel-bitwise scores, so it agrees with a walk kernel
    run at the same weights down to the last ulp.
    """

    k: int
    target_id: int
    intervals: list[tuple[float, float]]
    #: Candidate rows + values retained for exact membership evaluation.
    _matrix: np.ndarray = field(repr=False)
    _cand_rows: np.ndarray = field(repr=False)
    _target_values: np.ndarray = field(repr=False)

    @property
    def measure(self) -> float:
        """Total length of the region inside ``w₁ ∈ (0, 1)``."""
        return float(sum(hi - lo for lo, hi in self.intervals))

    @property
    def is_empty(self) -> bool:
        return not self.intervals

    def contains(self, weights: np.ndarray) -> bool:
        """Exact membership at one (normalized) weight vector."""
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (2,):
            raise InvalidWeightError(
                f"d=2 region takes a 2-weight vector, got shape {w.shape}"
            )
        f_t = _target_score(self._target_values, w)
        scores = score_rows(self._matrix, self._cand_rows, w)
        beats = (scores < f_t) | (
            (scores == f_t) & (self._cand_rows < self.target_id)
        )
        return int(np.count_nonzero(beats)) < self.k


def monochromatic_region_2d(
    matrix: np.ndarray,
    cand_rows: np.ndarray,
    target_values: np.ndarray,
    target_id: int,
    k: int,
) -> MonochromaticRegion:
    """Exact reverse top-k region over ``w = (w₁, 1-w₁)``.

    The beater count is a step function of ``w₁``: dominators beat
    everywhere, dominated tuples nowhere, and each incomparable competitor
    ``s`` flips once at the score-tie breakpoint — with ``Δ = s - t``,

        ``w₁* = Δ₂ / (Δ₂ - Δ₁)``

    (the weight-range partition's ``dy/(dy+dx)`` in difference
    coordinates).  A sweep over the sorted breakpoints yields the count on
    every open segment; the region is the union of segments where the
    count is at most ``k-1``, with adjacent qualifying segments merged
    across their shared breakpoint.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    target_values = np.asarray(target_values, dtype=np.float64)
    always, variable = split_competitors(
        matrix, cand_rows, target_values, target_id
    )
    region = MonochromaticRegion(
        k=int(k),
        target_id=int(target_id),
        intervals=[],
        _matrix=matrix,
        _cand_rows=np.asarray(cand_rows, dtype=np.intp),
        _target_values=target_values,
    )
    if always >= k:
        return region  # dominated out of every top-k: empty region
    diffs = matrix[variable] - target_values
    if diffs.shape[0]:
        # Breakpoint where s and t tie; inside (0, 1) for incomparables.
        breaks = diffs[:, 1] / (diffs[:, 1] - diffs[:, 0])
        # s beats for w1 < w1* when it wins attribute 2 (Δ₂ < 0), for
        # w1 > w1* when it wins attribute 1 (Δ₁ < 0).
        low_side = diffs[:, 1] < 0
        deltas = np.where(low_side, -1.0, 1.0)
        order = np.argsort(breaks, kind="stable")
        breaks = breaks[order]
        deltas = deltas[order]
        base = always + int(np.count_nonzero(low_side))
    else:
        breaks = np.empty(0, dtype=np.float64)
        deltas = np.empty(0, dtype=np.float64)
        base = always
    # Segment counts: segment j lies between bounds[j] and bounds[j+1].
    counts = base + np.concatenate(([0.0], np.cumsum(deltas)))
    bounds = np.concatenate(([0.0], breaks, [1.0]))
    intervals: list[tuple[float, float]] = []
    for j in range(counts.shape[0]):
        if counts[j] > k - 1:
            continue
        lo, hi = float(bounds[j]), float(bounds[j + 1])
        if hi <= lo:
            continue  # coincident breakpoints: zero-width segment
        if intervals and intervals[-1][1] >= lo:
            intervals[-1] = (intervals[-1][0], hi)
        else:
            intervals.append((lo, hi))
    region.intervals = intervals
    return region


# --------------------------------------------------------------------- #
# Monochromatic, d>2: certified volume bounds by simplex bisection
# --------------------------------------------------------------------- #


@dataclass
class SimplexCell:
    """One leaf of the bisection tree over the weight simplex."""

    vertices: np.ndarray  # (d, d): rows are simplex corners in weight space
    status: str  # "in" | "out" | "uncertain"
    volume: float  # fraction of the whole weight simplex

    def contains(self, weights: np.ndarray, tol: float = 1e-9) -> bool:
        """Barycentric point-in-cell test."""
        d = self.vertices.shape[0]
        system = np.vstack([self.vertices.T, np.ones((1, d))])
        rhs = np.concatenate([np.asarray(weights, dtype=np.float64), [1.0]])
        coords, *_ = np.linalg.lstsq(system, rhs, rcond=None)
        return bool(np.all(coords >= -tol))


@dataclass
class CertifiedRegion:
    """Sound (never-contradicting) reverse top-k bounds for d > 2.

    ``cells`` partition the closed weight simplex; every ``"in"`` cell is
    *proven* inside the region (at most ``k-1`` candidates can beat the
    target anywhere in it) and every ``"out"`` cell proven outside (at
    least ``k`` beat it everywhere); ``"uncertain"`` cells exhausted the
    refinement budget.  ``volume_lower <= true volume <= volume_upper``
    as fractions of the whole simplex.
    """

    k: int
    target_id: int
    d: int
    cells: list[SimplexCell]
    volume_lower: float
    volume_upper: float
    max_depth: int

    def classify(self, weights: np.ndarray) -> str:
        """Certificate at one weight vector: ``in`` / ``out`` / ``uncertain``."""
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (self.d,):
            raise InvalidWeightError(
                f"expected {self.d} weights, got shape {w.shape}"
            )
        for cell in self.cells:
            if cell.contains(w):
                return cell.status
        return "uncertain"  # numerically outside every cell


def certified_region(
    matrix: np.ndarray,
    cand_rows: np.ndarray,
    target_values: np.ndarray,
    target_id: int,
    k: int,
    *,
    max_depth: int = 12,
    max_cells: int = 2048,
) -> CertifiedRegion:
    """Certified reverse top-k volume bounds by recursive simplex bisection.

    Each competitor's score difference ``g(w) = w · (s - t)`` is linear in
    ``w``, so over a simplex cell its sign is bracketed by its values at
    the cell's vertices: all vertices below ``-CELL_MARGIN`` certifies
    *beats everywhere in the cell*, all above ``+CELL_MARGIN`` certifies
    *beats nowhere*.  A cell with at most ``k-1`` possible beaters is
    ``in``; one with at least ``k`` certain beaters is ``out``; anything
    else splits at the midpoint of its longest edge (each split halves the
    cell volume) until ``max_depth`` or the ``max_cells`` budget.
    Certificates inherited from a parent cell hold in its children, so
    each recursion level only re-examines the still-uncertain competitors.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    target_values = np.asarray(target_values, dtype=np.float64)
    d = target_values.shape[0]
    always, variable = split_competitors(
        matrix, cand_rows, target_values, target_id
    )
    diffs = matrix[variable] - target_values
    root = np.eye(d, dtype=np.float64)
    cells: list[SimplexCell] = []
    volume_lower = 0.0
    volume_uncertain = 0.0

    # Stack entries: (vertices, volume, inherited certain count, active diffs).
    stack: list[tuple[np.ndarray, float, int, np.ndarray]] = [
        (root, 1.0, always, diffs)
    ]
    budget = max(int(max_cells), 1)
    while stack:
        vertices, volume, certain, active = stack.pop()
        if active.shape[0]:
            at_vertices = active @ vertices.T  # (m_active, d)
            hi = at_vertices.max(axis=1)
            lo = at_vertices.min(axis=1)
            beats_everywhere = hi < -CELL_MARGIN
            beats_nowhere = lo > CELL_MARGIN
            certain += int(np.count_nonzero(beats_everywhere))
            active = active[~beats_everywhere & ~beats_nowhere]
        possible = certain + active.shape[0]
        depth = int(round(-np.log2(volume))) if volume < 1.0 else 0
        if possible <= k - 1:
            cells.append(SimplexCell(vertices, "in", volume))
            volume_lower += volume
        elif certain >= k:
            cells.append(SimplexCell(vertices, "out", volume))
        elif depth >= max_depth or len(cells) + len(stack) >= budget:
            cells.append(SimplexCell(vertices, "uncertain", volume))
            volume_uncertain += volume
        else:
            # Bisect the longest edge; the midpoint stays on the simplex
            # plane, and either child keeps exactly half the volume.
            edge_len = -1.0
            split = (0, 1)
            for a in range(d):
                for b in range(a + 1, d):
                    length = float(
                        np.sum((vertices[a] - vertices[b]) ** 2)
                    )
                    if length > edge_len:
                        edge_len = length
                        split = (a, b)
            a, b = split
            midpoint = 0.5 * (vertices[a] + vertices[b])
            left = vertices.copy()
            left[a] = midpoint
            right = vertices.copy()
            right[b] = midpoint
            stack.append((left, volume / 2.0, certain, active))
            stack.append((right, volume / 2.0, certain, active))
    return CertifiedRegion(
        k=int(k),
        target_id=int(target_id),
        d=d,
        cells=cells,
        volume_lower=volume_lower,
        volume_upper=volume_lower + volume_uncertain,
        max_depth=max_depth,
    )


# --------------------------------------------------------------------- #
# Bichromatic: workload membership with walk-free screens
# --------------------------------------------------------------------- #


@dataclass
class BichromaticResult:
    """Bichromatic reverse top-k answer over a workload ``W``.

    ``members[i]`` is whether the target is in the top-k under row ``i``
    of the workload; ``resolution[i]`` records how row ``i`` was decided:
    ``"static"`` (weight-independent certificate — the whole workload is
    out), ``"screen"`` (zonemap bound certificate, no walk), ``"count"``
    (exact candidate-set beater count, no walk), or ``"walk"`` (batch
    kernel).  ``resolved_without_walk`` is the fraction of rows decided
    without running the walk kernel — the bench suite's headline metric.
    """

    target_id: int
    k: int
    members: np.ndarray
    resolution: list[str]

    @property
    def member_rows(self) -> np.ndarray:
        """Workload row indices whose top-k contains the target."""
        return np.nonzero(self.members)[0]

    @property
    def walked(self) -> int:
        return sum(1 for how in self.resolution if how == "walk")

    @property
    def resolved_without_walk(self) -> float:
        total = len(self.resolution)
        return 1.0 - (self.walked / total) if total else 1.0


class BichromaticScreen:
    """Per-(target, k) zonemap screens deciding membership without a walk.

    Built once over the candidate set (real tuples of coarse layers
    ``0..k-1`` — the layer containment theorem makes beater counts over
    that set decide membership exactly), then queried per weight vector:

    * ``possible(w) < k`` — at most ``k-1`` candidates *can* beat the
      target, so it is **in** the top-k;
    * ``certain(w) >= k`` — at least ``k`` candidates *must* beat it, so
      it is **out**.

    ``possible`` uses block minima (a block whose min-score bound exceeds
    the target's score cannot contain a beater), ``certain`` block maxima
    (a block whose max-score bound is strictly below contains only
    beaters).  Bound scores use the kernels' einsum contraction, and the
    componentwise extrema are float-monotone under it, so both
    certificates are sound with respect to the walk kernels' float
    scores — a screen decision can never disagree with
    :func:`~repro.core.query.process_top_k`.
    """

    def __init__(
        self,
        matrix: np.ndarray,
        cand_rows: np.ndarray,
        target_values: np.ndarray,
        target_id: int,
        k: int,
    ) -> None:
        self.k = int(k)
        self.target_id = int(target_id)
        self.target_values = np.asarray(target_values, dtype=np.float64)
        matrix = np.asarray(matrix, dtype=np.float64)
        self.always, variable = split_competitors(
            matrix, cand_rows, self.target_values, target_id
        )
        self._cand_rows = np.asarray(cand_rows, dtype=np.intp)
        self._matrix = matrix
        block_rows, self._mins, self._maxs = compute_block_extrema(
            matrix, variable
        )
        self._block_counts = np.asarray(
            [rows.shape[0] for rows in block_rows], dtype=np.int64
        )
        self._block_nodes = np.arange(self._mins.shape[0], dtype=np.intp)

    def resolve(self, weights: np.ndarray) -> bool | None:
        """Membership under one normalized weight vector, or ``None``.

        ``True``/``False`` are *certified* (bitwise consistent with the
        walk kernels); ``None`` means the bounds were inconclusive and the
        caller must fall through to an exact path.
        """
        f_t = _target_score(self.target_values, weights)
        if self._block_counts.shape[0]:
            lo = score_rows(self._mins, self._block_nodes, weights)
            hi = score_rows(self._maxs, self._block_nodes, weights)
            possible = self.always + int(self._block_counts[lo <= f_t].sum())
            certain = self.always + int(self._block_counts[hi < f_t].sum())
        else:
            possible = certain = self.always
        if possible < self.k:
            return True
        if certain >= self.k:
            return False
        return None

    def exact(self, weights: np.ndarray) -> bool:
        """Exact membership by candidate-set beater count (no walk).

        The walk-free fallback for targets the kernel cannot walk for
        (hypothetical tuples): counts ``(score, id) < (F_t, target_id)``
        over the candidate rows with kernel-bitwise scores.
        """
        f_t = _target_score(self.target_values, weights)
        scores = score_rows(self._matrix, self._cand_rows, weights)
        beats = (scores < f_t) | (
            (scores == f_t) & (self._cand_rows < self.target_id)
        )
        return int(np.count_nonzero(beats)) < self.k
