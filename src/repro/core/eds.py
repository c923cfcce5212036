"""∃-dominance-set assignment between adjacent fine sublayers (§III-B).

Given the previous sublayer ``L^{ij}`` (its points and its lower-hull
facets) and the members of ``L^{i(j+1)}``, pick for each member one covering
∃-dominance set — a facet whose segment contains a virtual tuple weakly
dominating the member (Definition 5 restricted to the facet segment, which
is what makes Lemma 2 sound).

The assignment is geometric, not search-by-LP:

1. **Single-point cover** — a previous-sublayer point that weakly dominates
   the member is a one-point EDS (``λ = 1``); found for every member with
   one exact vectorized comparison.  (Rare between sublayers of one skyline
   layer, common for pseudo-tuple sets.)
2. **Ray shooting** — ``P = conv(L^{ij}) + R₊^d`` is exactly the
   intersection of its lower facets' half-spaces, so the downward ray
   ``t' - s·(1,...,1)`` exits ``P`` at ``s* = min_f s_f`` where
   ``s_f = (n_f·t' + o_f) / (n_f·1)``, and the exit point lies on the argmin
   facet; the exit point itself is the witness ``t^V`` (it dominates ``t'``
   by construction).  Near-tied exits take the union of the tied facets.
3. **LP fallback** — one LP over *all* sublayer points finds the
   least-violating combination (``λ ≥ 0, Σλ = 1, Pᵀλ ≤ t' + s·1``); its
   vertex solution's support (≤ d+1 points by Carathéodory) becomes the
   EDS.  Sound, because Lemma 2 only needs the virtual tuple to be a convex
   combination of the parents.

Rungs 2 and 3 compare floats against fixed thresholds.  They run on the
points, targets and facet offsets multiplied by one power of two
(:func:`~repro.geometry.scale.power_of_two_scale`), which is exact, so the
thresholds act relative to the data's magnitude and the assignment is the
same at every power-of-two scale.

Coverage is guaranteed geometrically — every non-CSKY member of a mutually
non-dominated set lies in ``conv(CSKY) + R₊^d`` — and enforced at build
time: an uncoverable member raises :class:`IndexConstructionError`.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog

from repro.exceptions import IndexConstructionError
from repro.geometry.facets import Facet
from repro.geometry.scale import power_of_two_scale

#: Ray slack, on data scaled to peak in [0.5, 1): exit parameters above
#: ``-_RAY_TOL`` count as on or above the hull, and exits within it of the
#: minimum are near-ties.
_RAY_TOL = 1e-9
#: Slack of the ray exit's necessary condition (the exit facet's
#: componentwise minimum must sit below the target).
_RAY_MIN_TOL = 1e-7
#: Acceptance ceiling for the min-violation LP.  Coverage between adjacent
#: sublayers is geometrically guaranteed, but HiGHS reports the
#: least-violating combination with its own feasibility tolerance on top of
#: float accumulation over the sublayer matrix; on data scaled to peak in
#: [0.5, 1) that is numerical noise far below this ceiling, while a
#: genuinely uncovered target misses by many orders of magnitude more.
_LP_VIOLATION_TOL = 1e-6


def assign_covering_facets(
    prev_points: np.ndarray,
    prev_facets: list[Facet],
    target_points: np.ndarray,
) -> list[np.ndarray]:
    """For each target, indices (into ``prev_points``) of its EDS parents.

    ``prev_facets[*].members`` index into ``prev_points``; the returned
    parent arrays do too.  Raises :class:`IndexConstructionError` if any
    target cannot be covered even by the relaxed whole-sublayer EDS.
    """
    prev_points = np.atleast_2d(np.asarray(prev_points, dtype=np.float64))
    target_points = np.atleast_2d(np.asarray(target_points, dtype=np.float64))
    n_targets, d = target_points.shape
    if n_targets == 0:
        return []
    if prev_points.shape[0] == 0:
        raise IndexConstructionError("cannot cover targets from an empty sublayer")

    # Fast path 1: single-point weak dominator per target (vectorized, exact).
    weak = np.all(prev_points[:, None, :] <= target_points[None, :, :], axis=2)
    single_parent = np.where(np.any(weak, axis=0), np.argmax(weak, axis=0), -1)

    # The remaining rungs threshold floats: run them on the data scaled to
    # peak in [0.5, 1), exactly, so the thresholds are relative to it.
    scale = power_of_two_scale(prev_points, target_points)
    prev_points = prev_points * scale
    target_points = target_points * scale

    # Exit-facet machinery: P = conv(sublayer) + R₊^d is exactly the
    # intersection of its facet half-spaces (pure *and* sentinel-mixed), so
    # the downward ray's exit parameter is min_f s_f.  A mixed-facet exit is
    # just as good a witness: the exit point is a convex combination of the
    # facet's real members plus non-negative axis directions, hence the real
    # members alone admit a combination below it.
    equipped = [f for f in prev_facets if f.normal is not None]
    if equipped:
        normals = np.vstack([f.normal for f in equipped])  # (f, d)
        offsets = np.asarray([f.offset for f in equipped]) * scale
        denom = normals.sum(axis=1)  # n·1, strictly negative for lower facets
        usable = denom < -1e-9
        normals, offsets, denom = normals[usable], offsets[usable], denom[usable]
        equipped = [f for f, u in zip(equipped, usable) if u]
    ray_ready = bool(equipped)
    mins = (
        np.vstack([prev_points[f.members].min(axis=0) for f in equipped])
        if ray_ready
        else None
    )

    # Fast path 2 (batched): one (targets × facets) ray matrix resolves the
    # exit facet for every target at once; only near-ties and misses drop to
    # the per-target machinery below.  ``unique_members`` caches each facet's
    # sorted member set so hit targets share one array per facet.
    if ray_ready:
        ray_hit, exit_facet = _batched_exit_facets(
            target_points, normals, offsets, denom, mins
        )
        unique_members: dict[int, np.ndarray] = {}

    assignments: list[np.ndarray] = []
    for t in range(n_targets):
        if single_parent[t] >= 0:
            assignments.append(np.asarray([single_parent[t]], dtype=np.intp))
            continue
        if ray_ready and ray_hit[t]:
            facet_pos = int(exit_facet[t])
            chosen = unique_members.get(facet_pos)
            if chosen is None:
                chosen = np.unique(equipped[facet_pos].members).astype(np.intp)
                unique_members[facet_pos] = chosen
            assignments.append(chosen)
            continue
        target = target_points[t]
        chosen = _exit_facet_members(
            target, equipped, normals, offsets, denom, mins
        ) if ray_ready else None
        if chosen is None:
            # Boundary-degenerate targets (domain-clamped coordinates at
            # large anti-correlated scale, or narrow directional subsets)
            # can make HiGHS call a geometrically guaranteed cover
            # infeasible, so solve for the least-violating combination and
            # accept it at numerical-noise scale.
            chosen = _lp_min_violation_support(
                prev_points, target, max_violation=_LP_VIOLATION_TOL
            )
        if chosen is None:
            raise IndexConstructionError(
                "∃-dominance coverage violated: no convex combination of "
                f"the previous sublayer dominates target {(target / scale).tolist()}"
            )
        assignments.append(np.asarray(chosen, dtype=np.intp))
    return assignments


#: Target rows per block in :func:`_batched_exit_facets`; bounds the
#: (block × facets) ray-matrix intermediates.
_RAY_BLOCK = 2048


def _batched_exit_facets(
    target_points: np.ndarray,
    normals: np.ndarray,
    offsets: np.ndarray,
    denom: np.ndarray,
    facet_mins: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized single-exit-facet resolution for a whole target batch.

    Returns ``(hit, facet)``: ``hit[t]`` is True when target ``t``'s downward
    ray exits through exactly one facet (no near-ties) whose componentwise
    member minimum clears the same necessary condition
    :func:`_exit_facet_members` checks — for those targets the assignment is
    ``unique(members)`` of ``facet[t]``, byte-identical to the per-target
    path.  Ties and misses stay ``hit = False`` and take the slow path.
    """
    n_targets = target_points.shape[0]
    hit = np.zeros(n_targets, dtype=bool)
    exit_facet = np.zeros(n_targets, dtype=np.intp)
    for start in range(0, n_targets, _RAY_BLOCK):
        block = target_points[start : start + _RAY_BLOCK]
        s_matrix = (block @ normals.T + offsets[None, :]) / denom[None, :]
        s_masked = np.where(s_matrix >= -_RAY_TOL, s_matrix, np.inf)
        f_star = np.argmin(s_masked, axis=1)
        rows = np.arange(block.shape[0])
        s_star = s_masked[rows, f_star]
        ties = np.count_nonzero(s_masked <= s_star[:, None] + _RAY_TOL, axis=1)
        ok = (
            np.isfinite(s_star)
            & (ties == 1)
            & ~np.any(facet_mins[f_star] > block + _RAY_MIN_TOL, axis=1)
        )
        hit[start : start + _RAY_BLOCK] = ok
        exit_facet[start : start + _RAY_BLOCK] = f_star
    return hit, exit_facet


def _exit_facet_members(
    target: np.ndarray,
    facets: list[Facet],
    normals: np.ndarray,
    offsets: np.ndarray,
    denom: np.ndarray,
    facet_mins: np.ndarray,
) -> np.ndarray | None:
    """Members of the facet(s) the downward ray exits through, or None.

    Returns the union of members over near-tied exit facets (the exit point
    lies in one of their simplices, so the union is a sound, slightly
    relaxed EDS).  A cheap necessary condition — the union's componentwise
    minimum must sit below the target — guards against numerical surprises;
    failures fall back to the LP.
    """
    s_values = (normals @ target + offsets) / denom
    valid = s_values >= -_RAY_TOL
    if not np.any(valid):
        return None
    s_star = float(s_values[valid].min())
    ties = valid & (s_values <= s_star + _RAY_TOL)
    members = np.unique(np.concatenate([f.members for f, m in zip(facets, ties) if m]))
    union_min = facet_mins[ties].min(axis=0)
    if np.any(union_min > target + _RAY_MIN_TOL):
        return None
    return members.astype(np.intp)


def _lp_min_violation_support(
    prev_points: np.ndarray, target: np.ndarray, max_violation: float
) -> np.ndarray | None:
    """Support of the least-violating convex combination, if tiny enough.

    Minimizes ``s`` subject to ``Pᵀλ ≤ target + s·1, Σλ = 1, λ ≥ 0,
    s ≥ 0`` — always feasible — and returns the support only when the
    optimal violation is at most ``max_violation``.  A covered
    target has optimum 0, up to the solver's feasibility tolerance;
    anything larger is a genuine coverage failure and stays an error.
    """
    m, d = prev_points.shape
    # Variables: lambda (m) then s (1).
    c = np.zeros(m + 1)
    c[m] = 1.0
    a_ub = np.hstack([prev_points.T, -np.ones((d, 1))])
    result = linprog(
        c=c,
        A_ub=a_ub,
        b_ub=target,
        A_eq=np.hstack([np.ones((1, m)), np.zeros((1, 1))]),
        b_eq=np.ones(1),
        bounds=[(0.0, 1.0)] * m + [(0.0, None)],
        method="highs",
    )
    if result.status != 0 or result.x[m] > max_violation:
        return None
    support = np.nonzero(result.x[:m] > 1e-9)[0].astype(np.intp)
    if support.shape[0] == 0:
        support = np.asarray([int(np.argmax(result.x[:m]))], dtype=np.intp)
    return support
