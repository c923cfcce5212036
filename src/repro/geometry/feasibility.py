"""Convex-combination dominance: the exact geometric test behind ∃-dominance.

A facet ``F = {p¹, ..., pᵐ}`` is an ∃-dominance set of a tuple ``t'``
(Definition 5, with the virtual tuple restricted to the facet *segment* as in
the paper's Example 2) iff some convex combination of the facet points lies
in the dominance region of ``t'``::

    ∃ λ ≥ 0, Σλ = 1 :  Fᵀλ ≤ t'  (componentwise)

Restricting ``t^V`` to the segment is what makes Lemma 2 sound: for every
positive weight vector ``w``, ``min_i w·pⁱ ≤ w·(Fᵀλ) ≤ w·t'``.

Two-point facets (every facet in 2-D) reduce to a closed-form interval
intersection; larger facets use one small LP (HiGHS).  ``tol`` is an
*absolute* slack on the target: it admits boundary contact at unit scale,
but on data whose magnitude is near ``tol`` it accepts combinations that do
not dominate the target, and a gate built on such a test is unsound.  The
index build does not use this module (see :mod:`repro.core.eds`, whose
single-point test is exact and whose other thresholds are relative to the
data); the paper-example and property tests do.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog

#: Feasibility slack: contact within this tolerance counts as dominated.
DEFAULT_TOL = 1e-9


def convex_combination_dominates(
    facet_points: np.ndarray, target: np.ndarray, tol: float = DEFAULT_TOL
) -> bool:
    """True iff some convex combination of ``facet_points`` is ``<= target + tol``.

    ``facet_points`` has shape ``(m, d)`` with ``m >= 1``; ``target`` is a
    ``d``-vector.
    """
    pts = np.atleast_2d(np.asarray(facet_points, dtype=np.float64))
    t = np.asarray(target, dtype=np.float64)
    m = pts.shape[0]
    if m == 0:
        return False

    bound = t + tol
    # Quick accept: a single facet point already dominates (weakly).
    if np.any(np.all(pts <= bound, axis=1)):
        return True
    # Quick reject: even the componentwise minimum cannot fit under target.
    if np.any(pts.min(axis=0) > bound):
        return False
    if m == 1:
        return False
    if m == 2:
        return _segment_feasible(pts[0], pts[1], bound)
    return _lp_feasible(pts, bound)


def _segment_feasible(p: np.ndarray, q: np.ndarray, bound: np.ndarray) -> bool:
    """Closed form for 2-point facets: intersect per-coordinate λ intervals.

    The combination is ``λ p + (1-λ) q`` with ``λ ∈ [0, 1]``; each coordinate
    ``i`` constrains λ to a half-line depending on the sign of ``p_i - q_i``.
    """
    lo, hi = 0.0, 1.0
    diff = p - q
    rhs = bound - q
    for i in range(diff.shape[0]):
        di = diff[i]
        if di > 0:
            hi = min(hi, rhs[i] / di)
        elif di < 0:
            lo = max(lo, rhs[i] / di)
        else:
            if rhs[i] < 0:
                return False
        if lo > hi:
            return False
    return lo <= hi


def _lp_feasible(pts: np.ndarray, bound: np.ndarray) -> bool:
    """LP feasibility for facets of 3+ points: λ ≥ 0, Σλ = 1, ptsᵀλ ≤ bound."""
    m = pts.shape[0]
    result = linprog(
        c=np.zeros(m),
        A_ub=pts.T,
        b_ub=bound,
        A_eq=np.ones((1, m)),
        b_eq=np.ones(1),
        bounds=[(0.0, 1.0)] * m,
        method="highs",
    )
    return bool(result.status == 0)


def dominating_combination(
    facet_points: np.ndarray, target: np.ndarray, tol: float = DEFAULT_TOL
) -> np.ndarray | None:
    """The virtual tuple itself: a combination ``<= target + tol``, or None.

    Used by diagnostics and the property tests to exhibit the witness
    ``t^V`` of Definition 5.
    """
    pts = np.atleast_2d(np.asarray(facet_points, dtype=np.float64))
    t = np.asarray(target, dtype=np.float64)
    bound = t + tol
    m = pts.shape[0]
    if m == 0:
        return None
    single = np.all(pts <= bound, axis=1)
    if np.any(single):
        return pts[int(np.argmax(single))].copy()
    if m == 1:
        return None
    if m == 2:
        lo, hi = 0.0, 1.0
        diff = pts[0] - pts[1]
        rhs = bound - pts[1]
        for i in range(diff.shape[0]):
            if diff[i] > 0:
                hi = min(hi, rhs[i] / diff[i])
            elif diff[i] < 0:
                lo = max(lo, rhs[i] / diff[i])
            elif rhs[i] < 0:
                return None
        if lo > hi:
            return None
        lam = 0.5 * (lo + hi)
        return lam * pts[0] + (1 - lam) * pts[1]
    result = linprog(
        c=np.zeros(m),
        A_ub=pts.T,
        b_ub=bound,
        A_eq=np.ones((1, m)),
        b_eq=np.ones(1),
        bounds=[(0.0, 1.0)] * m,
        method="highs",
    )
    if result.status != 0:
        return None
    return pts.T @ result.x
