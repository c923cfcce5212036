"""Lower-facet enumeration: the paper's minimal ∃-dominance sets.

The ∃-dominance sets of a fine sublayer are the facets of its convex
polyhedron (§III-B).  What the query machinery actually needs is the *lower*
boundary of ``P = conv(S) + R₊^d`` — the part of the hull supporting
minimization under non-negative weights.

A subtlety: filtering raw ``ConvexHull(S)`` facets by "outward normal ≤ 0"
is *not* sufficient.  A vertex of ``P`` can have all of its ``conv(S)``-facet
normals mixed-sign (e.g. a point set inside a narrow cone with its apex as
the unique minimum).  We therefore augment ``S`` with one far sentinel per
axis at ``min_corner + BIG·e_i``; the augmented hull's facets with
(near-)non-positive normals triangulate exactly the lower boundary of ``P``.

Each facet is returned as a :class:`Facet` carrying its real (non-sentinel)
members plus the supporting hyperplane equation, which the ∃-dominance
assignment uses for exact ray shooting.  Facets whose simplex contained a
sentinel (the unbounded "side walls" of ``P``) and degenerate fallbacks are
marked impure — their members still form a *sound* relaxed EDS (Lemma 2 only
needs the virtual tuple to be a convex combination of members), they just
don't support the ray fast path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geometry.hull import convex_hull
from repro.geometry.hull2d import lower_left_chain

#: How far sentinels sit beyond the data, relative to the data's extent.
_SENTINEL_FACTOR = 1e4
#: Facet normals with every component below this count as lower facets
#: (normals are unit length; sentinel-induced tilt is O(extent / BIG)).
_NORMAL_TOL = 1e-3


@dataclass
class Facet:
    """One lower facet of ``conv(S) + R₊^d``.

    Attributes
    ----------
    members:
        Indices (into the point set the facet was computed over) of the
        facet's real vertices — one ∃-dominance set.
    normal / offset:
        Supporting hyperplane ``normal · x + offset = 0`` with outward
        (non-positive) unit normal; ``None`` for degenerate facets.
    pure:
        True when the simplex consisted of exactly ``d`` real points, so the
        hyperplane is spanned by ``members`` and ray shooting applies.
    """

    members: np.ndarray
    normal: np.ndarray | None = None
    offset: float | None = None
    pure: bool = False


def lower_facets(points: np.ndarray) -> list[Facet]:
    """Lower facets of ``points``; at least one facet for non-empty input.

    2-D: consecutive pairs of the lower-left chain with segment normals.
    d ≥ 3: real-member sets of the sentinel-augmented hull's lower facets.
    Degenerate geometry: a single impure facet holding every point.
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    n, d = points.shape
    if n == 0:
        return []
    if n == 1:
        return [Facet(members=np.array([0], dtype=np.intp))]
    if d == 1:
        return [Facet(members=np.array([int(np.argmin(points[:, 0]))], dtype=np.intp))]
    if d == 2:
        return _chain_facets(points)
    facets = _augmented_lower_facets(points)
    if facets:
        return facets
    return [Facet(members=np.arange(n, dtype=np.intp))]


def _chain_facets(points: np.ndarray) -> list[Facet]:
    """2-D: chain segments with exact perpendicular normals."""
    chain = lower_left_chain(points)
    if chain.shape[0] == 1:
        return [Facet(members=chain)]
    facets = []
    for i in range(chain.shape[0] - 1):
        members = chain[i : i + 2]
        p, q = points[members[0]], points[members[1]]
        direction = q - p
        # Chain runs x-ascending / y-descending; (dy, -dx) points down-left.
        normal = np.array([direction[1], -direction[0]], dtype=np.float64)
        norm = np.linalg.norm(normal)
        if norm <= 0:
            facets.append(Facet(members=members))
            continue
        normal /= norm
        facets.append(
            Facet(
                members=members,
                normal=normal,
                offset=float(-normal @ p),
                pure=True,
            )
        )
    return facets


def _augmented_lower_facets(points: np.ndarray) -> list[Facet]:
    """Lower facets via the sentinel-augmented hull; [] when qhull fails."""
    n, d = points.shape
    lo = points.min(axis=0)
    axis_extent = points.max(axis=0) - lo
    if not np.any(axis_extent > 0.0):
        # All points identical.
        return [Facet(members=np.array([0], dtype=np.intp))]
    # Hull the points mapped to the unit box, axis by axis.  A positive
    # diagonal scaling keeps the lower facets (and the convex skyline), but
    # lets an axis whose spread is tiny next to another's still register
    # against qhull's roundoff, which follows the sentinels' magnitude.
    axis_scale = 1.0 / np.where(axis_extent > 0.0, axis_extent, 1.0)
    unit = (points - lo) * axis_scale
    sentinels = np.zeros((d, d))
    sentinels[np.arange(d), np.arange(d)] = _SENTINEL_FACTOR

    augmented = np.vstack([unit, sentinels])
    hull = convex_hull(augmented)
    if not hull.ok:
        return []

    unit_normals = hull.equations[:, :-1]
    # n_u·u + o_u = 0 with u = (x - lo)·s is (n_u·s)·x + (o_u - n_u·s·lo) = 0;
    # rescale to a unit normal.  Signs survive, so lower facets stay lower.
    normals = unit_normals * axis_scale
    offsets = hull.equations[:, -1] - normals @ lo
    norms = np.linalg.norm(normals, axis=1)
    normals = normals / norms[:, None]
    offsets = offsets / norms
    lower = np.all(unit_normals <= _NORMAL_TOL, axis=1)
    facets: list[Facet] = []
    seen: set[tuple[int, ...]] = set()
    for facet_idx in np.nonzero(lower)[0]:
        simplex = hull.simplices[facet_idx]
        real = np.sort(simplex[simplex < n]).astype(np.intp)
        if real.shape[0] == 0:
            continue
        key = tuple(int(i) for i in real)
        if key in seen:
            continue
        seen.add(key)
        facets.append(
            Facet(
                members=real,
                normal=normals[facet_idx].copy(),
                offset=float(offsets[facet_idx]),
                pure=real.shape[0] == d,
            )
        )
    return facets


def lower_facet_vertices(points: np.ndarray) -> np.ndarray:
    """Sorted union of all lower-facet members — the convex-skyline candidates."""
    facets = lower_facets(points)
    if not facets:
        return np.empty(0, dtype=np.intp)
    return np.unique(np.concatenate([f.members for f in facets])).astype(np.intp)
