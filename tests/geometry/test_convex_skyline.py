"""Convex-skyline extraction against the LP definition (Definition 4)."""

import numpy as np
import pytest
from scipy.optimize import linprog

from repro.geometry import convex_skyline
from repro.geometry.convex_skyline import convex_skyline_with_facets


def lp_argmin_members(points: np.ndarray) -> set[int]:
    """Reference: indices minimizing some strictly positive weight vector."""
    n, d = points.shape
    members = set()
    for i in range(n):
        diff = points[i][None, :] - np.delete(points, i, axis=0)
        result = linprog(
            np.zeros(d),
            A_ub=diff,
            b_ub=np.zeros(diff.shape[0]),
            A_eq=np.ones((1, d)),
            b_eq=[1.0],
            bounds=[(1e-7, 1.0)] * d,
            method="highs",
        )
        if result.status == 0:
            members.add(i)
    return members


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_contains_every_strict_argmin(d, rng):
    points = rng.random((35, d))
    mine = set(convex_skyline(points).tolist())
    assert lp_argmin_members(points) <= mine


@pytest.mark.parametrize("d", [2, 3, 4])
def test_directional_argmin_always_inside(d, rng):
    points = rng.random((200, d))
    csky = set(convex_skyline(points).tolist())
    for _ in range(30):
        w = rng.dirichlet(np.ones(d))
        scores = points @ w
        argmins = set(np.nonzero(scores == scores.min())[0].tolist())
        assert csky & argmins


def test_min_sum_always_member(rng):
    for d in (2, 3, 4):
        points = rng.random((60, d))
        csky = convex_skyline(points)
        assert int(np.argmin(points.sum(axis=1))) in csky


def test_cone_apex_found():
    """Regression: a point set in a narrow cone — every conv(S) facet at the
    apex has mixed-sign normals, so naive lower-facet filtering misses it."""
    apex = np.array([[0.0, 0.0, 0.0]])
    rng = np.random.default_rng(0)
    # Points spread inside the cone around the diagonal direction.
    base = rng.dirichlet(np.ones(3), size=40) * 0.2 + 0.4
    points = np.vstack([apex, base])
    assert 0 in convex_skyline(points)


def test_tiny_spread_axes_keep_their_vertices():
    """Regression: two axes whose spread is 1e-10 next to another's 1 used
    to fall under qhull's roundoff, dropping two of three vertices."""
    points = np.array(
        [[0.0, 1e-10, 0.0, 0.0], [0.0, 0.0, 1e-10, 0.0], [1.0, 0.0, 0.0, 0.0]]
    )
    assert set(convex_skyline(points).tolist()) == {0, 1, 2}
    assert lp_argmin_members(points) <= {0, 1, 2}


def test_empty_and_tiny():
    assert convex_skyline(np.empty((0, 3))).shape == (0,)
    np.testing.assert_array_equal(convex_skyline(np.array([[0.1, 0.2, 0.3]])), [0])
    two = np.array([[0.1, 0.9, 0.5], [0.9, 0.1, 0.5]])
    assert set(convex_skyline(two).tolist()) == {0, 1}


def test_dominated_pair_only_min():
    points = np.array([[0.1, 0.1, 0.1], [0.2, 0.2, 0.2]])
    np.testing.assert_array_equal(convex_skyline(points), [0])


def test_facets_cover_vertices(rng):
    for d in (2, 3, 4):
        points = rng.random((50, d))
        vertices, facets = convex_skyline_with_facets(points)
        covered = np.unique(np.concatenate([f.members for f in facets]))
        assert set(vertices.tolist()) == set(covered.tolist())


def test_with_facets_empty():
    vertices, facets = convex_skyline_with_facets(np.empty((0, 2)))
    assert vertices.shape == (0,)
    assert facets == []


def test_matches_2d_chain(rng):
    from repro.geometry import lower_left_chain

    points = rng.random((80, 2))
    csky = set(convex_skyline(points).tolist())
    chain = set(lower_left_chain(points).tolist())
    assert chain <= csky
