"""Lower-facet enumeration: structure, normals, degeneracy fallbacks."""

import numpy as np
import pytest

from repro.geometry import lower_facets
from repro.geometry.facets import Facet, lower_facet_vertices


def test_2d_facets_are_chain_segments(rng):
    points = rng.random((60, 2))
    facets = lower_facets(points)
    for facet in facets:
        assert facet.members.shape[0] == 2
        assert facet.pure
        assert facet.normal is not None
        # Normals point down-left (outward from conv(S) + R+^d).
        assert np.all(facet.normal <= 1e-12)
        np.testing.assert_allclose(np.linalg.norm(facet.normal), 1.0)
        # Both members lie on the hyperplane.
        for member in facet.members:
            assert facet.normal @ points[member] + facet.offset == pytest.approx(
                0.0, abs=1e-9
            )


@pytest.mark.parametrize("d", [3, 4])
def test_highd_lower_facets_have_nonpositive_normals(d, rng):
    points = rng.random((80, d))
    facets = lower_facets(points)
    assert facets
    for facet in facets:
        if facet.normal is not None:
            assert np.all(facet.normal <= 1e-3)
        assert 1 <= facet.members.shape[0] <= d


def test_pure_facets_span_hyperplane(rng):
    points = rng.random((80, 3))
    pure = [f for f in lower_facets(points) if f.pure]
    assert pure, "random 3-D data must produce pure lower facets"
    for facet in pure:
        assert facet.members.shape[0] == 3
        residuals = points[facet.members] @ facet.normal + facet.offset
        np.testing.assert_allclose(residuals, 0.0, atol=1e-8)


def test_hyperplanes_hold_on_anisotropic_axes(rng):
    """The hull runs on per-axis rescaled points; the facets it hands back
    are unit-normal supporting hyperplanes of the original points."""
    points = rng.random((80, 3)) * np.array([1.0, 1e-6, 1e3])
    facets = [f for f in lower_facets(points) if f.normal is not None]
    assert any(f.pure for f in facets)
    for facet in facets:
        np.testing.assert_allclose(np.linalg.norm(facet.normal), 1.0)
        assert np.all(facet.normal <= 1e-3)
        if facet.pure:
            residuals = points[facet.members] @ facet.normal + facet.offset
            np.testing.assert_allclose(residuals, 0.0, atol=1e-9)
        # Supporting: every point lies on the facet or above it.
        assert np.all(points @ facet.normal + facet.offset <= 1e-9)


def test_single_point():
    facets = lower_facets(np.array([[0.5, 0.5, 0.5]]))
    assert len(facets) == 1
    np.testing.assert_array_equal(facets[0].members, [0])


def test_1d_min_point():
    facets = lower_facets(np.array([[0.9], [0.1], [0.5]]))
    assert len(facets) == 1
    np.testing.assert_array_equal(facets[0].members, [1])


def test_identical_points_degenerate():
    points = np.tile([0.3, 0.3, 0.3], (5, 1))
    facets = lower_facets(points)
    assert len(facets) == 1
    assert facets[0].members.shape[0] >= 1


def test_coplanar_points_fallback():
    """Points on a hyperplane: qhull fails flat input, fallback must cover."""
    rng = np.random.default_rng(3)
    xy = rng.random((20, 2))
    z = 1.0 - 0.5 * xy[:, 0] - 0.5 * xy[:, 1]
    points = np.column_stack([xy, z])
    facets = lower_facets(points)
    assert facets
    covered = lower_facet_vertices(points)
    assert covered.shape[0] >= 1


def test_too_few_points_for_hull():
    points = np.array([[0.1, 0.9, 0.5], [0.9, 0.1, 0.5]])
    facets = lower_facets(points)
    assert facets
    covered = set(np.concatenate([f.members for f in facets]).tolist())
    assert covered == {0, 1}


def test_empty():
    assert lower_facets(np.empty((0, 3))) == []
    assert lower_facet_vertices(np.empty((0, 3))).shape == (0,)


def test_facet_dataclass_defaults():
    facet = Facet(members=np.array([0, 1], dtype=np.intp))
    assert facet.normal is None
    assert not facet.pure
