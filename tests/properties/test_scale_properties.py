"""The build is scale-free: power-of-two scaled data gets the same index.

Scaling a relation by a power of two is exact in float and changes no
ranking, so the built structure must be the unit-scale one with scaled
values, every kernel must return the brute-force top-k, and the exact
structure checks must pass.  Fixed tolerances in the build broke all
three on small-magnitude data: a point "weakly dominated" a target within
``1e-9`` of it and gated the target behind the wrong ∃-parent.
"""

from functools import lru_cache

import numpy as np
import pytest

from repro.analytics.oracle import oracle_top_k
from repro.core import DLIndex, DLPlusIndex
from repro.data import generate
from repro.relation import Relation, normalize_weights
from tests.conftest import served_kernels, walk_with
from tests.structure_check import assert_structure_sound

N, LAYERS, K, QUERIES = 500, 10, 10, 20
INDEXES = {"DL": DLIndex, "DL+": DLPlusIndex}
ARRAYS = (
    "forall_parent_count", "forall_indptr", "forall_indices", "exists_gated",
    "exists_indptr", "exists_indices", "static_seeds", "coarse_levels", "fine_levels",
)


@lru_cache(maxsize=None)
def _build(distribution, d, index_name, exponent):
    matrix = generate(distribution, N, d, seed=31 * d + len(distribution)).matrix
    relation = Relation(np.ldexp(matrix, exponent))
    return relation, INDEXES[index_name](relation, max_layers=LAYERS).build().structure


@pytest.mark.parametrize("exponent", [0, -20, -40], ids=["1", "2^-20", "2^-40"])
@pytest.mark.parametrize("index_name", sorted(INDEXES))
@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("distribution", ["IND", "ANT", "COR"])
def test_scaled_builds_answer_exactly(distribution, d, index_name, exponent):
    relation, structure = _build(distribution, d, index_name, exponent)
    _, unit = _build(distribution, d, index_name, 0)
    assert np.array_equal(structure.values, np.ldexp(unit.values, exponent))
    for name in ARRAYS:
        assert np.array_equal(getattr(structure, name), getattr(unit, name)), name
    assert_structure_sound(structure)

    rng = np.random.default_rng(7 * d)
    # Normalise once: the kernels and the oracle score with these exact
    # bits (normalising a normalised vector again can change them).
    weights = [normalize_weights(rng.dirichlet(np.ones(d)), d) for _ in range(QUERIES)]
    expected = [oracle_top_k(relation.matrix, w, K)[0] for w in weights]
    for kernel in served_kernels():
        answers = walk_with(kernel, structure, np.vstack(weights), K)
        for (got, *_), ids in zip(answers, expected):
            assert np.array_equal(got, ids), kernel
