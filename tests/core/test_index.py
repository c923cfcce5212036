"""Public DLIndex / DLPlusIndex behaviour."""

import numpy as np
import pytest

from repro.core import DLIndex, DLPlusIndex
from repro.data import generate
from repro.exceptions import IndexCapacityError, InvalidQueryError, InvalidWeightError
from repro.relation import top_k_bruteforce


@pytest.fixture(scope="module")
def relation():
    return generate("ANT", 300, 3, seed=11)


def test_query_builds_lazily(relation):
    index = DLIndex(relation)
    result = index.query(np.ones(3) / 3, 5)
    assert len(result) == 5
    assert index._built


def test_build_returns_self(relation):
    index = DLIndex(relation)
    assert index.build() is index
    assert index.build_stats.seconds >= 0
    assert index.build_stats.num_layers >= 1
    assert index.build_stats.layer_sizes


def test_weights_are_normalized(relation):
    index = DLIndex(relation).build()
    a = index.query(np.array([1.0, 1.0, 2.0]), 5)
    b = index.query(np.array([0.25, 0.25, 0.5]), 5)
    np.testing.assert_array_equal(a.ids, b.ids)


def test_invalid_inputs_rejected(relation):
    index = DLIndex(relation).build()
    with pytest.raises(InvalidQueryError):
        index.query(np.ones(3) / 3, 0)
    with pytest.raises(InvalidWeightError):
        index.query(np.array([0.5, 0.5, 0.0]), 3)
    with pytest.raises(InvalidWeightError):
        index.query(np.array([0.5, 0.5]), 3)


@pytest.mark.parametrize("k", [2.5, True, np.True_], ids=["2.5", "True", "np.True_"])
def test_non_integral_k_rejected(relation, k):
    """The library entry point parses k like the serving engines: a
    non-integral or boolean size raises instead of being coerced."""
    index = DLPlusIndex(relation).build()
    with pytest.raises(InvalidQueryError, match="must be an integer"):
        index.query(np.ones(3) / 3, k)


@pytest.mark.parametrize("k", [np.int64(3), 3.0], ids=["np.int64", "3.0"])
def test_integral_k_served(relation, k):
    index = DLPlusIndex(relation).build()
    result = index.query(np.ones(3) / 3, k)
    expected = index.query(np.ones(3) / 3, 3)
    assert result.ids.tobytes() == expected.ids.tobytes()
    assert result.scores.tobytes() == expected.scores.tobytes()


def test_k_clamped_to_n():
    relation = generate("IND", 20, 2, seed=0)
    index = DLIndex(relation).build()
    result = index.query(np.array([0.5, 0.5]), 100)
    assert len(result) == 20


def test_max_layers_capacity(relation):
    index = DLIndex(relation, max_layers=3).build()
    index.query(np.ones(3) / 3, 3)
    with pytest.raises(IndexCapacityError):
        index.query(np.ones(3) / 3, 10)


def test_dlplus_zero_layer_modes(relation):
    auto = DLPlusIndex(relation).build()
    forced = DLPlusIndex(relation, zero_layer="clusters").build()
    assert auto.structure.n_pseudo > 0  # d=3 -> clustered
    assert forced.structure.n_pseudo > 0
    with pytest.raises(ValueError, match="unknown zero_layer"):
        DLPlusIndex(relation, zero_layer="magic")
    with pytest.raises(ValueError, match="2-D"):
        DLPlusIndex(relation, zero_layer="chain")


def test_dlplus_chain_mode_2d():
    relation = generate("IND", 150, 2, seed=1)
    index = DLPlusIndex(relation, zero_layer="chain").build()
    assert index.weight_partition is not None
    assert index.structure.n_pseudo == 0
    result = index.query(np.array([0.4, 0.6]), 1)
    assert result.cost == 1


def test_results_match_bruteforce_many_weights(relation, rng):
    dl = DLIndex(relation).build()
    dlp = DLPlusIndex(relation).build()
    for _ in range(10):
        w = rng.dirichlet(np.ones(3))
        ref_ids, ref_scores = top_k_bruteforce(relation.matrix, w, 8)
        for index in (dl, dlp):
            result = index.query(w, 8)
            np.testing.assert_allclose(
                np.sort(result.scores), np.sort(ref_scores), atol=1e-12
            )


def test_build_stats_extra_fields(relation):
    index = DLIndex(relation).build()
    extra = index.build_stats.extra
    assert extra["exists_edges"] > 0
    assert extra["forall_edges"] > 0
    assert extra["fine_sublayers"] >= index.build_stats.num_layers


def test_skyline_algorithm_choice(relation):
    a = DLIndex(relation, skyline_algorithm="sfs").build()
    b = DLIndex(relation, skyline_algorithm="bskytree").build()
    assert a.build_stats.layer_sizes == b.build_stats.layer_sizes
