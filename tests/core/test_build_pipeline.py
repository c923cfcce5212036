"""The staged build pipeline vs the per-node reference oracle.

Array-equality here means :func:`repro.core.structure.layer_structures_equal`
— identical CSR indptr/indices, levels, seeds — not merely isomorphic
structures.  The oracle is :mod:`repro.core.build_reference`, the original
one-node-at-a-time implementation kept verbatim.
"""

import numpy as np
import pytest

from repro.baselines.dg import DGPlusIndex
from repro.core.build import BUILD_STAGES, build_dual_layer
from repro.core.build_reference import build_dual_layer_reference
from repro.core.index import DLIndex, DLPlusIndex
from repro.core.structure import StructureBuilder, layer_structures_equal
from repro.data import generate
from repro.exceptions import IndexCapacityError
from tests.structure_check import _edges


@pytest.mark.parametrize("distribution", ["IND", "ANT", "COR"])
@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("fine", [True, False])
def test_pipeline_matches_reference(distribution, d, fine):
    pts = generate(distribution, 400, d, seed=17).matrix
    ref = build_dual_layer_reference(pts, fine_sublayers=fine)
    seq = build_dual_layer(pts, fine_sublayers=fine)
    assert layer_structures_equal(ref.structure, seq.structure)
    assert all(
        np.array_equal(a, b)
        for a, b in zip(ref.coarse_layers, seq.coarse_layers)
    )
    assert all(
        np.array_equal(a, b)
        for ref_subs, seq_subs in zip(ref.fine_layers, seq.fine_layers)
        for a, b in zip(ref_subs, seq_subs)
    )


def test_exists_gate_parents_unchanged_by_searchsorted_remap():
    """Regression (satellite): the searchsorted facet remap must reproduce
    the dict-based remap's gate parents exactly — compared through the ∃-CSR
    arrays, which encode every (parent, child) pair."""
    pts = generate("ANT", 600, 3, seed=23).matrix
    ref = build_dual_layer_reference(pts)
    seq = build_dual_layer(pts)
    np.testing.assert_array_equal(
        ref.structure.exists_indptr, seq.structure.exists_indptr
    )
    np.testing.assert_array_equal(
        ref.structure.exists_indices, seq.structure.exists_indices
    )
    np.testing.assert_array_equal(
        ref.structure.exists_gated, seq.structure.exists_gated
    )


@pytest.mark.parametrize("cls", [DLIndex, DLPlusIndex])
def test_partial_build_contract(cls):
    """max_layers leaves a leftover; k <= max_layers answers, k > refuses."""
    relation = generate("ANT", 500, 3, seed=61)
    index = cls(relation, max_layers=4).build()
    assert not index.structure.complete
    assert index.blueprint.leftover.shape[0] > 0
    index.query(np.ones(3) / 3, 4)
    with pytest.raises(IndexCapacityError):
        index.query(np.ones(3) / 3, 5)


def test_freeze_ignores_ingestion_order():
    """freeze() canonicalizes: shuffled, chunked, repeated ingestion of the
    same placements and edges freezes to the same arrays."""
    pts = generate("IND", 300, 3, seed=5).matrix
    blueprint = build_dual_layer(pts)
    built = blueprint.structure
    rng = np.random.default_rng(11)

    def shuffled_chunks(*arrays):
        perm = rng.permutation(arrays[0].shape[0])
        for chunk in np.array_split(perm, 4):
            yield tuple(arr[chunk] for arr in arrays)

    nodes = np.nonzero(built.coarse_levels >= 0)[0]
    target = StructureBuilder(pts)
    for chunk in shuffled_chunks(
        nodes, built.coarse_levels[nodes], built.fine_levels[nodes]
    ):
        target.place_many(*chunk)
    forall = _edges(built.forall_indptr, built.forall_indices)
    exists = _edges(built.exists_indptr, built.exists_indices)
    for _ in range(2):  # every edge twice: freeze deduplicates
        for chunk in shuffled_chunks(*forall):
            target.add_forall_edges(*chunk)
        for chunk in shuffled_chunks(*exists):
            target.add_exists_edges(*chunk)
    target.num_coarse_layers = built.num_coarse_layers
    target.complete = built.complete
    target.static_seeds = built.static_seeds.tolist()
    assert layer_structures_equal(built, target.freeze())


def test_build_profile_records_all_stages():
    pts = generate("IND", 500, 3, seed=9).matrix
    blueprint = build_dual_layer(pts)
    profile = blueprint.profile
    assert set(profile.stage_seconds) == set(BUILD_STAGES)
    assert all(seconds >= 0.0 for seconds in profile.stage_seconds.values())
    assert profile.stage_seconds["coarse_peel"] > 0.0


def test_index_build_stats_carry_stage_seconds():
    relation = generate("IND", 400, 3, seed=3)
    index = DLIndex(relation).build()
    assert set(index.build_stats.stage_seconds) == set(BUILD_STAGES)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("index_cls", [DLPlusIndex, DGPlusIndex], ids=["DL+", "DG+"])
def test_zero_layer_builds_time_freeze_and_the_attach(index_cls, d):
    """A DL+/DG+ build attaches its zero layer and freezes outside
    build_dual_layer; both are timed, so freeze and forall_gates read
    above zero.  The stages are nested inside the build's own clock, so
    they never sum past it (a lower bound on their share would be a
    wall-clock ratio that a scheduling pause can break)."""
    relation = generate("IND", 3000, d, seed=5)
    stats = index_cls(relation, max_layers=10).build().build_stats
    assert stats.stage_seconds["freeze"] > 0.0
    assert stats.stage_seconds["forall_gates"] > 0.0
    staged = sum(stats.stage_seconds.values())
    assert staged <= stats.seconds
