"""StructureBuilder / LayerStructure invariants."""

import numpy as np
import pytest

from repro.core.structure import StructureBuilder
from repro.exceptions import IndexConstructionError


def minimal_points(n=4):
    return np.linspace(0.1, 0.9, n * 2).reshape(n, 2)


def test_gates_and_children_wiring():
    builder = StructureBuilder(minimal_points())
    for node in range(4):
        builder.place(node, 0, 0)
    builder.static_seeds.extend([0, 1])
    builder.add_forall_parents(2, [0, 1])
    builder.add_exists_parents(3, [0])
    structure = builder.freeze()
    assert structure.forall_parent_count[2] == 2
    assert structure.exists_gated[3]
    assert not structure.exists_gated[2]
    assert 2 in structure.forall_children[0]
    assert 2 in structure.forall_children[1]
    assert 3 in structure.exists_children[0]
    assert structure.edge_counts() == {"forall_edges": 2, "exists_edges": 1}


def test_duplicate_parents_deduped():
    builder = StructureBuilder(minimal_points())
    for node in range(4):
        builder.place(node, 0, 0)
    builder.static_seeds.extend([0, 1, 3])
    builder.add_forall_parents(2, [0, 0, 1, 1])
    structure = builder.freeze()
    assert structure.forall_parent_count[2] == 2


def test_pseudo_nodes():
    builder = StructureBuilder(minimal_points())
    pseudo = builder.add_pseudo_node(np.array([0.05, 0.05]))
    assert pseudo == 4
    builder.place(pseudo, 0, 0)
    builder.static_seeds.append(pseudo)
    for node in range(4):
        builder.place(node, 1, 0)
        builder.add_forall_parents(node, [pseudo])
    structure = builder.freeze()
    assert structure.n_real == 4
    assert structure.n_pseudo == 1
    assert structure.is_pseudo(4)
    assert not structure.is_pseudo(3)
    np.testing.assert_allclose(structure.values[4], [0.05, 0.05])


def test_unreachable_node_rejected():
    builder = StructureBuilder(minimal_points())
    for node in range(4):
        builder.place(node, 0, 0)
    builder.static_seeds.append(0)  # nodes 1..3 gateless and unseeded
    with pytest.raises(IndexConstructionError, match="unreachable"):
        builder.freeze()


def test_incomplete_placement_rejected():
    builder = StructureBuilder(minimal_points())
    builder.place(0, 0, 0)
    builder.static_seeds.append(0)
    with pytest.raises(IndexConstructionError, match="place every node"):
        builder.freeze()


def test_partial_build_allowed_when_incomplete():
    builder = StructureBuilder(minimal_points())
    builder.complete = False
    builder.place(0, 0, 0)
    builder.static_seeds.append(0)
    structure = builder.freeze()
    assert not structure.complete


def test_seed_selector_passthrough():
    builder = StructureBuilder(minimal_points())
    for node in range(4):
        builder.place(node, 0, 0)
    builder.seed_selector = lambda weights: np.array([2], dtype=np.intp)
    structure = builder.freeze()
    np.testing.assert_array_equal(structure.seeds(np.array([0.5, 0.5])), [2])


def gated_structure():
    """4 real + 1 pseudo node with both gate kinds and uneven fan-out."""
    builder = StructureBuilder(minimal_points())
    pseudo = builder.add_pseudo_node(np.array([0.05, 0.05]))
    for node in range(4):
        builder.place(node, 0, 0)
    builder.place(pseudo, 0, 0)
    builder.static_seeds.extend([0, pseudo])
    builder.add_forall_parents(2, [0, 1])
    builder.add_forall_parents(3, [0])
    builder.add_exists_parents(3, [0, 1])
    builder.add_exists_parents(1, [pseudo])
    return builder.freeze()


def test_csr_layout_matches_adjacency_view():
    structure = gated_structure()
    for indptr, indices, view in (
        (structure.forall_indptr, structure.forall_indices, structure.forall_children),
        (structure.exists_indptr, structure.exists_indices, structure.exists_children),
    ):
        assert indptr.dtype == np.intp and indices.dtype == np.intp
        assert indptr.shape == (structure.n_nodes + 1,)
        assert indptr[0] == 0 and indptr[-1] == indices.shape[0]
        assert np.all(np.diff(indptr) >= 0)
        for node in range(structure.n_nodes):
            np.testing.assert_array_equal(
                view[node], indices[indptr[node] : indptr[node + 1]]
            )
    with pytest.raises(IndexError):
        structure.forall_children[-1]


def test_edge_counts_match_csr_totals():
    structure = gated_structure()
    counts = structure.edge_counts()
    assert counts["forall_edges"] == sum(
        len(structure.forall_children[v]) for v in range(structure.n_nodes)
    )
    assert counts["exists_edges"] == sum(
        len(structure.exists_children[v]) for v in range(structure.n_nodes)
    )
    assert counts == {"forall_edges": 3, "exists_edges": 3}


def test_layer_level_map_dict_compatibility():
    structure = gated_structure()
    coarse = structure.coarse_of
    assert coarse[0] == 0 and coarse.get(0) == 0 and 0 in coarse
    missing = structure.n_nodes + 5
    with pytest.raises(KeyError):
        coarse[missing]
    assert coarse.get(missing) is None and coarse.get(missing, 7) == 7
    assert missing not in coarse
    assert len(coarse) == structure.n_nodes
    assert sorted(coarse) == list(range(structure.n_nodes))
    assert dict(coarse.items())[3] == 0


def test_gate_state_template_encoding_and_cache():
    structure = gated_structure()
    state = structure.gate_state_template()
    assert state.dtype == np.int32
    offset = structure.n_nodes + 1
    expected = structure.forall_parent_count.astype(np.int64).copy()
    expected[structure.exists_gated] += offset
    np.testing.assert_array_equal(state.astype(np.int64), expected)
    # Cached: same object on repeat calls.
    assert structure.gate_state_template() is state


def test_sublayer_bound_table_properties():
    """Hierarchical bound soundness: every node's sublayer minima are <=
    its own values AND <= its block minima per attribute (the sublayer is
    the coarse side of the two-level check); unplaced nodes carry the -1
    id mapping to the -inf sentinel row, so they can never be skipped."""
    from repro.core import DLPlusIndex
    from repro.data import generate

    relation = generate("ANT", 500, 3, seed=41)
    structure = DLPlusIndex(relation).build().structure
    values = np.asarray(structure.values)
    block_of, block_mins = structure.layer_bound_table()
    sub_of, sub_mins = structure.sublayer_bound_table()

    assert sub_mins.shape[1] == values.shape[1]
    np.testing.assert_array_equal(sub_mins[-1], -np.inf)  # sentinel row

    placed = np.asarray(structure.coarse_levels) >= 0
    assert np.all(np.asarray(sub_of)[placed] >= 0)
    assert np.all(np.asarray(sub_of)[~placed] == -1)
    # Far coarser than the block table: that is the whole point.
    assert sub_mins.shape[0] < block_mins.shape[0]

    nodes = np.nonzero(placed)[0]
    assert np.all(sub_mins[np.asarray(sub_of)[nodes]] <= values[nodes])
    # Coarse <= fine: a sublayer bound can only be weaker than the block
    # bound it summarizes, which is what makes the cached sublayer verdict
    # imply every inner block's verdict.
    assert np.all(
        sub_mins[np.asarray(sub_of)[nodes]] <= block_mins[np.asarray(block_of)[nodes]]
    )


def test_sublayer_table_lazy_matches_freeze_time():
    """A structure stripped of its frozen sublayer table (the v1 snapshot
    shape) recomputes it lazily with byte-identical bounds."""
    from repro.core import DLIndex
    from repro.core.structure import compute_sublayer_bounds
    from repro.data import generate

    relation = generate("COR", 400, 4, seed=43)
    structure = DLIndex(relation).build().structure
    frozen_of, frozen_mins = structure.sublayer_bound_table()
    recomputed_of, recomputed_mins = compute_sublayer_bounds(
        np.asarray(structure.values),
        np.asarray(structure.coarse_levels),
        np.asarray(structure.fine_levels),
    )
    np.testing.assert_array_equal(np.asarray(frozen_of), recomputed_of)
    assert np.asarray(frozen_mins).tobytes() == recomputed_mins.tobytes()
    # And via the lazy path itself:
    structure._sublayer_bounds = None
    lazy_of, lazy_mins = structure.sublayer_bound_table()
    np.testing.assert_array_equal(np.asarray(lazy_of), recomputed_of)
    assert np.asarray(lazy_mins).tobytes() == recomputed_mins.tobytes()


def test_has_layer_bounds_flag():
    """Structures frozen by the builder carry bounds; stripping them (a
    hand-built structure) flips the flag the dispatcher keys on."""
    from repro.core import DLPlusIndex
    from repro.data import generate

    structure = DLPlusIndex(generate("IND", 200, 2, seed=45)).build().structure
    assert structure.has_layer_bounds
    structure._layer_bounds = None
    assert not structure.has_layer_bounds
