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
