"""The exact structure checks find nothing on sound builds and catch each
kind of broken gate: a missing ∀ edge, a wrong ∃ parent, a raised or
lowered pseudo tuple, an L¹ tuple cut from its pseudo parents, a
decreasing chain breakpoint and a misplaced coarse level."""

import copy

import numpy as np
import pytest

from repro.baselines.dg import DGPlusIndex
from repro.core import DLIndex, DLPlusIndex
from repro.data import generate
from tests.structure_check import assert_structure_sound, structure_faults


def _faulty(structure) -> dict[str, int]:
    return {name: ids.shape[0] for name, ids in structure_faults(structure).items() if ids.shape[0]}


@pytest.mark.parametrize(
    "index_class", [DLIndex, DLPlusIndex, DGPlusIndex], ids=["DL", "DL+", "DG+"]
)
@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("distribution", ["IND", "ANT"])
def test_sound_builds_pass(distribution, d, index_class):
    relation = generate(distribution, 300, d, seed=d)
    assert_structure_sound(index_class(relation).build().structure)
    assert_structure_sound(index_class(relation, max_layers=3).build().structure)


@pytest.fixture(scope="module")
def structure():
    return DLPlusIndex(generate("IND", 300, 3, seed=5)).build().structure


def _drop_edge(indptr, indices, position):
    owner = int(np.searchsorted(indptr, position, side="right")) - 1
    indptr = indptr.copy()
    indptr[owner + 1 :] -= 1
    return indptr, np.delete(indices, position)


def test_a_dropped_forall_edge_is_caught(structure):
    deep = np.nonzero(structure.coarse_levels[structure.forall_indices] >= 1)[0]
    broken = copy.copy(structure)
    broken.forall_indptr, broken.forall_indices = _drop_edge(
        structure.forall_indptr, structure.forall_indices, int(deep[0])
    )
    assert _faulty(broken) == {"forall_not_dominators": 1, "forall_count": 1}


def test_a_wrong_single_exists_parent_is_caught(structure):
    children = structure.exists_indices
    parents = np.repeat(np.arange(structure.n_nodes), np.diff(structure.exists_indptr))
    child = int(children[children < structure.n_real][0])
    # Gate the child on one node of its previous sublayer that does not
    # weakly dominate it, in place of its covering facet.
    values = structure.values
    previous = np.nonzero(
        (structure.coarse_levels == structure.coarse_levels[child])
        & (structure.fine_levels == structure.fine_levels[child] - 1)
    )[0]
    wrong = next(int(p) for p in previous if not np.all(values[p] <= values[child]))
    keep = children != child
    new_parents = np.append(parents[keep], wrong)
    new_children = np.append(children[keep], child)
    order = np.lexsort((new_children, new_parents))
    broken = copy.copy(structure)
    broken.exists_indices = new_children[order]
    broken.exists_indptr = np.searchsorted(
        new_parents[order], np.arange(structure.n_nodes + 1)
    )
    assert _faulty(broken) == {"exists_single_not_leq": 1}


def test_a_raised_pseudo_tuple_is_caught(structure):
    assert structure.n_pseudo > 0
    pseudo = structure.n_real
    broken = copy.copy(structure)
    broken.values = structure.values.copy()
    broken.values[pseudo] = structure.values[pseudo] + 0.5
    faults = _faulty(broken)
    assert faults["pseudo_forall_not_leq"] >= 1
    assert faults["forall_not_leq"] == faults["pseudo_forall_not_leq"]


def test_a_misplaced_coarse_level_is_caught(structure):
    broken = copy.copy(structure)
    broken.coarse_levels = structure.coarse_levels.copy()
    node = int(np.nonzero(structure.coarse_levels[: structure.n_real] == 1)[0][0])
    broken.coarse_levels[node] = 2
    assert _faulty(broken)["coarse"] == 1


def test_zero_layer_checks_see_the_zero_layer(structure):
    """The clustered build has pseudo tuples with ∀-children, and a 2-D
    DL+ build carries the chain breakpoints the check reads."""
    assert structure.n_pseudo > 0
    chain = DLPlusIndex(generate("IND", 300, 2, seed=4)).build().structure
    assert len(chain.seed_selector.partition._ascending_breaks) > 1


def test_a_lowered_pseudo_tuple_is_caught(structure):
    """Lowered below its cluster, a pseudo tuple still weakly dominates its
    ∀-children, so only the cluster-minimum check sees it."""
    pseudo = structure.n_real
    broken = copy.copy(structure)
    broken.values = structure.values.copy()
    broken.values[pseudo] = structure.values[pseudo] - 0.05
    assert _faulty(broken) == {"pseudo_not_child_min": 1}


def test_an_l1_tuple_cut_from_its_pseudo_parents_is_caught(structure):
    parents = np.repeat(np.arange(structure.n_nodes), np.diff(structure.forall_indptr))
    from_pseudo = parents >= structure.n_real
    child = int(structure.forall_indices[from_pseudo][0])
    cut = from_pseudo & (structure.forall_indices == child)
    keep = ~cut
    broken = copy.copy(structure)
    broken.forall_indices = structure.forall_indices[keep]
    broken.forall_indptr = np.searchsorted(parents[keep], np.arange(structure.n_nodes + 1))
    broken.forall_parent_count = structure.forall_parent_count.copy()
    broken.forall_parent_count[child] -= int(cut.sum())
    faults = _faulty(broken)
    assert faults["l1_without_pseudo_parent"] == 1
    assert set(faults) <= {"l1_without_pseudo_parent", "pseudo_not_child_min"}


def test_a_decreasing_chain_breakpoint_is_caught():
    structure = DLPlusIndex(generate("IND", 300, 2, seed=4)).build().structure
    partition = copy.copy(structure.seed_selector.partition)
    breaks = list(partition._ascending_breaks)
    breaks[1] = breaks[0] - 0.01
    partition._ascending_breaks = breaks
    broken = copy.copy(structure)
    broken.seed_selector = copy.copy(structure.seed_selector)
    broken.seed_selector.partition = partition
    assert _faulty(broken) == {"chain_breakpoints": 1}
