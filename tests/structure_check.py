"""Exact checks of the paper's structural invariants on a built index.

Every kernel oracle walks the same built structure, so a wrong gate shows
only when a sampled query happens to cross it.  These checks look at every
node instead.  Each one is a plain comparison of stored float values, so
each is exact — no tolerance anywhere:

* ``coarse``: real nodes' coarse levels equal the iterated skyline peel
  (unplaced nodes beyond ``num_coarse_layers`` read ``-1``);
* ``forall_not_leq``: ∀-edges whose parent is not componentwise ``<=`` its
  child (Theorem 3 needs ``F(parent) <= F(child)`` for every positive w);
* ``pseudo_forall_not_leq``: the subset of those whose parent is a
  zero-layer pseudo tuple;
* ``forall_not_dominators``: real nodes in coarse layer ``i >= 1`` whose
  ∀-parents are not exactly their dominators in coarse layer ``i - 1``;
* ``forall_count``: nodes whose ``forall_parent_count`` differs from their
  ∀ in-degree;
* ``exists_single_not_leq``: nodes gated by a single ∃-parent in the
  previous fine sublayer that does not weakly dominate them (a one-point
  ∃-dominance set is sound only with ``λ = 1``, i.e. plain weak dominance);
* ``pseudo_not_child_min``: clustered zero-layer pseudo tuples (§V-B) that
  are not the componentwise minimum of their ∀-children, or have none.  A
  pseudo tuple's ∀-children are the L¹ tuples it weakly dominates, and its
  own cluster attains each minimum, so the two are equal; a pseudo tuple
  lowered below its cluster still passes ``pseudo_forall_not_leq``;
* ``l1_without_pseudo_parent``: L¹ real tuples of a clustered zero-layer
  build with no pseudo ∀-parent (every L¹ tuple lies in some cluster);
* ``chain_breakpoints``: positions where the 2-D chain zero layer's
  (§V-A) ascending weight-range breakpoints leave ``[0, 1]`` or decrease
  (ties are allowed: near-collinear chain vertices give zero-width ranges).

Multi-parent ∃ covers need a convex-combination certificate (Def. 5) and
are not checked here.
"""

from __future__ import annotations

import numpy as np

#: Rows per block in the pairwise dominance scans; bounds the
#: ``(block, n, d)`` comparison intermediates.
_BLOCK = 256


def _edges(indptr: np.ndarray, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(children, parents)`` of a parent-major CSR adjacency."""
    parents = np.repeat(np.arange(indptr.shape[0] - 1), np.diff(indptr))
    return np.asarray(indices, dtype=np.intp), parents.astype(np.intp)


def _dominance_pairs(upper: np.ndarray, lower: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(i, j)`` with ``upper[i]`` dominating ``lower[j]`` (Definition 2)."""
    rows, cols = [], []
    for start in range(0, upper.shape[0], _BLOCK):
        block = upper[start : start + _BLOCK]
        leq = block[:, None, 0] <= lower[None, :, 0]
        lt = block[:, None, 0] < lower[None, :, 0]
        for c in range(1, upper.shape[1]):
            leq &= block[:, None, c] <= lower[None, :, c]
            lt |= block[:, None, c] < lower[None, :, c]
        i, j = np.nonzero(leq & lt)
        rows.append(i + start)
        cols.append(j)
    if not rows:
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
    return np.concatenate(rows), np.concatenate(cols)


def skyline_peel(values: np.ndarray, max_layers: int) -> np.ndarray:
    """Coarse level of every row under the iterated skyline peel, ``-1`` beyond."""
    levels = np.full(values.shape[0], -1, dtype=np.int64)
    remaining = np.arange(values.shape[0])
    layer = 0
    while remaining.shape[0] and layer < max_layers:
        _, dominated = _dominance_pairs(values[remaining], values[remaining])
        mask = np.zeros(remaining.shape[0], dtype=bool)
        mask[dominated] = True
        levels[remaining[~mask]] = layer
        remaining = remaining[mask]
        layer += 1
    return levels


def structure_faults(structure) -> dict[str, np.ndarray]:
    """Offending node ids per check (every array empty on a sound structure)."""
    values = np.asarray(structure.values)
    n_real, n_nodes = structure.n_real, structure.n_nodes
    coarse = np.asarray(structure.coarse_levels)
    fine = np.asarray(structure.fine_levels)

    peel = skyline_peel(values[:n_real], structure.num_coarse_layers)
    f_child, f_parent = _edges(structure.forall_indptr, structure.forall_indices)
    e_child, e_parent = _edges(structure.exists_indptr, structure.exists_indices)

    not_leq = ~np.all(values[f_parent] <= values[f_child], axis=1)

    # ∀-parents of each real node in layer i >= 1 must be exactly its
    # dominators in layer i - 1: compare the edge sets as encoded pairs.
    expected = []
    for layer in range(1, structure.num_coarse_layers):
        upper = np.nonzero(peel == layer - 1)[0]
        lower = np.nonzero(peel == layer)[0]
        i, j = _dominance_pairs(values[upper], values[lower])
        expected.append(lower[j] * n_nodes + upper[i])
    expected_keys = np.concatenate(expected) if expected else np.empty(0, dtype=np.intp)
    deep = (f_child < n_real) & (peel[np.minimum(f_child, n_real - 1)] >= 1)
    actual_keys = f_child[deep] * n_nodes + f_parent[deep]
    wrong = np.setxor1d(expected_keys, actual_keys) // n_nodes

    # ∃-edges from the previous fine sublayer of the same coarse layer and
    # node kind; the 2-D chain zero layer's within-sublayer edges are not
    # dominance gates and are left out.
    same_kind = (e_child < n_real) == (e_parent < n_real)
    sublayer_edge = (
        same_kind
        & (coarse[e_child] == coarse[e_parent])
        & (fine[e_parent] == fine[e_child] - 1)
    )
    hops = np.bincount(e_child[sublayer_edge], minlength=n_nodes)
    single = sublayer_edge & (hops[e_child] == 1)
    single_bad = single & ~np.all(values[e_parent] <= values[e_child], axis=1)

    # Clustered zero layer: each pseudo tuple is the exact componentwise
    # minimum of its ∀-children (edges are parent-major, so each pseudo
    # tuple's children are one contiguous run).
    from_pseudo = f_parent >= n_real
    pseudo_children = f_child[from_pseudo]
    runs = np.bincount(f_parent[from_pseudo] - n_real, minlength=n_nodes - n_real)
    bare = runs == 0
    starts = (np.cumsum(runs) - runs)[~bare]
    minima = (
        np.minimum.reduceat(values[pseudo_children], starts, axis=0)
        if starts.shape[0]
        else np.empty((0, values.shape[1]))
    )
    clothed = np.nonzero(~bare)[0] + n_real
    off_min = clothed[np.any(minima != values[clothed], axis=1)]

    orphans = np.empty(0, dtype=np.intp)
    if n_nodes > n_real:
        covered = np.zeros(n_real, dtype=bool)
        covered[pseudo_children[pseudo_children < n_real]] = True
        orphans = np.nonzero((coarse[:n_real] == 0) & ~covered)[0]

    partition = getattr(structure.seed_selector, "partition", None)
    breaks = np.asarray(
        partition._ascending_breaks if partition is not None else [], dtype=np.float64
    )
    bad_breaks = np.nonzero(
        (breaks < 0.0)
        | (breaks > 1.0)
        | np.concatenate([[False], breaks[1:] < breaks[:-1]])[: breaks.shape[0]]
    )[0]

    return {
        "coarse": np.nonzero(coarse[:n_real] != peel)[0],
        "forall_not_leq": f_child[not_leq],
        "pseudo_forall_not_leq": f_child[not_leq & (f_parent >= n_real)],
        "forall_not_dominators": np.unique(wrong),
        "forall_count": np.nonzero(
            np.bincount(f_child, minlength=n_nodes) != structure.forall_parent_count
        )[0],
        "exists_single_not_leq": e_child[single_bad],
        "pseudo_not_child_min": np.union1d(np.nonzero(bare)[0] + n_real, off_min),
        "l1_without_pseudo_parent": orphans,
        "chain_breakpoints": bad_breaks,
    }


def assert_structure_sound(structure) -> None:
    """Raise ``AssertionError`` naming every check that finds a fault."""
    faults = {name: ids for name, ids in structure_faults(structure).items() if ids.shape[0]}
    assert not faults, {name: (ids.shape[0], ids[:5].tolist()) for name, ids in faults.items()}
