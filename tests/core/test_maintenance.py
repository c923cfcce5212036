"""Dynamic maintenance: layer cascades under insert/delete."""

import numpy as np
import pytest

from repro.core.maintenance import DynamicDualLayerIndex
from repro.exceptions import EmptyRelationError, InvalidQueryError
from repro.relation import top_k_bruteforce
from repro.skyline import skyline_layers


def reference_layers(points: np.ndarray) -> list[list[int]]:
    layers, _ = skyline_layers(points)
    return [sorted(layer.tolist()) for layer in layers]


def live_matrix(index: DynamicDualLayerIndex) -> tuple[np.ndarray, list[int]]:
    ids = sorted(
        i for layer in index.layers() for i in layer
    )
    return np.vstack([index.values_of(i) for i in ids]), ids


def partition_of(index: DynamicDualLayerIndex, ids: list[int]) -> list[list[int]]:
    position = {pid: pos for pos, pid in enumerate(ids)}
    return [sorted(position[i] for i in layer) for layer in index.layers()]


def test_inserts_match_batch_peel(rng):
    index = DynamicDualLayerIndex(d=3)
    points = rng.random((60, 3))
    for row in points:
        index.insert(row)
    matrix, ids = live_matrix(index)
    assert partition_of(index, ids) == reference_layers(matrix)


def test_interleaved_inserts_and_deletes_match_batch_peel(rng):
    index = DynamicDualLayerIndex(d=2)
    ids = []
    for row in rng.random((40, 2)):
        ids.append(index.insert(row))
    deleted = set()
    for step, victim in enumerate(rng.permutation(ids)[:15]):
        index.delete(int(victim))
        deleted.add(int(victim))
        if step % 5 == 0:
            matrix, live_ids = live_matrix(index)
            assert partition_of(index, live_ids) == reference_layers(matrix)
    for row in rng.random((10, 2)):
        index.insert(row)
    matrix, live_ids = live_matrix(index)
    assert partition_of(index, live_ids) == reference_layers(matrix)
    assert index.n == 40 - 15 + 10


def test_queries_correct_after_mutations(rng):
    index = DynamicDualLayerIndex(d=3)
    ids = [index.insert(row) for row in rng.random((80, 3))]
    for victim in ids[::7]:
        index.delete(victim)
    matrix, live_ids = live_matrix(index)
    for _ in range(5):
        w = np.clip(rng.dirichlet(np.ones(3)), 1e-6, None)
        got_ids, got_scores = index.query(w, 10)
        _, ref_scores = top_k_bruteforce(matrix, w / w.sum(), 10)
        np.testing.assert_allclose(got_scores, ref_scores, atol=1e-12)
        # Returned ids are original insertion ids, all live.
        assert all(int(i) in set(live_ids) for i in got_ids)


def test_structure_rebuilt_lazily(rng):
    index = DynamicDualLayerIndex(d=2)
    for row in rng.random((20, 2)):
        index.insert(row)
    index.query(np.array([0.5, 0.5]), 3)
    assert index._structure is not None
    index.insert(np.array([0.01, 0.01]))
    assert index._structure is None  # invalidated
    index.query(np.array([0.5, 0.5]), 3)
    assert index._structure is not None


def test_dominant_insert_cascades_everything():
    index = DynamicDualLayerIndex(d=2)
    index.insert(np.array([0.5, 0.5]))
    index.insert(np.array([0.6, 0.6]))
    index.insert(np.array([0.7, 0.7]))
    assert [len(layer) for layer in index.layers()] == [1, 1, 1]
    # A new global minimum demotes the whole chain by one layer.
    index.insert(np.array([0.1, 0.1]))
    assert [len(layer) for layer in index.layers()] == [1, 1, 1, 1]
    assert index.layers()[0] == [3]


def test_delete_promotes_chain():
    index = DynamicDualLayerIndex(d=2)
    a = index.insert(np.array([0.1, 0.1]))
    b = index.insert(np.array([0.2, 0.2]))
    c = index.insert(np.array([0.3, 0.3]))
    index.delete(a)
    assert [sorted(layer) for layer in index.layers()] == [[b], [c]]


def test_invalid_operations(rng):
    index = DynamicDualLayerIndex(d=2)
    with pytest.raises(EmptyRelationError):
        index.query(np.array([0.5, 0.5]), 1)
    with pytest.raises(InvalidQueryError):
        index.insert(np.array([0.1, 0.2, 0.3]))
    pid = index.insert(np.array([0.5, 0.5]))
    index.delete(pid)
    with pytest.raises(InvalidQueryError):
        index.delete(pid)
    with pytest.raises(InvalidQueryError):
        index.values_of(pid)
    survivor = index.insert(np.array([0.4, 0.4]))
    index.insert(np.array([0.3, 0.6]))
    for bad_id in (True, 2.0, np.float64(2.0), "2", None):
        with pytest.raises(InvalidQueryError):
            index.delete(bad_id)  # True would silently delete id 1
    with pytest.raises(InvalidQueryError):
        index.insert(["a", "b"])
    assert index.n == 2
    index.delete(np.int64(survivor))
    assert index.n == 1
    with pytest.raises(InvalidQueryError):
        DynamicDualLayerIndex(d=0)


def test_duplicates_share_layer():
    index = DynamicDualLayerIndex(d=2)
    index.insert(np.array([0.4, 0.4]))
    index.insert(np.array([0.4, 0.4]))
    assert [len(layer) for layer in index.layers()] == [2]


def test_version_bumped_by_every_mutation(rng):
    """The structure version is the serving cache's staleness guard: every
    insert and delete must advance it, queries must not."""
    index = DynamicDualLayerIndex(d=2)
    assert index.version == 0
    ids = [index.insert(row) for row in rng.random((5, 2))]
    assert index.version == 5
    index.query(np.array([0.5, 0.5]), 2)
    assert index.version == 5
    index.delete(ids[0])
    assert index.version == 6


def test_query_accepts_external_counter(rng):
    index = DynamicDualLayerIndex(d=2)
    for row in rng.random((30, 2)):
        index.insert(row)
    from repro.stats import AccessCounter

    counter = AccessCounter()
    got_ids, _ = index.query(np.array([0.5, 0.5]), 5, counter=counter)
    assert counter.total >= got_ids.shape[0]


def test_dg_mode_dynamic(rng):
    index = DynamicDualLayerIndex(d=2, fine_sublayers=False)
    for row in rng.random((30, 2)):
        index.insert(row)
    matrix, _ = live_matrix(index)
    w = np.array([0.5, 0.5])
    _, scores = index.query(w, 5)
    _, ref = top_k_bruteforce(matrix, w, 5)
    np.testing.assert_allclose(scores, ref, atol=1e-12)


STRUCTURE_ARRAYS = [
    "values",
    "forall_parent_count",
    "forall_indptr",
    "forall_indices",
    "exists_gated",
    "exists_indptr",
    "exists_indices",
    "static_seeds",
    "coarse_levels",
    "fine_levels",
]


def force_rebuild(index: DynamicDualLayerIndex):
    """Drop the cached structure and rebuild it from the partition."""
    index._structure = None
    with index._rebuild_lock:
        index._rebuild_structure()
    return index._structure


def test_csr_splice_matches_rebuild(rng):
    """Demotion-free DG-mode inserts patch the CSR arrays in place, and the
    patched structure is array-for-array identical to a from-scratch
    rebuild of the updated partition."""
    index = DynamicDualLayerIndex(d=3, fine_sublayers=False)
    for row in rng.random((120, 3)):
        index.insert(row)
    index.query(np.full(3, 1 / 3), 5)  # materialize the structure
    verified = 0
    for row in rng.random((120, 3)):
        before = index.patched_inserts
        index.insert(row)
        if index.patched_inserts == before:
            index.query(np.full(3, 1 / 3), 5)  # demoted: rebuild and go on
            continue
        spliced, id_map = index._structure, index._id_map.copy()
        rebuilt = force_rebuild(index)
        for name in STRUCTURE_ARRAYS:
            np.testing.assert_array_equal(
                getattr(spliced, name), getattr(rebuilt, name), err_msg=name
            )
        assert spliced.n_real == rebuilt.n_real
        assert spliced.num_coarse_layers == rebuilt.num_coarse_layers
        np.testing.assert_array_equal(id_map, index._id_map)
        verified += 1
    assert verified > 0  # random uniform inserts must hit the fast path


def test_csr_splice_queries_stay_correct(rng):
    """Queries through a spliced structure match brute force exactly."""
    index = DynamicDualLayerIndex(d=2, fine_sublayers=False)
    for row in rng.random((60, 2)):
        index.insert(row)
    index.query(np.array([0.5, 0.5]), 5)
    for row in rng.random((40, 2)):
        index.insert(row)
        matrix, _ = live_matrix(index)
        w = rng.dirichlet(np.ones(2))
        _, scores = index.query(w, 8)
        _, ref = top_k_bruteforce(matrix, w, 8)
        np.testing.assert_allclose(scores, ref, atol=1e-12)
    assert index.patched_inserts > 0


def test_splice_skipped_with_fine_sublayers(rng):
    """Full dual-resolution mode always takes the lazy-rebuild path (the
    fine sublayers of the target layer would need re-peeling)."""
    index = DynamicDualLayerIndex(d=3, fine_sublayers=True)
    for row in rng.random((80, 3)):
        index.insert(row)
    index.query(np.full(3, 1 / 3), 5)
    for row in rng.random((20, 3)):
        index.insert(row)
    assert index.patched_inserts == 0
