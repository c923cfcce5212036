"""Bitwise equivalence of the lane-parallel batch kernel.

:func:`~repro.core.query.process_top_k_batch` fuses B traversals into one
lane-parallel walk of the gate graph; every lane must be indistinguishable
from a per-query :func:`~repro.core.query.process_top_k` call — same ids,
byte-identical scores, ascending order, and the same Definition 9
real/pseudo counts per lane — across the full equivalence grid, with
duplicate-tuple tie-breaks, with lanes finishing at wildly different times
(k=1 next to k=50), and with a reused
:class:`~repro.core.query.BatchWorkspace`.
"""

import numpy as np
import pytest

from repro.core import DLIndex, DLPlusIndex
from repro.core.query import BatchWorkspace, process_top_k, process_top_k_batch
from repro.data import generate
from repro.relation import Relation
from repro.stats import AccessCounter
from tests.conftest import python_kernels


def _seed_for(distribution: str, d: int) -> int:
    return sum(map(ord, distribution)) * 10 + d  # deterministic across runs


def assert_batch_agrees(structure, weights_matrix, ks, *, workspace=None):
    """Run the batch kernel; assert every lane matches per-query csr bitwise."""
    weights_matrix = np.asarray(weights_matrix, dtype=np.float64)
    n_lanes = weights_matrix.shape[0]
    batch_counters = [AccessCounter() for _ in range(n_lanes)]
    outputs = process_top_k_batch(
        structure,
        weights_matrix,
        ks,
        batch_counters,
        workspace=workspace,
    )
    ks_arr = np.broadcast_to(np.asarray(ks, dtype=np.int64), (n_lanes,))
    for lane in range(n_lanes):
        counter = AccessCounter()
        ids, scores = process_top_k(
            structure, weights_matrix[lane], int(ks_arr[lane]), counter
        )
        batch_ids, batch_scores = outputs[lane]
        assert np.array_equal(ids, batch_ids), f"lane {lane} ids diverge"
        assert scores.tobytes() == batch_scores.tobytes(), f"lane {lane} scores"
        assert batch_ids.dtype == ids.dtype and batch_scores.dtype == scores.dtype
        assert (counter.real, counter.pseudo) == (
            batch_counters[lane].real,
            batch_counters[lane].pseudo,
        ), f"lane {lane} Definition 9 counts diverge"
        assert np.all(np.diff(batch_scores) >= 0)
    return outputs


@pytest.mark.parametrize("index_class", [DLIndex, DLPlusIndex], ids=["DL", "DL+"])
@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("distribution", ["IND", "ANT", "COR"])
def test_batch_kernel_agrees_bitwise(distribution, d, index_class):
    seed = _seed_for(distribution, d)
    relation = generate(distribution, 400, d, seed=seed)
    structure = index_class(relation).build().structure
    rng = np.random.default_rng(seed + 2)
    workspace = BatchWorkspace()
    for batch_width in (1, 5, 16):
        weights = rng.dirichlet(np.ones(d), size=batch_width)
        k = int(rng.integers(1, 41))
        assert_batch_agrees(structure, weights, k, workspace=workspace)


def test_batch_mixed_k_lanes_finish_independently():
    """A k=1 lane next to a k=50 lane: the early finisher must neither wait
    nor perturb the expensive lane's traversal or counts."""
    relation = generate("ANT", 400, 3, seed=_seed_for("ANT", 3))
    structure = DLPlusIndex(relation).build().structure
    rng = np.random.default_rng(33)
    weights = rng.dirichlet(np.ones(3), size=8)
    ks = [1, 50, 1, 50, 1, 50, 1, 50]
    assert_batch_agrees(structure, weights, ks)


def test_batch_duplicate_tuple_tie_breaks():
    """Exact duplicate rows score identically; the (score, id) heap order
    must resolve ties the same way in every lane as per-query execution."""
    rng = np.random.default_rng(7)
    base = rng.random((60, 3))
    points = np.vstack([base, base[:20], base[:10]])  # 30 exact duplicates
    relation = Relation(points, check_domain=False)
    for index_class in (DLIndex, DLPlusIndex):
        structure = index_class(relation).build().structure
        weights = rng.dirichlet(np.ones(3), size=6)
        # Duplicate weight lanes too: identical lanes must emit identical
        # answers without interfering with each other's gate state.
        weights[3] = weights[0]
        assert_batch_agrees(structure, weights, 25)


def test_batch_workspace_reuse_and_growth():
    """A workspace checked out at one width must serve narrower and wider
    batches (and a different structure) without contaminating state."""
    rng = np.random.default_rng(21)
    workspace = BatchWorkspace()
    rel_a = generate("IND", 250, 3, seed=1)
    rel_b = generate("ANT", 250, 3, seed=2)
    struct_a = DLPlusIndex(rel_a).build().structure
    struct_b = DLPlusIndex(rel_b).build().structure
    for structure in (struct_a, struct_b, struct_a):
        for width in (12, 3, 20):
            weights = rng.dirichlet(np.ones(3), size=width)
            assert_batch_agrees(structure, weights, 10, workspace=workspace)


def test_batch_validates_inputs():
    relation = generate("IND", 100, 2, seed=4)
    structure = DLIndex(relation).build().structure
    weights = np.full((3, 2), 0.5)
    with pytest.raises(Exception):
        process_top_k_batch(structure, weights, 5, [AccessCounter()])  # 1 != 3
    with pytest.raises(Exception):
        process_top_k_batch(
            structure, np.ones(2) / 2, 5, [AccessCounter()]
        )  # 1-D matrix


def test_auto_query_batch_walks_native_lanes():
    """On a host where the C walker loads, a ``query_batch`` of 64 rows
    walks every lane natively — none through the batch kernel — and stays
    bitwise equal to the batch kernel an engine walks with the native
    build masked, and to the per-node reference kernel (ids, score bytes,
    real/pseudo counts)."""
    from repro.core.native import native_ready
    from repro.core.query import process_top_k_reference
    from repro.relation import normalize_weights
    from repro.serving import QueryEngine

    if not native_ready():
        pytest.skip("native kernel not buildable on this host")
    relation = generate("ANT", 600, 4, seed=_seed_for("ANT", 4))
    index = DLPlusIndex(relation).build()
    weights = np.random.default_rng(64).dirichlet(np.ones(4), size=64)
    auto = QueryEngine(index, cache_size=0)
    got = auto.query_batch(weights, 12)
    with python_kernels():
        batch = QueryEngine(index, cache_size=0)
        fused = batch.query_batch(weights, 12)
    stats = auto.stats()
    assert stats["kernel_native"] == 64.0
    assert stats.get("kernel_batch", 0.0) == 0.0
    assert batch.stats()["kernel_batch"] == 64.0
    for w, a, b in zip(weights, got, fused):
        counter = AccessCounter()
        ids, scores = process_top_k_reference(
            index.structure, normalize_weights(w, 4), 12, counter
        )
        for result in (a, b):
            assert result.ids.tobytes() == ids.tobytes()
            assert result.scores.tobytes() == scores.tobytes()
            assert (result.counter.real, result.counter.pseudo) == (
                counter.real,
                counter.pseudo,
            )


@pytest.mark.parametrize("cache_size", [0, 512])
def test_query_batch_one_crossing_per_group(cache_size):
    """``query_batch`` sends each native k-group across the FFI once.  A
    257-row batch with mixed per-row k (k >= n included), duplicate rows
    and tied tuples answers every row bitwise like the per-node reference
    kernel, with exact real/pseudo counts on every computed row; one
    native workspace checkout serves each multi-row group, and a one-row
    batch is one more crossing."""
    from repro.core.native import native_ready
    from repro.core.query import process_top_k_reference
    from repro.relation import normalize_weights
    from repro.serving import QueryEngine

    if not native_ready():
        pytest.skip("native kernel not buildable on this host")
    rng = np.random.default_rng(257)
    base = generate("ANT", 300, 3, seed=_seed_for("ANT", 3)).matrix
    relation = Relation(np.vstack([base, base[:40]]), check_domain=False)
    index = DLPlusIndex(relation).build()
    engine = QueryEngine(index, cache_size=cache_size)
    weights = rng.dirichlet(np.ones(3), size=257)
    ks = rng.choice([1, 7, 25, relation.n, relation.n + 50], size=257)
    weights[200:230] = weights[:30]  # duplicate rows
    ks[200:230] = ks[:30]
    results = engine.query_batch(weights, ks)
    computed = 0
    for w, k, result in zip(weights, ks, results):
        counter = AccessCounter()
        ids, scores = process_top_k_reference(
            index.structure, normalize_weights(w, 3), int(k), counter
        )
        assert result.ids.tobytes() == ids.tobytes()
        assert result.scores.tobytes() == scores.tobytes()
        if result.counter.total:
            computed += 1
            assert (result.counter.real, result.counter.pseudo) == (
                counter.real,
                counter.pseudo,
            )
    stats = engine.stats()
    groups = len(set(np.minimum(ks, relation.n).tolist()))
    assert stats["kernel_native"] == computed
    assert stats["batches"] == groups
    assert stats["native_workspace_checkouts"] == groups
    assert computed == (257 if cache_size == 0 else 257 - 30)
    engine.query_batch(rng.dirichlet(np.ones(3), size=1), 7)
    assert engine.stats()["native_workspace_checkouts"] == groups + 1
