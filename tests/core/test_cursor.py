"""Resumable top-k cursor."""

import numpy as np
import pytest

from repro.core import DLIndex, DLPlusIndex
from repro.core.build import build_dual_layer
from repro.core.cursor import TopKCursor
from repro.data import generate
from repro.exceptions import IndexCapacityError, InvalidQueryError
from repro.relation import top_k_bruteforce


@pytest.fixture(scope="module")
def relation():
    return generate("ANT", 250, 3, seed=29)


def test_paged_fetch_equals_single_query(relation):
    index = DLIndex(relation).build()
    w = np.array([0.2, 0.5, 0.3])
    cursor = TopKCursor(index.structure, w)
    pages = [cursor.fetch(7) for _ in range(3)]
    ids = np.concatenate([p[0] for p in pages])
    scores = np.concatenate([p[1] for p in pages])
    ref_ids, ref_scores = top_k_bruteforce(relation.matrix, w / w.sum(), 21)
    np.testing.assert_allclose(scores, ref_scores, atol=1e-12)
    assert np.all(np.diff(scores) >= 0)
    assert cursor.emitted == 21


def test_incremental_cost_no_worse_than_flat(relation):
    """Paging 3x7 costs no more than a fresh top-21 query."""
    index = DLIndex(relation).build()
    w = np.ones(3) / 3
    cursor = TopKCursor(index.structure, w)
    for _ in range(3):
        cursor.fetch(7)
    flat = index.query(w, 21)
    assert cursor.counter.total <= flat.cost


def test_marginal_page_cost_is_small(relation):
    index = DLIndex(relation).build()
    cursor = TopKCursor(index.structure, np.ones(3) / 3)
    cursor.fetch(10)
    cost_before = cursor.counter.total
    cursor.fetch(10)
    marginal = cursor.counter.total - cost_before
    fresh = index.query(np.ones(3) / 3, 20).cost
    assert marginal < fresh


def test_exhaustion(relation):
    index = DLIndex(relation).build()
    cursor = TopKCursor(index.structure, np.ones(3) / 3)
    ids, _ = cursor.fetch(relation.n + 50)
    assert ids.shape[0] == relation.n
    assert cursor.exhausted
    more, _ = cursor.fetch(5)
    assert more.shape[0] == 0


def test_iteration_protocol(relation):
    index = DLIndex(relation).build()
    w = np.ones(3) / 3
    pairs = list(TopKCursor(index.structure, w))
    assert len(pairs) == relation.n
    scores = [s for _, s in pairs]
    assert scores == sorted(scores)
    ref_ids, ref_scores = top_k_bruteforce(relation.matrix, w, relation.n)
    np.testing.assert_allclose(scores, ref_scores, atol=1e-12)


def test_cursor_with_zero_layer(relation):
    index = DLPlusIndex(relation).build()
    cursor = TopKCursor(index.structure, np.ones(3) / 3)
    ids, scores = cursor.fetch(10)
    ref_ids, ref_scores = top_k_bruteforce(relation.matrix, np.ones(3) / 3, 10)
    np.testing.assert_allclose(scores, ref_scores, atol=1e-12)
    assert np.all(ids < relation.n)  # pseudo nodes never emitted


def test_capacity_error_on_partial(relation):
    structure = build_dual_layer(relation.matrix, max_layers=4).structure
    cursor = TopKCursor(structure, np.ones(3) / 3)
    cursor.fetch(4)
    with pytest.raises(IndexCapacityError):
        cursor.fetch(1)


def test_invalid_fetch_size(relation):
    index = DLIndex(relation).build()
    cursor = TopKCursor(index.structure, np.ones(3) / 3)
    with pytest.raises(InvalidQueryError):
        cursor.fetch(-1)
    # Non-integral sizes used to be served: fetch(2.5) returned 3 tuples
    # and fetch(True) 1.
    for bad in (2.5, True, np.True_, "3", None):
        with pytest.raises(InvalidQueryError, match="fetch size"):
            cursor.fetch(bad)
    assert cursor.emitted == 0
    # Zero, numpy integers and integral floats stay accepted.
    assert cursor.fetch(np.int64(0))[0].shape == (0,)
    assert cursor.fetch(np.int32(2))[0].shape == (2,)
    assert cursor.fetch(2.0)[0].shape == (2,)
    assert cursor.emitted == 4


def test_fetch_zero_is_a_noop(relation):
    """fetch(0) returns empty typed arrays, costs nothing, changes nothing."""
    index = DLIndex(relation).build()
    cursor = TopKCursor(index.structure, np.ones(3) / 3)
    ids, scores = cursor.fetch(0)
    assert ids.shape == (0,) and ids.dtype == np.intp
    assert scores.shape == (0,) and scores.dtype == np.float64
    assert cursor.emitted == 0
    cost_before = cursor.counter.total
    # A later real fetch is unaffected by the no-op.
    ids, _ = cursor.fetch(5)
    assert ids.shape[0] == 5
    # And fetch(0) works on a bounded structure even past its capacity math.
    bounded = TopKCursor(build_dual_layer(relation.matrix, max_layers=2).structure,
                         np.ones(3) / 3)
    bounded.fetch(2)
    empty, _ = bounded.fetch(0)
    assert empty.shape[0] == 0
    assert cost_before == 0 or cost_before > 0  # counter untouched by no-ops


def test_overfetch_past_exhaustion_on_pseudo_node_structure(relation):
    """Over-fetching a DL+ structure (zero layer adds pseudo nodes) drains
    exactly the n real tuples and never emits a pseudo id, even when the
    request far exceeds the relation."""
    index = DLPlusIndex(relation).build()
    structure = index.structure
    assert structure.n_nodes > structure.n_real  # pseudo nodes exist
    cursor = TopKCursor(structure, np.array([0.25, 0.4, 0.35]))
    ids, scores = cursor.fetch(relation.n + 1000)
    assert ids.shape[0] == relation.n
    assert np.all(ids < relation.n)
    assert np.all(np.diff(scores) >= 0)
    assert cursor.exhausted
    again, _ = cursor.fetch(10)
    assert again.shape[0] == 0 and cursor.exhausted


@pytest.mark.parametrize("index_class", [DLIndex, DLPlusIndex])
@pytest.mark.parametrize("prefix", [1, 7, 25])
def test_cursor_access_counts_match_process_top_k_prefix(relation, index_class, prefix):
    """Fetching a k-prefix costs exactly what process_top_k(k) pays: the
    cursor is the same traversal with the k-th relaxation deferred."""
    from repro.core.query import process_top_k
    from repro.stats import AccessCounter

    index = index_class(relation).build()
    w = np.array([0.3, 0.45, 0.25])
    w = w / w.sum()
    counter = AccessCounter()
    ref_ids, ref_scores = process_top_k(index.structure, w, prefix, counter)
    cursor = TopKCursor(index.structure, w)
    got_ids, got_scores = cursor.fetch(prefix)
    np.testing.assert_array_equal(got_ids, ref_ids)
    assert got_scores.tobytes() == ref_scores.tobytes()
    assert (cursor.counter.real, cursor.counter.pseudo) == (
        counter.real,
        counter.pseudo,
    )


def test_fetch_stop_score_pushes_back_unconsumed(relation):
    """The threshold hook stops before the first emission above stop_score,
    re-emits that tuple on the next fetch, and never double-counts cost."""
    index = DLIndex(relation).build()
    w = np.ones(3) / 3
    reference = TopKCursor(index.structure, w)
    all_ids, all_scores = reference.fetch(20)

    cursor = TopKCursor(index.structure, w)
    cutoff = float(all_scores[9])  # the 10th score
    ids, scores = cursor.fetch(20, stop_score=cutoff)
    # Everything scoring <= cutoff was emitted (ties included), nothing above.
    expected = int(np.sum(all_scores <= cutoff))
    assert ids.shape[0] == expected
    assert np.all(scores <= cutoff)
    np.testing.assert_array_equal(ids, all_ids[:expected])
    cost_after_stop = cursor.counter.total
    # The pushed-back tuple is re-emitted by the next unbounded fetch.
    more_ids, more_scores = cursor.fetch(20 - expected)
    np.testing.assert_array_equal(more_ids, all_ids[expected:20])
    assert more_scores.tobytes() == all_scores[expected:20].tobytes()
    # Total cost matches the unbounded 20-fetch: push-back was free.
    assert cursor.counter.total == reference.counter.total
    assert cost_after_stop <= reference.counter.total


def test_fetch_stop_score_below_minimum_emits_nothing(relation):
    index = DLIndex(relation).build()
    cursor = TopKCursor(index.structure, np.ones(3) / 3)
    ids, scores = cursor.fetch(5, stop_score=-1.0)
    assert ids.shape[0] == 0
    assert cursor.emitted == 0
    # The cursor is still live: removing the bound resumes normally.
    ids, _ = cursor.fetch(5)
    assert ids.shape[0] == 5


def test_fetch_exactly_to_bounded_capacity_does_not_raise(relation):
    """Paging up to emitted + m == num_coarse_layers is within the bounded
    index's guarantee and must not raise; one past it must."""
    structure = build_dual_layer(relation.matrix, max_layers=4).structure
    w = np.ones(3) / 3
    cursor = TopKCursor(structure, w)
    first, _ = cursor.fetch(2)
    second, _ = cursor.fetch(2)  # lands exactly on the capacity boundary
    assert first.shape[0] == 2 and second.shape[0] == 2
    assert cursor.emitted == structure.num_coarse_layers
    with pytest.raises(IndexCapacityError):
        cursor.fetch(1)
    # One shot straight to the boundary works too.
    flat = TopKCursor(structure, w)
    ids, _ = flat.fetch(structure.num_coarse_layers)
    assert ids.shape[0] == structure.num_coarse_layers


@pytest.mark.parametrize("index_class", [DLIndex, DLPlusIndex])
def test_interleaved_fetch_one_matches_flat_query(relation, index_class):
    """k calls of fetch(1) emit exactly the sequence of one top-k query."""
    from repro.core.query import process_top_k
    from repro.stats import AccessCounter

    index = index_class(relation).build()
    w = np.array([0.3, 0.45, 0.25])
    w = w / w.sum()
    k = 25
    ref_ids, ref_scores = process_top_k(index.structure, w, k, AccessCounter())
    cursor = TopKCursor(index.structure, w)
    got_ids, got_scores = [], []
    for _ in range(k):
        ids, scores = cursor.fetch(1)
        assert ids.shape[0] == 1
        got_ids.append(int(ids[0]))
        got_scores.append(float(scores[0]))
    np.testing.assert_array_equal(np.asarray(got_ids, dtype=np.intp), ref_ids)
    np.testing.assert_array_equal(np.asarray(got_scores), ref_scores)


def test_exhausted_with_deferred_relax_pending():
    """Draining the heap with the last emission's relax deferred must still
    report exhaustion correctly (regression: `exhausted` used to stay False
    forever once the heap emptied with a pending deferred relax)."""
    points = np.array([[0.1, 0.9], [0.9, 0.1], [0.5, 0.5], [0.8, 0.8]])
    structure = build_dual_layer(points).structure
    cursor = TopKCursor(structure, np.array([0.5, 0.5]))
    ids, _ = cursor.fetch(points.shape[0])  # exact fetch defers the last relax
    assert ids.shape[0] == points.shape[0]
    assert cursor.exhausted
    more, _ = cursor.fetch(3)
    assert more.shape[0] == 0


def test_exhausted_stays_false_while_deferred_relax_can_open_nodes(relation):
    """exhausted must account for nodes a deferred relaxation still opens."""
    index = DLIndex(relation).build()
    cursor = TopKCursor(index.structure, np.ones(3) / 3)
    emitted = 0
    while not cursor.exhausted:
        ids, _ = cursor.fetch(1)
        assert ids.shape[0] == 1, "exhausted said more was available"
        emitted += 1
    assert emitted == relation.n
