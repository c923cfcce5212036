"""QueryEngine: batch byte-identity, caching, invalidation, concurrency."""

import numpy as np
import pytest

from repro.baselines import ScanIndex
from repro.core import DLIndex, DLPlusIndex
from repro.core.maintenance import DynamicDualLayerIndex
from repro.core.query import process_top_k, process_top_k_reference
from repro.data import generate
from repro.exceptions import InvalidQueryError, InvalidWeightError
from repro.relation import normalize_weights, top_k_bruteforce
from repro.serving import QueryEngine
from repro.stats import AccessCounter
from tests.conftest import KERNEL_ROUTES


def random_weights(rng, d: int, count: int) -> np.ndarray:
    return np.clip(rng.dirichlet(np.ones(d), size=count), 1e-9, None)


@pytest.mark.parametrize("distribution", ["IND", "ANT"])
@pytest.mark.parametrize("d", [2, 4])
@pytest.mark.parametrize("index_class", [DLIndex, DLPlusIndex])
def test_query_batch_byte_identical_to_sequential(distribution, d, index_class):
    """Acceptance: batched answers equal sequential process_top_k answers
    byte for byte — across distributions, dimensionalities, both index
    variants (static seeds and the 2-D weight-range selector), and varying
    k.  (4 dist/d cells x 2 index classes x 80 queries = 640 queries.)"""
    rng = np.random.default_rng(d * 101 + (1 if distribution == "IND" else 2))
    relation = generate(distribution, 300, d, seed=17)
    index = index_class(relation).build()
    engine = QueryEngine(index, cache_size=256)

    count = 80
    weights = random_weights(rng, d, count)
    ks = rng.integers(1, 26, size=count)
    # Inject exact repeats so the batch exercises the cache-hit path too.
    weights[count // 2] = weights[0]
    ks[count // 2] = ks[0]

    for k in np.unique(ks):
        rows = np.nonzero(ks == k)[0]
        results = engine.query_batch(weights[rows], int(k))
        for row, result in zip(rows, results):
            w = normalize_weights(weights[row], d)
            counter = AccessCounter()
            ref_ids, ref_scores = process_top_k(index.structure, w, int(k), counter)
            assert result.ids.tobytes() == ref_ids.tobytes()
            assert result.scores.tobytes() == ref_scores.tobytes()
            assert result.ids.dtype == ref_ids.dtype
            assert result.scores.dtype == ref_scores.dtype


def test_cache_hit_costs_zero_evaluations():
    relation = generate("IND", 250, 3, seed=5)
    engine = QueryEngine(DLPlusIndex(relation).build())
    w = np.array([0.2, 0.3, 0.5])
    first = engine.query(w, 10)
    assert first.counter.total > 0
    second = engine.query(w, 10)
    assert second.counter.total == 0  # acceptance: zero tuple evaluations
    np.testing.assert_array_equal(second.ids, first.ids)
    np.testing.assert_array_equal(second.scores, first.scores)
    assert engine.metrics.cache_hits == 1
    assert engine.metrics.as_dict()["hit_rate"] == 0.5


def test_cache_disabled_always_recomputes():
    relation = generate("IND", 200, 3, seed=6)
    engine = QueryEngine(DLIndex(relation).build(), cache_size=0)
    w = np.ones(3) / 3
    assert engine.query(w, 5).counter.total > 0
    assert engine.query(w, 5).counter.total > 0
    assert engine.metrics.cache_hits == 0


def test_mutation_invalidates_cache_entries():
    """Acceptance: an insert/delete through the maintenance index must
    invalidate affected cached answers (version keying + eager prune)."""
    rng = np.random.default_rng(2)
    dynamic = DynamicDualLayerIndex(d=2)
    for row in rng.random((60, 2)):
        dynamic.insert(row)
    engine = QueryEngine(dynamic, cache_size=64)
    w = np.array([0.5, 0.5])

    before = engine.query(w, 5)
    assert engine.query(w, 5).counter.total == 0  # cached

    dominator = dynamic.insert(np.array([1e-4, 1e-4]))
    after_insert = engine.query(w, 5)
    assert after_insert.counter.total > 0  # stale entry not served
    assert int(after_insert.ids[0]) == dominator
    assert len(engine.cache) == 1  # old-version entries pruned eagerly

    dynamic.delete(dominator)
    after_delete = engine.query(w, 5)
    assert after_delete.counter.total > 0
    np.testing.assert_array_equal(after_delete.ids, before.ids)
    np.testing.assert_array_equal(after_delete.scores, before.scores)


def test_rebuild_invalidates_static_index_cache():
    relation = generate("IND", 150, 2, seed=9)
    index = DLIndex(relation).build()
    engine = QueryEngine(index)
    w = np.array([0.5, 0.5])
    engine.query(w, 5)
    assert engine.query(w, 5).counter.total == 0
    index.build()  # rebuild bumps the version
    assert engine.query(w, 5).counter.total > 0


def test_query_many_matches_sequential_and_tracks_depth():
    rng = np.random.default_rng(11)
    relation = generate("ANT", 250, 3, seed=13)
    index = DLPlusIndex(relation).build()
    sequential = QueryEngine(index, cache_size=0)
    threaded = QueryEngine(index, cache_size=0)
    queries = [(w, int(k)) for w, k in zip(
        random_weights(rng, 3, 40), rng.integers(1, 15, size=40)
    )]
    expected = [sequential.query(w, k) for w, k in queries]
    got = threaded.query_many(queries, max_workers=4)
    for a, b in zip(got, expected):
        assert a.ids.tobytes() == b.ids.tobytes()
        assert a.scores.tobytes() == b.scores.tobytes()
        assert a.counter.total == b.counter.total  # private per-query state
    assert threaded.metrics.queries == 40
    assert threaded.metrics.max_queue_depth >= 1
    assert threaded.query_many([]) == []


def test_engine_fronts_non_gated_indexes():
    relation = generate("IND", 120, 3, seed=21)
    engine = QueryEngine(ScanIndex(relation).build())
    w = np.ones(3) / 3
    result = engine.query(w, 5)
    _, ref_scores = top_k_bruteforce(relation.matrix, w, 5)
    np.testing.assert_allclose(result.scores, ref_scores, atol=1e-12)
    assert result.counter.total == relation.n
    assert engine.query(w, 5).counter.total == 0  # cached


def test_engine_builds_unbuilt_index():
    relation = generate("IND", 100, 2, seed=23)
    index = DLIndex(relation)
    engine = QueryEngine(index)
    assert index._built
    assert engine.version == 1
    result = engine.query(np.array([0.6, 0.4]), 3)
    assert result.ids.shape[0] == 3


def test_k_clamped_and_validated():
    relation = generate("IND", 50, 2, seed=25)
    engine = QueryEngine(DLIndex(relation).build())
    result = engine.query(np.array([0.5, 0.5]), 500)
    assert result.ids.shape[0] == 50
    with pytest.raises(InvalidQueryError):
        engine.query(np.array([0.5, 0.5]), 0)
    with pytest.raises(InvalidWeightError):
        engine.query(np.array([0.5, -0.5]), 3)
    with pytest.raises(InvalidWeightError):
        engine.query_batch(np.ones((2, 2, 2)), 3)


def test_serve_helper_on_index():
    relation = generate("IND", 80, 2, seed=27)
    engine = DLIndex(relation).serve(cache_size=8)
    assert isinstance(engine, QueryEngine)
    assert engine.query(np.array([0.5, 0.5]), 3).ids.shape[0] == 3


def test_stats_snapshot_merges_cache_and_metrics():
    relation = generate("IND", 100, 2, seed=29)
    engine = QueryEngine(DLIndex(relation).build())
    engine.query(np.array([0.5, 0.5]), 3)
    engine.query(np.array([0.5, 0.5]), 3)
    stats = engine.stats()
    assert stats["cache_entries"] == 1.0
    assert stats["cache_hits"] == 1.0
    assert stats["queries"] == 2.0
    assert stats["throughput_qps"] > 0.0


def test_query_batch_per_row_k():
    """query_batch accepts a per-row k vector; each row must match the
    equivalent scalar-k call byte for byte."""
    rng = np.random.default_rng(31)
    relation = generate("ANT", 300, 3, seed=31)
    index = DLPlusIndex(relation).build()
    engine = QueryEngine(index, cache_size=0)
    scalar = QueryEngine(index, cache_size=0)
    weights = random_weights(rng, 3, 12)
    ks = [1, 50, 3, 50, 1, 7, 50, 3, 1, 50, 7, 3]
    results = engine.query_batch(weights, ks)
    assert len(results) == 12
    for w, k, result in zip(weights, ks, results):
        expected = scalar.query(w, k)
        assert result.ids.tobytes() == expected.ids.tobytes()
        assert result.scores.tobytes() == expected.scores.tobytes()
    with pytest.raises(InvalidQueryError):
        engine.query_batch(weights, ks[:-1])  # length mismatch
    with pytest.raises(InvalidQueryError):
        engine.query_batch(weights, [5] * 11 + [0])  # invalid row k


@pytest.mark.parametrize(
    "kernel,d,rows",
    [("auto", 4, 16), ("batch", 4, 16), ("reference", 2, 6)],
    ids=["auto", "batch", "reference"],
)
def test_query_batch_kernels_byte_identical(kernel, d, rows, request):
    """Whichever kernel dispatch picks for a group — auto on this host,
    the fused batch kernel, or the per-node reference kernel with the
    native build masked — a batch and a single query are byte-identical
    to the csr kernel called directly, counts included."""
    if kernel != "auto":
        request.getfixturevalue("broken_native_build")
    rng = np.random.default_rng(37)
    relation = generate("IND", 350, d, seed=37)
    index = DLPlusIndex(relation).build()
    engine = QueryEngine(index, cache_size=0)
    weights = random_weights(rng, d, rows)
    got = engine.query_batch(weights, 9)
    w = rng.dirichlet(np.ones(d))
    got.append(engine.query(w, 6))
    expected_ks = [9] * rows + [6]
    for raw, k, result in zip([*weights, w], expected_ks, got):
        counter = AccessCounter()
        ids, scores = process_top_k(
            index.structure, normalize_weights(raw, d), k, counter
        )
        assert result.ids.tobytes() == ids.tobytes()
        assert result.scores.tobytes() == scores.tobytes()
        assert result.cost == counter.total
    if kernel != "auto":
        assert engine.stats()[f"kernel_{kernel}"] >= rows


def test_query_batch_records_batch_metrics():
    relation = generate("IND", 300, 3, seed=41)
    engine = QueryEngine(DLPlusIndex(relation).build(), cache_size=0)
    rng = np.random.default_rng(41)
    engine.query_batch(random_weights(rng, 3, 16), 5)
    stats = engine.metrics.as_dict()
    assert engine.metrics.batches == 1
    assert engine.metrics.batch_rows == 16
    assert stats["batched_queries"] == 16.0
    assert stats["batch_amortized_ms_p50"] > 0.0


def test_query_many_validates_before_spawning():
    """A malformed query anywhere in the list must fail fast, before any
    thread-pool work runs (no partial metrics, no partial cache fills)."""
    relation = generate("IND", 200, 3, seed=43)
    engine = QueryEngine(DLPlusIndex(relation).build(), cache_size=32)
    rng = np.random.default_rng(43)
    good = [(w, 5) for w in random_weights(rng, 3, 6)]
    bad_weight = good[:3] + [(np.array([0.5, -0.5, 1.0]), 5)] + good[3:]
    with pytest.raises(InvalidWeightError):
        engine.query_many(bad_weight)
    bad_k = good[:3] + [(good[0][0], 0)] + good[3:]
    with pytest.raises(InvalidQueryError):
        engine.query_many(bad_k)
    assert engine.metrics.queries == 0  # nothing executed
    assert len(engine.cache) == 0


def test_non_integral_k_rejected_everywhere():
    """Regression: a non-integral k used to be silently truncated by the
    int64 cast in query_batch (k=2.5 served the k=2 answer).  Every
    serving entry point must reject it instead — scalar, per-row, and
    query_many — while integral floats still pass."""
    relation = generate("IND", 200, 3, seed=47)
    engine = QueryEngine(DLPlusIndex(relation).build(), cache_size=0)
    rng = np.random.default_rng(47)
    weights = random_weights(rng, 3, 4)
    w = weights[0]
    with pytest.raises(InvalidQueryError):
        engine.query(w, 2.5)
    with pytest.raises(InvalidQueryError):
        engine.query_batch(weights, 2.5)  # scalar k
    with pytest.raises(InvalidQueryError):
        engine.query_batch(weights, [5, 5, 2.5, 5])  # per-row k
    with pytest.raises(InvalidQueryError):
        engine.query_batch(weights, np.array([5.0, 5.0, 2.5, 5.0]))
    with pytest.raises(InvalidQueryError):
        engine.query_many([(w, 5), (w, 2.5)])
    with pytest.raises(InvalidQueryError):
        engine.query(w, "5")
    assert engine.metrics.queries == 0  # nothing was served
    # Integral floats are unambiguous and stay accepted.
    a = engine.query(w, 3.0)
    b = engine.query(w, 3)
    assert a.ids.tobytes() == b.ids.tobytes()
    c = engine.query_batch(weights, np.float64(4.0))
    d = engine.query_batch(weights, 4)
    for x, y in zip(c, d):
        assert x.ids.tobytes() == y.ids.tobytes()


def test_boolean_k_rejected_everywhere():
    """A numpy boolean used to pass as k=1: ``query_batch(W,
    np.array([True, True]))`` served two top-1 answers.  Python and numpy
    booleans alike raise the same error, scalar or per row."""
    relation = generate("IND", 200, 3, seed=48)
    engine = QueryEngine(DLPlusIndex(relation).build(), cache_size=0)
    weights = random_weights(np.random.default_rng(48), 3, 2)
    for flag in (True, np.True_, np.False_):
        with pytest.raises(InvalidQueryError, match="must be an integer"):
            engine.query(weights[0], flag)
        with pytest.raises(InvalidQueryError, match="must be an integer"):
            engine.query_batch(weights, flag)
    with pytest.raises(InvalidQueryError, match="got True$"):
        engine.query_batch(weights, np.array([True, True]))
    with pytest.raises(InvalidQueryError, match="got True$"):
        engine.query(weights[0], np.True_)
    assert engine.metrics.queries == 0


def test_kernel_counter_skips_a_row_that_raised(served_kernel):
    """``kernel_<name>`` counts computed rows: a group past an incomplete
    index's capacity (k > max_layers) raises and leaves every kernel
    counter at 0, while ``queries`` and ``cache_misses`` still count the
    failed call."""
    from repro.exceptions import IndexCapacityError

    d, rows = KERNEL_ROUTES[served_kernel]
    relation = generate("IND", 300, d, seed=49)
    index = DLPlusIndex(relation, max_layers=4).build()
    engine = QueryEngine(index, cache_size=0)
    weights = random_weights(np.random.default_rng(49), d, rows)
    with pytest.raises(IndexCapacityError):
        engine.query_batch(weights, 5)
    stats = engine.stats()
    for name in ("native", "csr", "reference", "batch"):
        assert stats.get(f"kernel_{name}", 0.0) == 0.0, name
    assert stats["queries"] == 1.0
    assert stats["cache_misses"] == 1.0
    engine.query_batch(weights, 4)
    assert engine.stats()[f"kernel_{served_kernel}"] == rows


def test_engine_kernel_selector(broken_native_build):
    """The engine's kernel selector is dispatch alone.  With the native
    build masked it walks a wide ``query_batch`` group with the batch
    kernel, a d=3 solo query with csr and a small d=2 query with the
    reference kernel; each is counted under its kernel and is bitwise
    the reference kernel's answer, Definition-9 counts included."""
    rng = np.random.default_rng(23)
    for kernel in ("batch", "csr", "reference"):
        d, rows = KERNEL_ROUTES[kernel]
        index = DLPlusIndex(generate("ANT", 400, d, seed=23 + d)).build()
        engine = QueryEngine(index, cache_size=0)
        weights = random_weights(rng, d, rows)
        if rows == 1:
            results = [engine.query(weights[0], 10)]
        else:
            results = engine.query_batch(weights, 10)
        for w, result in zip(weights, results):
            counter = AccessCounter()
            ids, scores = process_top_k_reference(
                index.structure, normalize_weights(w, d), 10, counter
            )
            assert result.ids.tobytes() == ids.tobytes(), kernel
            assert result.scores.tobytes() == scores.tobytes(), kernel
            assert (result.counter.real, result.counter.pseudo) == (
                counter.real,
                counter.pseudo,
            ), kernel
        stats = engine.stats()
        for name in ("native", "csr", "reference", "batch"):
            expected = float(rows) if name == kernel else 0.0
            assert stats.get(f"kernel_{name}", 0.0) == expected, (kernel, name)


def test_query_batch_concurrent_deferred_duplicates():
    """Concurrency: batches full of duplicate rows (the deferred-duplicate
    path that resolves repeats from the cache fill of the first
    occurrence) stay bitwise-correct when many threads share one engine."""
    import threading

    relation = generate("ANT", 300, 3, seed=53)
    index = DLPlusIndex(relation).build()
    engine = QueryEngine(index, cache_size=128)
    oracle = QueryEngine(index, cache_size=0)
    rng = np.random.default_rng(53)
    distinct = random_weights(rng, 3, 6)
    # Each thread's batch repeats every distinct vector several times.
    batch = np.vstack([distinct, distinct, distinct])
    expected = [oracle.query(w, 7) for w in batch]
    failures: list[str] = []
    barrier = threading.Barrier(4)

    def worker() -> None:
        barrier.wait()
        for _ in range(5):
            results = engine.query_batch(batch, 7)
            for got, ref in zip(results, expected):
                if (
                    got.ids.tobytes() != ref.ids.tobytes()
                    or got.scores.tobytes() != ref.scores.tobytes()
                ):
                    failures.append("bitwise mismatch under concurrency")

    threads = [threading.Thread(target=worker) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert failures == []
    metrics = engine.metrics
    assert metrics.queries == 4 * 5 * len(batch)
    assert metrics.cache_hits + metrics.cache_misses == metrics.queries
    # Duplicates beyond each batch's first occurrence hit the cache.
    assert metrics.cache_hits >= metrics.queries // 2


def test_query_many_concurrent_bitwise_and_workspace_counted(broken_native_build):
    """Concurrent query_many threads hammering one engine (and its shared
    QueryWorkspace) return exactly the sequential answers; every uncached
    solo query either checked the workspace out or was counted as a
    contention fallback.  (The masked native build sends d=4 solo
    queries to the python csr kernel; the native workspace has its own
    counters and test.)"""
    relation = generate("IND", 600, 4, seed=29)
    index = DLPlusIndex(relation).build()
    sequential = QueryEngine(index, cache_size=0)
    concurrent = QueryEngine(index, cache_size=0)
    rng = np.random.default_rng(30)
    queries = [(rng.dirichlet(np.ones(4)), int(rng.integers(1, 21))) for _ in range(24)]
    expected = [sequential.query(w, k) for w, k in queries]
    results = concurrent.query_many(queries, max_workers=6)
    for a, b in zip(expected, results):
        np.testing.assert_array_equal(a.ids, b.ids)
        assert a.scores.tobytes() == b.scores.tobytes()
        assert a.cost == b.cost
    stats = concurrent.stats()
    assert stats["kernel_csr"] == len(queries)
    assert stats["workspace_checkouts"] + stats["workspace_fallbacks"] == len(queries)


def test_workspace_contention_fallback_counted_in_stats(broken_native_build):
    """A query arriving while the solo workspace is held falls back to a
    fresh allocation — same bits, and the fallback shows in stats().
    (The masked native build sends d=3 solo queries to the python csr
    kernel; the native workspace has an equivalent test in
    tests/core/test_native_kernel.py.)"""
    relation = generate("ANT", 400, 3, seed=31)
    index = DLPlusIndex(relation).build()
    engine = QueryEngine(index, cache_size=0)
    w = np.array([0.3, 0.4, 0.3])
    baseline = engine.query(w, 7)
    assert engine.stats()["workspace_fallbacks"] == 0.0
    assert engine._solo_workspace._lock.acquire(blocking=False)
    try:
        contended = engine.query(w, 7)
    finally:
        engine._solo_workspace._lock.release()
    np.testing.assert_array_equal(baseline.ids, contended.ids)
    assert baseline.scores.tobytes() == contended.scores.tobytes()
    assert engine.stats()["workspace_fallbacks"] == 1.0
    assert engine.stats()["kernel_csr"] == 2.0


def test_native_kernel_guarded_in_engine(broken_native_build):
    """When the native loader cannot build the C walker,
    ``get_jit_kernel`` raises KernelUnavailableError naming the actual
    remedy (C toolchain / native build), while an engine on the same
    index never reaches it: every query is served through the python
    kernels.  A call that raises counts as one failed query, not one per
    row."""
    from repro.core.dispatch import get_jit_kernel
    from repro.exceptions import IndexCapacityError, KernelUnavailableError

    with pytest.raises(
        KernelUnavailableError, match="no compiled walk kernel"
    ) as info:
        get_jit_kernel()
    assert "C toolchain" in str(info.value)

    relation = generate("IND", 300, 3, seed=33)
    index = DLPlusIndex(relation).build()
    engine = QueryEngine(index, cache_size=0)
    w = np.array([0.2, 0.5, 0.3])
    result = engine.query(w, 5)
    ids, scores = process_top_k(
        index.structure, normalize_weights(w, 3), 5, AccessCounter()
    )
    np.testing.assert_array_equal(result.ids, ids)
    assert result.scores.tobytes() == scores.tobytes()
    assert engine.stats().get("kernel_native", 0.0) == 0.0
    assert engine.stats()["kernel_csr"] == 1.0

    bounded = QueryEngine(DLPlusIndex(relation, max_layers=4).build(), cache_size=0)
    with pytest.raises(IndexCapacityError):
        bounded.query(w, 5)
    with pytest.raises(IndexCapacityError):
        bounded.query_batch(np.stack([w, np.array([0.1, 0.6, 0.3])]), 5)
    # The two-row batch served nothing: it counts as one failed query.
    stats = bounded.stats()
    assert stats["queries"] == 2.0
    assert stats["batched_queries"] == 1.0
    assert stats["hit_rate"] == 0.0
    assert stats["queue_depth"] == 0.0
    assert stats["max_queue_depth"] == 2.0


def test_unsupported_native_shape_runs_csr_with_workspace():
    """d > 7 (outside the C walker's bitwise contract) is served through
    the csr kernel with the engine's solo workspace, whatever the host,
    and is counted as csr — bitwise equal to the reference kernel."""
    from repro.core.native import NATIVE_MAX_DIM

    d = NATIVE_MAX_DIM + 1
    relation = generate("IND", 300, d, seed=35)
    index = DLPlusIndex(relation).build()
    engine = QueryEngine(index, cache_size=0)
    rng = np.random.default_rng(35)
    for w in random_weights(rng, d, 5):
        got = engine.query(w, 6)
        counter = AccessCounter()
        ids, scores = process_top_k_reference(
            index.structure, normalize_weights(w, d), 6, counter
        )
        assert got.ids.tobytes() == ids.tobytes()
        assert got.scores.tobytes() == scores.tobytes()
        assert (got.counter.real, got.counter.pseudo) == (
            counter.real,
            counter.pseudo,
        )
    stats = engine.stats()
    assert stats["kernel_csr"] == 5.0
    assert stats.get("kernel_native", 0.0) == 0.0
    assert stats["workspace_checkouts"] == 5.0
    assert stats["native_workspace_checkouts"] == 0.0
