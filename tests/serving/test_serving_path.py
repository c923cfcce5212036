"""The one serving loop: vectorised front half, result isolation, and
the pinned ``stats()`` schema.

``QueryEngine`` and ``ClusterEngine`` serve through the same loop, and
``query`` is a one-row pass through the path ``query_batch`` takes, so
these properties hold for both engines and both entry points:

* **Front half** — the whole weight matrix is validated and normalised in
  one pass, bitwise equal to row-by-row ``normalize_weights``; a bad row
  raises exactly the error ``normalize_weights`` raises on it, before any
  row is served.
* **Isolation** — answers are freshly allocated per call and the cache
  stores copies, so no later call and no caller mutation can change an
  answer already handed out.
* **Stats** — the ``stats()`` key set and counter semantics documented
  in DESIGN.md §3b.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.cluster import ClusterEngine
from repro.core import DLPlusIndex
from repro.core.native import native_ready
from repro.core.query import process_top_k_reference
from repro.data import generate
from repro.exceptions import IndexCapacityError, InvalidWeightError
from repro.relation import normalize_weights
from repro.serving import QueryEngine
from repro.serving.cache import ResultCache
from repro.serving.engine import normalize_rows
from repro.stats import AccessCounter


@pytest.fixture(scope="module")
def index():
    return DLPlusIndex(generate("IND", 300, 3, seed=71)).build()


def engines(index, cache_size):
    """A single-node engine and a two-shard cluster over the same tuples."""
    return (
        QueryEngine(index, cache_size=cache_size),
        ClusterEngine(index.relation, shards=2, cache_size=cache_size),
    )


@st.composite
def scaled_matrices(draw):
    """(B, d) positive matrices whose rows are scaled by 2^-30..2^30."""
    d = draw(st.integers(1, 12))
    rows = draw(st.integers(1, 9))
    unit = draw(
        arrays(
            np.float64,
            (rows, d),
            elements=st.floats(1e-6, 1.0, allow_nan=False, allow_infinity=False),
        )
    )
    exponents = draw(arrays(np.int64, (rows, 1), elements=st.integers(-30, 30)))
    matrix = unit * np.exp2(exponents.astype(np.float64))
    if draw(st.booleans()):
        matrix = np.asfortranarray(matrix)  # a non-contiguous row layout
    return matrix


@settings(max_examples=200, deadline=None)
@given(scaled_matrices())
def test_normalize_rows_bitwise_equals_normalize_weights(matrix):
    """Vectorised normalisation and key rounding equal the per-row
    functions byte for byte, whatever each row's scale; so does the
    admission lookup's one-row ``raw / sum``."""
    d = matrix.shape[1]
    normalized = normalize_rows(matrix, d)
    cache = ResultCache(8)
    keys = cache.make_keys(normalized, np.full(matrix.shape[0], 5), 3)
    for row, key, got in zip(matrix, keys, normalized):
        expected = normalize_weights(row, d)
        assert got.tobytes() == expected.tobytes()
        assert (row / np.add.reduce(row)).tobytes() == expected.tobytes()
        assert key == cache.make_key(expected, 5, 3)


def _row_by_row_error(matrix, d):
    """The exception the pre-vectorised engine raised: the first bad row's."""
    try:
        for row in matrix:
            normalize_weights(row, d)
    except InvalidWeightError as exc:
        return exc
    raise AssertionError("matrix has no bad row")


@pytest.mark.parametrize(
    "bad",
    [np.nan, 0.0, -0.25, np.inf, -np.inf],
    ids=["nan", "zero", "negative", "inf", "-inf"],
)
@pytest.mark.parametrize("position", [0, 5])
def test_bad_row_raises_like_normalize_weights_and_serves_nothing(
    index, bad, position
):
    matrix = np.random.default_rng(3).dirichlet(np.ones(3), size=7)
    matrix[position, 1] = bad
    matrix[6, 0] = -1.0  # a later bad row must not win
    expected = _row_by_row_error(matrix, 3)
    for engine in engines(index, 32):
        with pytest.raises(InvalidWeightError) as info:
            engine.query_batch(matrix, 4)
        assert str(info.value) == str(expected)
        if position == 0:
            with pytest.raises(InvalidWeightError) as solo:
                engine.query(matrix[0], 4)
            assert str(solo.value) == str(expected)
        assert engine.metrics.queries == 0
        assert engine.cache.stats() == ResultCache(32).stats()


def test_bad_shapes_raise_like_before(index):
    good = np.full((4, 3), 1 / 3)
    cases = [
        (np.full((4, 2), 0.5), lambda m: _row_by_row_error(m, 3)),
        (np.full((4, 4), 0.25), lambda m: _row_by_row_error(m, 3)),
        # No rows, wrong width: the error one row of that width raises.
        (np.empty((0, 7)), lambda m: _row_by_row_error(np.full((1, 7), 1 / 7), 3)),
        (np.ones((2, 2, 3)), None),
    ]
    for engine in engines(index, 32):
        for matrix, expected in cases:
            with pytest.raises(InvalidWeightError) as info:
                engine.query_batch(matrix, 4)
            if expected is None:
                assert str(info.value) == (
                    "weight matrix must be 2-D, got shape (2, 2, 3)"
                )
            else:
                assert str(info.value) == str(expected(matrix))
        for vector in (np.full(2, 0.5), good):  # wrong width; not one vector
            with pytest.raises(InvalidWeightError) as info:
                engine.query(vector, 4)
            with pytest.raises(InvalidWeightError) as direct:
                normalize_weights(vector, 3)
            assert str(info.value) == str(direct.value)
        assert engine.metrics.queries == 0
        assert engine.cache.stats() == ResultCache(32).stats()
        assert engine.query_batch(np.empty((0, 3)), 4) == []


def test_engines_take_no_kernel_option(index):
    """Dispatch alone picks the kernel: neither engine takes a kernel
    option, and neither carries a pinned kernel."""
    with pytest.raises(TypeError):
        QueryEngine(index, kernel="csr")
    with pytest.raises(TypeError):
        ClusterEngine(index.relation, shards=2, kernel="csr")
    for engine in engines(index, 0):
        assert not hasattr(engine, "kernel")


@pytest.mark.parametrize("cache_size", [0, 64])
def test_answers_are_isolated_from_later_calls_and_caller_mutation(
    index, cache_size
):
    """Batch i's answers survive batch i+1, a solo query on the same
    workspace, and the caller scribbling over returned arrays — no answer
    aliases a reused output buffer or a cache entry."""
    for engine in engines(index, cache_size):
        rng = np.random.default_rng(5)
        first_weights = rng.dirichlet(np.ones(3), size=12)
        first = engine.query_batch(first_weights, 9)
        snapshot = [(r.ids.tobytes(), r.scores.tobytes()) for r in first]
        engine.query_batch(rng.dirichlet(np.ones(3), size=12), 9)
        engine.query(rng.dirichlet(np.ones(3)), 9)
        assert [(r.ids.tobytes(), r.scores.tobytes()) for r in first] == snapshot
        # Scribble over every returned array, then ask again: the cache
        # (or a recomputation) still answers the original bytes, and the
        # sibling rows handed out earlier are untouched.
        for result in first[:6]:
            result.ids[:] = -1
            result.scores[:] = np.nan
        rest = [(r.ids.tobytes(), r.scores.tobytes()) for r in first[6:]]
        assert rest == snapshot[6:]
        again = engine.query_batch(first_weights, 9)
        assert [(r.ids.tobytes(), r.scores.tobytes()) for r in again] == snapshot
        solo = engine.query(first_weights[0], 9)
        solo.ids[:] = -1
        assert engine.query(first_weights[0], 9).ids.tobytes() == snapshot[0][0]


#: Every key ``QueryEngine.stats()`` reports, besides the per-kernel
#: ``kernel_<name>`` counters and the ``batch_size_hist_<bucket>``
#: histogram (which appear once their first count lands).
#: ``cache_hits``/``cache_misses`` are the registry's counts of rows
#: served from the cache and computed; only ``cache_entries``,
#: ``cache_capacity`` and ``cache_evictions`` come from the cache.
STATS_KEYS = {
    "queries", "batched_queries", "hit_rate",
    "total_cost", "mean_cost", "max_cost",
    "latency_ms_mean", "latency_ms_p50", "latency_ms_p95", "latency_ms_p99",
    "latency_ms_max", "queue_depth", "max_queue_depth", "slo_violations",
    "batches", "batch_rows", "batch_size_mean", "batch_size_max",
    "batch_amortized_ms_p50", "batch_amortized_ms_p95",
    "cache_entries", "cache_capacity", "cache_hits", "cache_misses",
    "cache_evictions", "throughput_qps",
    "workspace_checkouts", "workspace_fallbacks",
    "native_workspace_checkouts", "native_workspace_fallbacks",
    "native_built", "native_cached", "native_fallback",
}


#: The keys only ``QueryEngine.stats()`` adds to the serving loop's.
ENGINE_KEYS = {
    "workspace_checkouts", "workspace_fallbacks",
    "native_workspace_checkouts", "native_workspace_fallbacks",
    "native_built", "native_cached", "native_fallback",
}
#: The keys only ``ClusterEngine.stats()`` adds: the shard count, the
#: writes absorbed and the shard rebuilds, the roll-up of every shard
#: registry, and each shard's own snapshot.
CLUSTER_KEYS = {
    "num_shards",
    "writes_absorbed",
    "shard_rebuilds",
    "shards",
    "per_shard",
}


def test_stats_key_set_and_counters_are_pinned(index):
    """A fixed query / query_batch sequence yields exactly these keys and
    counter values (DESIGN.md §3b documents each), through the single-node
    engine and through a two-shard cluster alike."""
    for engine in engines(index, 64):
        rng = np.random.default_rng(9)
        w = rng.dirichlet(np.ones(3), size=6)
        costs = [engine.query(w[0], 5).cost]  # miss: one solo walk
        costs.append(engine.query(w[0], 5).cost)  # hit
        batch = engine.query_batch(np.stack([w[1], w[2], w[1], w[3]]), 5)
        costs += [r.cost for r in batch]  # w[1] twice: computed, then a hit
        mixed = engine.query_batch(w[4:6], [3, 7])  # two k-groups of one row
        costs += [r.cost for r in mixed]

        stats = engine.stats()
        histogram = {"batch_size_hist_1", "batch_size_hist_2"}
        expected = {
            "queries": 8.0,
            "batched_queries": 6.0,  # solo queries are never batched
            "cache_hits": 2.0,
            "cache_misses": 6.0,
            "hit_rate": 0.25,
            "total_cost": float(sum(costs)),
            "max_cost": float(max(costs)),
            "queue_depth": 0.0,
            "max_queue_depth": 4.0,  # every row of a call is in flight together
            "slo_violations": 0.0,
            "batches": 3.0,  # one per dispatched k-group, none for solo calls
            "batch_rows": 5.0,
            "batch_size_max": 3.0,
            "batch_size_hist_1": 2.0,
            "batch_size_hist_2": 1.0,
            "cache_entries": 6.0,
            "cache_capacity": 64.0,
            "cache_evictions": 0.0,
        }
        if isinstance(engine, ClusterEngine):
            assert set(stats) == (STATS_KEYS - ENGINE_KEYS) | CLUSTER_KEYS | histogram
            expected["num_shards"] = 2.0
            expected["writes_absorbed"] = 0.0  # this sequence never writes
            expected["shard_rebuilds"] = 0.0
            # The threshold merge folds each computed row into every
            # shard's registry once, with that shard's cost: the roll-up
            # sums to the cluster's own Definition-9 total.
            assert set(stats["per_shard"]) == {0, 1}
            assert stats["shards"]["queries"] == 12.0
            assert stats["shards"]["total_cost"] == stats["total_cost"]
        else:
            native = native_ready()
            kernel = "kernel_native" if native else "kernel_csr"
            assert set(stats) == STATS_KEYS | histogram | {kernel}
            expected.update({
                kernel: 6.0,  # per computed lane
                # One native checkout per FFI crossing: the solo walk, the
                # three-lane group, and the two one-row groups.
                "native_workspace_checkouts": 4.0 if native else 0.0,
                "native_workspace_fallbacks": 0.0,
                "workspace_checkouts": 0.0 if native else 6.0,
                "workspace_fallbacks": 0.0,
                "native_fallback": 0.0 if native else 1.0,
            })
            assert stats["native_built"] + stats["native_cached"] == (
                1.0 if native else 0.0
            )
        assert {key: stats[key] for key in expected} == expected
        assert stats["latency_ms_p50"] > 0.0
        assert stats["batch_amortized_ms_p50"] > 0.0


def test_disabled_cache_counts_every_row_as_a_miss(index):
    """With ``cache_size=0`` every served row is a miss: ``cache_misses``
    equals ``queries`` and ``hit_rate`` is 0, on both engines."""
    rng = np.random.default_rng(12)
    w = rng.dirichlet(np.ones(3), size=3)
    for engine in engines(index, 0):
        engine.query(w[0], 5)
        engine.query(w[0], 5)
        engine.query_batch(np.stack([w[1], w[2], w[1]]), 5)
        stats = engine.stats()
        assert stats["queries"] == 5.0
        assert stats["cache_misses"] == stats["queries"]
        assert stats["cache_hits"] == 0.0 and stats["hit_rate"] == 0.0
        assert stats["cache_entries"] == 0.0 and stats["cache_capacity"] == 0.0


# ---------------------------------------------------------------------- #
# One-row inputs: every accepted spelling of a weight vector and of k
# ---------------------------------------------------------------------- #


def _weight_spellings(d):
    """One weight vector spelled every way the engines accept it."""
    grid = np.arange(1.0, 1.0 + 3 * d).reshape(d, 3)  # column 1 is strided
    return [
        [0.2 * (i + 1) for i in range(d)],
        tuple(0.7 / (i + 2) for i in range(d)),
        np.linspace(0.1, 0.9, d, dtype=np.float32),
        np.arange(1, d + 1),  # an int array
        grid[:, 1],
    ]


def _reference(index, weights, k):
    structure = index.structure
    counter = AccessCounter()
    ids, scores = process_top_k_reference(
        structure,
        normalize_weights(weights, index.relation.d),
        min(k, index.relation.n),
        counter,
    )
    return ids.tobytes(), scores.tobytes(), (counter.real, counter.pseudo)


def _answer(result):
    return result.ids.tobytes(), result.scores.tobytes()


@pytest.mark.parametrize("k", [np.int64(4), 2.0, 300, 1000], ids=["int64", "float", "n", "over-n"])
def test_one_row_inputs_answer_like_the_reference(index, k):
    """``query``, ``query_batch`` and ``query_many`` on both engines answer
    every weight spelling bitwise like the reference walk on the
    normalised float64 row at ``min(k, n)``.  The single-node engine also
    matches its Definition-9 counts; the cluster, whose counts sum over
    shards, matches its own counts on the canonical float64 row."""
    d = index.relation.d
    spellings = _weight_spellings(d)
    for engine in engines(index, 0):
        for weights in spellings:
            expected = _reference(index, weights, int(k))
            canonical = np.asarray(weights, dtype=np.float64)
            answers = [
                engine.query(weights, k),
                engine.query_batch(weights, k)[0],
                engine.query_batch([weights], [k])[0],
                engine.query_many([(weights, k)])[0],
            ]
            if isinstance(engine, ClusterEngine):
                counts = engine.query(canonical, int(k)).counter
                counts = (counts.real, counts.pseudo)
            else:
                counts = expected[2]
            for result in answers:
                assert _answer(result) == expected[:2]
                assert (result.counter.real, result.counter.pseudo) == counts


def test_k_beyond_n_shares_the_clamped_cache_entry(index):
    """k >= n is clamped to n before the cache key is made: a k=n query
    after a k=n+5 query (and the other way round) is a cache hit."""
    n = index.relation.n
    rng = np.random.default_rng(31)
    for engine in engines(index, 16):
        first, second = rng.dirichlet(np.ones(3), size=2)
        computed = engine.query(first, n + 5)
        hit = engine.query(first, n)
        assert hit.cost == 0 and _answer(hit) == _answer(computed)
        computed = engine.query_batch(second[None, :], [n])[0]
        hit = engine.query_many([(second, np.int64(10 * n))])[0]
        assert hit.cost == 0 and _answer(hit) == _answer(computed)
        assert engine.cache.stats()["entries"] == 2


def test_k_beyond_the_built_layers_raises_capacity_error():
    """An incomplete structure (``max_layers`` below k) refuses k beyond
    its layers on every entry point of both engines."""
    relation = generate("IND", 300, 3, seed=72)
    partial = DLPlusIndex(relation, max_layers=4).build()
    assert not partial.structure.complete
    w = np.array([0.2, 0.3, 0.5])
    for engine in (
        QueryEngine(partial, cache_size=8),
        ClusterEngine(relation, shards=2, cache_size=8, index_kwargs={"max_layers": 4}),
    ):
        assert len(engine.query(w, 4).ids) == 4
        for call in (
            lambda: engine.query(w, 5),
            lambda: engine.query_batch(w[None, :], np.int64(5)),
            lambda: engine.query_batch(np.stack([w, w[::-1]]), [4, 5]),
            lambda: engine.query_many([(w, 5.0)]),
        ):
            with pytest.raises(IndexCapacityError):
                call()


@pytest.mark.parametrize("kind", ["engine", "cluster"])
def test_cached_answer_is_the_loops_hit(index, kind):
    """``cached_answer`` finds what the loop cached (k clamped to n like
    the loop's keys), returns it as ``query`` would and counts it once as
    a non-batched hit; a miss, a moved version or a disabled cache
    return ``None`` and count nothing."""
    engine = dict(zip(("engine", "cluster"), engines(index, 16)))[kind]
    w = np.array([2.0, 1.0, 1.0])
    assert engine.cached_answer(w, 4) is None  # empty cache
    assert engine.stats()["queries"] == 0.0 and engine.cache.misses == 0
    expected = engine.query(w, 10_000)  # k past n: keyed at n
    hit = engine.cached_answer(w, 5_000)
    assert hit.ids.tobytes() == expected.ids.tobytes()
    assert hit.scores.tobytes() == expected.scores.tobytes()
    assert hit.cost == 0
    assert type(hit) is type(engine.query(w, 10_000))
    stats = engine.stats()
    assert stats["queries"] == 3.0 and stats["cache_hits"] == 2.0
    assert stats["batched_queries"] == 0.0
    assert engine.cache.hits == 2 and engine.cache.misses == 1
    engine._seen_version -= 1  # as if a write landed since the last call
    assert engine.cached_answer(w, 5_000) is None
    assert engine.cache.hits == 2
    off = dict(zip(("engine", "cluster"), engines(index, 0)))[kind]
    off.query(w, 4)
    assert off.cached_answer(w, 4) is None
    assert off.stats()["queries"] == 1.0
