"""The engine's one serving path: vectorised front half, result isolation,
and the pinned ``stats()`` schema.

``QueryEngine.query`` is a one-row pass through the path ``query_batch``
takes, so these properties hold for both entry points:

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

from repro.core import DLPlusIndex
from repro.core.native import native_ready
from repro.data import generate
from repro.exceptions import InvalidWeightError
from repro.relation import normalize_weights
from repro.serving import QueryEngine
from repro.serving.cache import ResultCache
from repro.serving.engine import normalize_rows


@pytest.fixture(scope="module")
def index():
    return DLPlusIndex(generate("IND", 300, 3, seed=71)).build()


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
    functions byte for byte, whatever each row's scale."""
    d = matrix.shape[1]
    normalized = normalize_rows(matrix, d)
    cache = ResultCache(8)
    keys = cache.make_keys(normalized, np.full(matrix.shape[0], 5), 3)
    for row, key, got in zip(matrix, keys, normalized):
        expected = normalize_weights(row, d)
        assert got.tobytes() == expected.tobytes()
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
    engine = QueryEngine(index, cache_size=32)
    matrix = np.random.default_rng(3).dirichlet(np.ones(3), size=7)
    matrix[position, 1] = bad
    matrix[6, 0] = -1.0  # a later bad row must not win
    expected = _row_by_row_error(matrix, 3)
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
    engine = QueryEngine(index, cache_size=32)
    good = np.full((4, 3), 1 / 3)
    cases = [
        (np.full((4, 2), 0.5), lambda m: _row_by_row_error(m, 3)),
        (np.full((4, 4), 0.25), lambda m: _row_by_row_error(m, 3)),
        (np.ones((2, 2, 3)), None),
    ]
    for matrix, expected in cases:
        with pytest.raises(InvalidWeightError) as info:
            engine.query_batch(matrix, 4)
        if expected is None:
            assert str(info.value) == "weight matrix must be 2-D, got shape (2, 2, 3)"
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


@pytest.mark.parametrize("cache_size", [0, 64])
def test_answers_are_isolated_from_later_calls_and_caller_mutation(
    index, cache_size
):
    """Batch i's answers survive batch i+1, a solo query on the same
    workspace, and the caller scribbling over returned arrays — no answer
    aliases a reused output buffer or a cache entry."""
    engine = QueryEngine(index, cache_size=cache_size)
    rng = np.random.default_rng(5)
    first_weights = rng.dirichlet(np.ones(3), size=12)
    first = engine.query_batch(first_weights, 9)
    snapshot = [(r.ids.tobytes(), r.scores.tobytes()) for r in first]
    engine.query_batch(rng.dirichlet(np.ones(3), size=12), 9)
    engine.query(rng.dirichlet(np.ones(3)), 9)
    assert [(r.ids.tobytes(), r.scores.tobytes()) for r in first] == snapshot
    # Scribble over every returned array, then ask again: the cache (or a
    # recomputation) still answers the original bytes, and the sibling
    # rows handed out earlier are untouched.
    for result in first[:6]:
        result.ids[:] = -1
        result.scores[:] = np.nan
    assert [(r.ids.tobytes(), r.scores.tobytes()) for r in first[6:]] == snapshot[6:]
    again = engine.query_batch(first_weights, 9)
    assert [(r.ids.tobytes(), r.scores.tobytes()) for r in again] == snapshot
    solo = engine.query(first_weights[0], 9)
    solo.ids[:] = -1
    assert engine.query(first_weights[0], 9).ids.tobytes() == snapshot[0][0]


#: Every key ``QueryEngine.stats()`` reports, besides the per-kernel
#: ``kernel_<name>`` counters and the ``batch_size_hist_<bucket>``
#: histogram (which appear once their first count lands).  The cache's
#: own ``cache_hits``/``cache_misses`` replace the registry's keys of the
#: same name.
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


def test_stats_key_set_and_counters_are_pinned(index):
    """A fixed query / query_batch sequence yields exactly these keys and
    counter values (DESIGN.md §3b documents each)."""
    engine = QueryEngine(index, cache_size=64)
    rng = np.random.default_rng(9)
    w = rng.dirichlet(np.ones(3), size=6)
    costs = [engine.query(w[0], 5).cost]  # miss: one solo walk
    costs.append(engine.query(w[0], 5).cost)  # hit
    batch = engine.query_batch(np.stack([w[1], w[2], w[1], w[3]]), 5)
    costs += [r.cost for r in batch]  # w[1] twice: computed, then a hit
    mixed = engine.query_batch(w[4:6], [3, 7])  # two k-groups of one row
    costs += [r.cost for r in mixed]

    stats = engine.stats()
    native = native_ready()
    kernel = "kernel_native" if native else "kernel_csr"
    assert set(stats) == STATS_KEYS | {
        kernel, "batch_size_hist_1", "batch_size_hist_2",
    }
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
        kernel: 6.0,  # per computed lane
        # One native checkout per FFI crossing: the solo walk, the
        # three-lane group, and the two one-row groups.
        "native_workspace_checkouts": 4.0 if native else 0.0,
        "native_workspace_fallbacks": 0.0,
        "workspace_checkouts": 0.0 if native else 6.0,
        "workspace_fallbacks": 0.0,
        "native_fallback": 0.0 if native else 1.0,
    }
    assert {key: stats[key] for key in expected} == expected
    assert stats["native_built"] + stats["native_cached"] == (1.0 if native else 0.0)
    assert stats["latency_ms_p50"] > 0.0 and stats["batch_amortized_ms_p50"] > 0.0
