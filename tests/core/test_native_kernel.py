"""Native compiled walk kernel: bitwise equivalence + fallback ladder.

Three concerns, matching the kernel's contract:

* **Bitwise identity** — across correlation families, dimensionalities,
  DL/DL+ structures, and shared or private buffers, the C walk must
  return the same answer *bytes* and the same Definition-9 real/pseudo
  counts as the python kernels (which are themselves pinned to the
  per-node reference oracle), both one query at a time and for a whole
  group of lanes in one ``repro_walk_many`` crossing.
* **Fallback ladder** — on a host without a compiler (or with a broken
  build), the engines must silently serve via the python kernels with
  exactly one logged warning, while ``get_jit_kernel()`` raises
  :class:`~repro.exceptions.KernelUnavailableError`.
* **Cache lifecycle** — the ``.so`` cache key is version+source keyed:
  a version bump must land in a fresh directory and trigger a rebuild.
"""

import copy
import threading

import numpy as np
import pytest

from repro.core import DLIndex, DLPlusIndex, dispatch
from repro.core.query import process_top_k, process_top_k_reference
from repro.data import generate
from repro.exceptions import KernelUnavailableError
from repro.relation import Relation, normalize_weights
from repro.serving import QueryEngine
from repro.stats import AccessCounter
from tests.conftest import python_kernels

native = pytest.importorskip("repro.core.native")
from repro.core.native import (  # noqa: E402
    NATIVE_MAX_DIM,
    NativeWorkspace,
    build_info,
    native_ready,
    native_supported,
    native_walk_lanes,
)
from repro.core.native import build as native_build  # noqa: E402
from repro.core.native import kernel as native_kernel_mod  # noqa: E402

requires_native = pytest.mark.skipif(
    not native_ready(), reason="native kernel not buildable on this host"
)
# A test that compiles afresh needs a compiler it can invoke; a loadable
# cached library is not enough.
requires_compiler = pytest.mark.skipif(
    native_build.find_compiler() is None, reason="no C compiler on this host"
)


def _weights(d: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return normalize_weights(rng.dirichlet(np.ones(d)), d)


def native_top_k(structure, weights, k, counter, workspace=None):
    """One lane of :func:`native_walk_lanes` in the ``process_top_k``
    shape: ``(ids, scores)``, with the counts added to ``counter``."""
    [(ids, scores, real, pseudo)] = native_walk_lanes(
        structure, np.asarray(weights)[None, :], k, workspace=workspace
    )
    counter.count_real(real)
    counter.count_pseudo(pseudo)
    return ids, scores


@requires_native
@pytest.mark.parametrize("family", ["IND", "ANT", "COR"])
@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("index_cls", [DLIndex, DLPlusIndex])
@pytest.mark.parametrize("shared_workspace", [False, True])
def test_bitwise_identity_grid(family, d, index_cls, shared_workspace):
    """ids bytes, score bytes, and real/pseudo counts match the python
    CSR kernel and the per-node reference oracle exactly, across the
    full family x d x index grid, on private buffers and on one
    workspace reused by every query."""
    relation = generate(family, 500, d, seed=7 + d)
    structure = index_cls(relation).build().structure
    ws = NativeWorkspace() if shared_workspace else None
    for qi, k in enumerate((1, 5, 23)):
        w = _weights(d, 100 * d + qi)
        nat_counter = AccessCounter()
        nat_ids, nat_scores = native_top_k(
            structure, w, k, nat_counter, workspace=ws
        )
        for kernel in (process_top_k, process_top_k_reference):
            py_counter = AccessCounter()
            py_ids, py_scores = kernel(structure, w, k, py_counter)
            assert nat_ids.tobytes() == py_ids.tobytes()
            assert nat_scores.tobytes() == py_scores.tobytes()
            assert nat_counter.real == py_counter.real
            assert nat_counter.pseudo == py_counter.pseudo
    if shared_workspace:
        assert ws.checkouts == 3


_STRUCTURES: dict = {}


def _structure(family: str, d: int, index_cls):
    """Built structures shared across the many-lane grid's workspace cells."""
    key = (family, d, index_cls)
    if key not in _STRUCTURES:
        relation = generate(family, 200, d, seed=60 + d)
        _STRUCTURES[key] = index_cls(relation).build().structure
    return _STRUCTURES[key]


def assert_many_lanes_match(structure, weights, ks, workspace=None):
    """One ``native_walk_lanes`` call vs per-lane reference walks:
    byte-equal ids and scores, and exact real/pseudo counts."""
    weights = np.asarray(weights, dtype=np.float64)
    lanes = native_walk_lanes(structure, weights, ks, workspace=workspace)
    ks = np.broadcast_to(np.asarray(ks), (weights.shape[0],))
    assert len(lanes) == weights.shape[0]
    for lane, (w, k) in enumerate(zip(weights, ks.tolist())):
        ids, scores, real, pseudo = lanes[lane]
        ref_counter = AccessCounter()
        ref_ids, ref_scores = process_top_k_reference(structure, w, k, ref_counter)
        assert ids.tobytes() == ref_ids.tobytes(), f"lane {lane} ids"
        assert scores.tobytes() == ref_scores.tobytes(), f"lane {lane}"
        assert (real, pseudo) == (ref_counter.real, ref_counter.pseudo), (
            f"lane {lane} Definition-9 counts"
        )


@requires_native
@pytest.mark.parametrize("family", ["IND", "ANT", "COR"])
@pytest.mark.parametrize("d", range(1, NATIVE_MAX_DIM + 1))
@pytest.mark.parametrize("index_cls", [DLIndex, DLPlusIndex], ids=["DL", "DL+"])
@pytest.mark.parametrize("shared", [False, True], ids=["plain", "shared"])
def test_walk_many_bitwise_grid(family, d, index_cls, shared):
    """``repro_walk_many`` over IND/ANT/COR x d=1..7 x DL/DL+: every lane
    of one crossing equals its own reference walk (DL+ at d=2 walks from
    per-lane weight-range selector seeds).  The lanes mix k (k >= n
    included) and repeat a row; "plain" walks on private buffers,
    "shared" reuses one workspace across calls."""
    structure = _structure(family, d, index_cls)
    if d == 2 and index_cls is DLPlusIndex:
        assert structure.seed_selector is not None
    rng = np.random.default_rng(1000 * d + len(family))
    weights = rng.dirichlet(np.ones(d), size=8)
    weights[5] = weights[1]  # duplicate lane
    ks = [1, 5, 23, structure.n_real + 7, 5, 1, 64, structure.n_real]
    workspace = NativeWorkspace() if shared else None
    for _ in range(2):
        assert_many_lanes_match(structure, weights, ks, workspace)
    if shared:
        assert workspace.checkouts == 2  # one checkout per crossing


@requires_native
@pytest.mark.parametrize("shared", [False, True], ids=["plain", "shared"])
def test_walk_many_tied_duplicate_tuples(shared):
    """Exact duplicate tuples score identically: every lane must break the
    (score, id) ties exactly as its reference walk does."""
    rng = np.random.default_rng(77)
    base = rng.random((80, 3))
    relation = Relation(np.vstack([base, base[:30], base[:10]]), check_domain=False)
    for index_cls in (DLIndex, DLPlusIndex):
        structure = index_cls(relation).build().structure
        weights = rng.dirichlet(np.ones(3), size=6)
        weights[4] = weights[0]
        workspace = NativeWorkspace() if shared else None
        assert_many_lanes_match(structure, weights, 40, workspace)


@requires_native
@pytest.mark.parametrize("n_lanes", [1, 257])
def test_walk_many_widths(n_lanes):
    """One lane and 257 lanes (wider than any power-of-two bucket the
    engine sees) walk bitwise like their reference walks."""
    structure = _structure("ANT", 3, DLPlusIndex)
    weights = np.random.default_rng(n_lanes).dirichlet(np.ones(3), size=n_lanes)
    assert_many_lanes_match(structure, weights, 9)


@requires_native
def test_walk_many_rejects_malformed_calls():
    """Shapes the C side would misread are refused in python — including
    a selector seed outside ``[0, n_nodes)`` — and d=8, outside the
    bitwise contract, routes to the python kernels: a ``query_batch``
    group to batch and a solo query to csr."""
    structure = _structure("IND", 3, DLIndex)
    w = np.full((2, 3), 1 / 3)
    with pytest.raises(ValueError):
        native_walk_lanes(structure, w[:, :2], 5)  # wrong width
    with pytest.raises(ValueError):
        native_walk_lanes(structure, w, [5, 5, 5])  # one k per lane
    stray = copy.copy(structure)
    stray.seed_selector = lambda weights: np.array([0, 10**6])
    with pytest.raises(ValueError, match="seed ids"):
        native_walk_lanes(stray, w, 5)
    d = NATIVE_MAX_DIM + 1
    index = DLIndex(generate("IND", 150, d, seed=21)).build()
    with pytest.raises(ValueError):
        native_walk_lanes(index.structure, np.full((1, d), 1 / d), 5)
    assert dispatch.select_kernel(index.structure) == "csr"
    engine = QueryEngine(index, cache_size=0)
    engine.query_batch(np.random.default_rng(8).dirichlet(np.ones(d), size=16), 5)
    engine.query(np.full(d, 1 / d), 5)
    stats = engine.stats()
    assert (stats["kernel_batch"], stats["kernel_csr"]) == (16.0, 1.0)
    assert stats.get("kernel_native", 0.0) == 0.0


@requires_native
def test_full_k_and_overask_match():
    """k == n_real and k > n_real are served bitwise like the python
    kernel (answer capped at the real population)."""
    relation = generate("IND", 200, 3, seed=11)
    structure = DLPlusIndex(relation).build().structure
    w = _weights(3, 42)
    for k in (200, 500):
        c_py, c_nat = AccessCounter(), AccessCounter()
        py = process_top_k(structure, w, k, c_py)
        nat = native_top_k(structure, w, k, c_nat)
        assert nat[0].tobytes() == py[0].tobytes()
        assert nat[1].tobytes() == py[1].tobytes()
        assert (c_nat.real, c_nat.pseudo) == (c_py.real, c_py.pseudo)


@requires_native
def test_workspace_checkout_reuse_and_rebuild_invalidation():
    """Sequential queries share one prepared buffer set; a rebuilt
    structure (new gate-state template identity) transparently re-primes,
    and results stay bitwise right after the swap."""
    relation = generate("COR", 300, 3, seed=5)
    index = DLPlusIndex(relation).build()
    ws = NativeWorkspace()
    w = _weights(3, 9)
    for _ in range(4):
        native_top_k(index.structure, w, 10, AccessCounter(), workspace=ws)
    assert ws.checkouts == 4
    assert ws.fallbacks == 0
    prepared_before = ws._prepared
    index = DLPlusIndex(generate("COR", 300, 3, seed=6)).build()
    c_nat, c_py = AccessCounter(), AccessCounter()
    nat = native_top_k(index.structure, w, 10, c_nat, workspace=ws)
    py = process_top_k(index.structure, w, 10, c_py)
    assert ws._prepared is not prepared_before
    assert nat[0].tobytes() == py[0].tobytes()
    assert nat[1].tobytes() == py[1].tobytes()


@requires_native
def test_workspace_contention_falls_back_to_private_buffers():
    """A busy workspace is never waited on: the query allocates private
    buffers, counts a fallback, and still answers bitwise."""
    relation = generate("IND", 300, 3, seed=8)
    structure = DLPlusIndex(relation).build().structure
    ws = NativeWorkspace()
    w = _weights(3, 13)
    expected = process_top_k(structure, w, 5, AccessCounter())
    assert ws._lock.acquire(blocking=False)
    try:
        got = native_top_k(structure, w, 5, AccessCounter(), workspace=ws)
    finally:
        ws._lock.release()
    assert ws.fallbacks == 1
    assert ws.checkouts == 0
    assert got[0].tobytes() == expected[0].tobytes()
    assert got[1].tobytes() == expected[1].tobytes()


@requires_native
def test_concurrent_native_queries_bitwise():
    """Hammer one workspace from several threads: every answer must be
    bitwise identical to the solo python kernel."""
    relation = generate("ANT", 400, 3, seed=15)
    structure = DLPlusIndex(relation).build().structure
    ws = NativeWorkspace()
    queries = [_weights(3, 200 + i) for i in range(12)]
    expected = [
        process_top_k(structure, w, 8, AccessCounter()) for w in queries
    ]
    results: list = [None] * len(queries)

    def worker(i: int) -> None:
        results[i] = native_top_k(
            structure, queries[i], 8, AccessCounter(), workspace=ws
        )

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(queries))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for got, exp in zip(results, expected):
        assert got[0].tobytes() == exp[0].tobytes()
        assert got[1].tobytes() == exp[1].tobytes()
    assert ws.checkouts + ws.fallbacks == len(queries)


def test_high_dimension_delegates_to_python():
    """d > NATIVE_MAX_DIM is outside the bitwise contract (einsum changes
    its reduction tree at d=8): dispatch must hand it to the python
    kernels, not guess, and the engine answers bitwise like csr."""
    d = NATIVE_MAX_DIM + 1
    relation = generate("IND", 150, d, seed=21)
    index = DLIndex(relation).build()
    assert not native_supported(index.structure)
    assert dispatch.select_kernel(index.structure) == "csr"
    w = _weights(d, 3)
    c_py = AccessCounter()
    py = process_top_k(index.structure, w, 5, c_py)
    engine = QueryEngine(index, cache_size=0)
    got = engine.query(w, 5)
    assert got.ids.tobytes() == py[0].tobytes()
    assert got.scores.tobytes() == py[1].tobytes()
    assert (got.counter.real, got.counter.pseudo) == (c_py.real, c_py.pseudo)
    assert engine.stats()["kernel_csr"] == 1.0


def test_no_compiler_fallback_matrix(
    isolated_native_state, monkeypatch, tmp_path, caplog
):
    """Compiler-less host: dispatch never selects native, the engine
    serves correct answers via the python kernels with exactly one
    warning; get_jit_kernel raises KernelUnavailableError naming the
    remedy."""
    monkeypatch.setenv("REPRO_NATIVE_CC", "none")
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path / "cache"))
    with caplog.at_level("WARNING", logger="repro.core.native.kernel"):
        assert native_kernel_mod.native_ready(warn=True) is False
        assert native_kernel_mod.native_ready(warn=True) is False
    warnings = [r for r in caplog.records if "native walk kernel" in r.message]
    assert len(warnings) == 1  # warned once, then silent
    info = native_kernel_mod.build_info()
    assert info["status"] == "failed"
    assert "no C compiler" in info["detail"]
    # dispatch: never native, python crossovers intact
    assert dispatch.select_kernel(n_nodes=10**6, d=4) == "csr"
    assert dispatch.select_kernel(n_nodes=1000, d=2) == "reference"
    # a direct request for the compiled walker: actionable error
    with pytest.raises(KernelUnavailableError, match="no compiled walk kernel"):
        dispatch.get_jit_kernel()
    # end-to-end: an engine still answers correctly
    relation = generate("IND", 300, 3, seed=40)
    index = DLPlusIndex(relation).build()
    engine = QueryEngine(index, cache_size=0)
    w = np.array([0.2, 0.5, 0.3])
    result = engine.query(w, 5)
    expected = process_top_k(
        index.structure, normalize_weights(w, 3), 5, AccessCounter()
    )
    assert result.ids.tobytes() == expected[0].tobytes()
    assert result.scores.tobytes() == expected[1].tobytes()
    stats = engine.stats()
    assert stats["native_fallback"] == 1.0
    assert stats["native_built"] == 0.0 and stats["native_cached"] == 0.0
    assert stats.get("kernel_native", 0.0) == 0.0
    assert stats["kernel_csr"] == 1.0


def test_build_failure_fallback(broken_native_build):
    """A compile that *fails* (not just a missing compiler) walks the
    same ladder: dispatch falls back, get_jit_kernel raises, status is
    failed."""
    assert native_kernel_mod.native_ready() is False
    assert not dispatch.native_kernel_usable(1000, 4)
    assert dispatch.select_kernel(n_nodes=10**6, d=4) == "csr"
    with pytest.raises(KernelUnavailableError):
        dispatch.get_jit_kernel()
    assert native_kernel_mod.build_info()["status"] == "failed"
    assert "simulated compile explosion" in native_kernel_mod.build_info()["detail"]


@requires_compiler
def test_version_bump_invalidates_cached_library(monkeypatch, tmp_path):
    """The cache key embeds NATIVE_KERNEL_VERSION: bumping it must land
    in a fresh directory and recompile rather than reuse the stale .so."""
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
    path1, cached1 = native_build.build_library()
    assert cached1 is False  # fresh cache dir -> compiled
    path1_again, cached2 = native_build.build_library()
    assert path1_again == path1
    assert cached2 is True  # second call reuses the artifact
    monkeypatch.setattr(
        native_build,
        "NATIVE_KERNEL_VERSION",
        native_build.NATIVE_KERNEL_VERSION + 1,
    )
    path2, cached3 = native_build.build_library()
    assert cached3 is False  # version bump -> new key -> rebuild
    assert path2 != path1
    assert path1.exists() and path2.exists()
    assert f"v{native_build.NATIVE_KERNEL_VERSION}-" in path2.parent.name


@requires_native
def test_engine_native_end_to_end_and_kernel_counters():
    """An engine on a native host answers bitwise like the reference
    kernel, solo and batched, and the dispatch counters attribute each
    row to its kernel: native here, csr and batch on the same engine
    shape with the build masked."""
    relation = generate("COR", 400, 3, seed=17)
    index = DLPlusIndex(relation).build()
    native_engine = QueryEngine(index, cache_size=0)
    solo = [np.asarray(_weights(3, 300 + i)) for i in range(3)]
    ws = np.stack([np.asarray(_weights(3, 400 + i)) for i in range(8)])
    got = [native_engine.query(w, 7) for w in solo]
    got += native_engine.query_batch(ws, 7)
    for w, result in zip([*solo, *ws], got):
        counter = AccessCounter()
        ids, scores = process_top_k_reference(
            index.structure, normalize_weights(w, 3), 7, counter
        )
        assert result.ids.tobytes() == ids.tobytes()
        assert result.scores.tobytes() == scores.tobytes()
        assert (result.counter.real, result.counter.pseudo) == (
            counter.real,
            counter.pseudo,
        )
    stats = native_engine.stats()
    assert stats["kernel_native"] == 11.0
    assert stats["native_built"] + stats["native_cached"] == 1.0
    assert stats["native_fallback"] == 0.0
    # one crossing per solo query and one for the 8-row group
    assert stats["native_workspace_checkouts"] == 4.0
    with python_kernels():
        python_engine = QueryEngine(index, cache_size=0)
        for w, expected in zip(solo, got):
            again = python_engine.query(w, 7)
            assert again.ids.tobytes() == expected.ids.tobytes()
            assert again.scores.tobytes() == expected.scores.tobytes()
        python_engine.query_batch(ws, 7)
    python_stats = python_engine.stats()
    assert python_stats["kernel_csr"] == 3.0
    assert python_stats["kernel_batch"] == 8.0
    assert python_stats.get("kernel_native", 0.0) == 0.0
    # aggregate rolls the per-kernel counters up across registries
    merged = type(native_engine.metrics).aggregate(
        [native_engine.metrics, python_engine.metrics]
    )
    assert merged["kernel_native"] == 11.0
    assert merged["kernel_csr"] == 3.0
    assert merged["kernel_batch"] == 8.0


@requires_native
def test_cluster_engine_accepts_native_kernel():
    """Every shard engine of a naive-merge cluster walks natively where
    the C walker loads, and the cluster answers bitwise like one whose
    shards serve through the python kernels.  (The threshold merge walks
    shard cursors, not the shard engines.)"""
    from repro.cluster import ClusterEngine

    relation = generate("IND", 600, 3, seed=25)
    native_cluster = ClusterEngine(relation, shards=2, merge="naive")
    with python_kernels():
        python_cluster = ClusterEngine(relation, shards=2, merge="naive")
        expected = [
            python_cluster.query(np.asarray(_weights(3, 500 + i)), 7)
            for i in range(3)
        ]
    for i, exp in enumerate(expected):
        got = native_cluster.query(np.asarray(_weights(3, 500 + i)), 7)
        np.testing.assert_array_equal(got.ids, exp.ids)
        assert got.scores.tobytes() == exp.scores.tobytes()
        assert got.shard_costs == exp.shard_costs
    for shard in native_cluster.shards:
        stats = shard.engine.stats()
        assert stats["kernel_native"] > 0
        assert stats.get("kernel_csr", 0.0) == 0.0
    for shard in python_cluster.shards:
        assert shard.engine.stats().get("kernel_native", 0.0) == 0.0


@requires_native
def test_auto_engine_prefers_native_and_build_info_is_sane():
    """With a toolchain present, an auto engine's solo queries land on
    the native kernel and build_info reports a loadable artifact."""
    relation = generate("IND", 300, 3, seed=19)
    index = DLPlusIndex(relation).build()
    engine = QueryEngine(index, cache_size=0)
    engine.query(np.array([0.3, 0.4, 0.3]), 5)
    assert engine.stats().get("kernel_native", 0.0) == 1.0
    info = build_info()
    assert info["status"] in ("built", "cached")
    assert info["path"].endswith((".so", ".dll"))


@requires_native
def test_native_holds_its_speedup_floor_over_csr():
    """The compiled walk must keep paying for itself: on IND d=4 n=10k
    at k=10, csr's median latency (best of 3 per query, warm
    workspaces on both sides) is at least 1.3x native's."""
    import time

    from repro.core.query import QueryWorkspace

    structure = DLPlusIndex(
        generate("IND", 10_000, 4, seed=20120401), max_layers=10
    ).build().structure
    queries = [_weights(4, 900 + i) for i in range(32)]
    csr_workspace, native_workspace = QueryWorkspace(), NativeWorkspace()

    def csr(w):
        return process_top_k(
            structure, w, 10, AccessCounter(), workspace=csr_workspace
        )

    def nat(w):
        return native_top_k(
            structure, w, 10, AccessCounter(), workspace=native_workspace
        )

    def median_ms(kernel):
        kernel(queries[0])  # warm the workspace and the seed block
        best = []
        for w in queries:
            runs = []
            for _ in range(3):
                start = time.perf_counter()
                kernel(w)
                runs.append(time.perf_counter() - start)
            best.append(min(runs))
        return 1e3 * float(np.median(best))

    ratio = median_ms(csr) / median_ms(nat)
    assert ratio >= 1.3, f"native only {ratio:.2f}x over csr"
