"""Absorbed cluster writes: after every insert and delete, absorbed or
rebuilt, the cluster answers bitwise like one whose shards were built from
scratch on their live rows — ids, score bytes and Definition-9 counts —
and its cache survives exactly the absorbed writes."""

import contextlib
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterEngine, FailingShard
from repro.cluster.shard import Shard
from repro.core import DLIndex, DLPlusIndex, dispatch
from repro.core.query import score_rows
from repro.relation import Relation, normalize_weights
from tests.conftest import python_kernels

LAYERS = 3
N0 = 60  # a multiple of every shard count below: id N0 routes to shard 0
#: Dispatch thresholds that send this file's one-row d=2 shard groups to
#: each python kernel with the native build masked (reference by default).
PYTHON_ROUTES = {
    "reference": {},
    "csr": {"AUTO_SMALL_STRUCTURE_NODES": 0},
    "batch": {"AUTO_BATCH_MIN_LANES": 1},
}
#: Raw pool weights; (1, 3) scores a tuple one ulp above (0.3, 0.3) the
#: same as (0.3, 0.3) itself, so a bumped chain end ties the cached k-th.
POOL = np.array([[1.0, 3.0], [1.0, 1.0], [5.0, 1.0], [2.0, 7.0]])

CONFIGS = {
    "dl-roundrobin-threshold": dict(
        index_class=DLIndex, partitioner="round-robin", shards=3
    ),
    "dlplus-angular-naive": dict(
        index_class=DLPlusIndex, partitioner="angular", shards=2, merge="naive"
    ),
    "dlplus-roundrobin-csr": dict(
        index_class=DLPlusIndex, partitioner="round-robin", shards=2,
        merge="naive", kernel="csr",
    ),
    "dl-angular-reference": dict(
        index_class=DLIndex, partitioner="angular", shards=3,
        merge="naive", kernel="reference",
    ),
    "dlplus-roundrobin-batch": dict(
        index_class=DLPlusIndex, partitioner="round-robin", shards=2,
        merge="naive", kernel="batch",
    ),
    "dlplus-roundrobin-failover": dict(
        index_class=DLPlusIndex, partitioner="round-robin", shards=2,
        merge="naive", replicate=True,
    ),
    "dl-angular-snapshot": dict(
        index_class=DLIndex, partitioner="angular", shards=2, snapshot=True
    ),
}


@contextlib.contextmanager
def served_by(kernel):
    """Shard engines walk with ``kernel`` (a python one, reached through
    dispatch with the native build masked) or, for ``None``, with
    whatever dispatch picks on this host."""
    if kernel is None:
        yield
        return
    with python_kernels(), pytest.MonkeyPatch.context() as mp:
        for name, value in PYTHON_ROUTES[kernel].items():
            mp.setattr(dispatch, name, value)
        yield


def base_relation(shards: int) -> Relation:
    """Uniform rows in [0.4, 1]^2 plus a planted chain (0.1, 0.1) ≺
    (0.2, 0.2) ≺ (0.3, 0.3) at ids 0, s, 2s: under round-robin the chain
    is shard 0's first three layers and its last layer is (0.3, 0.3)."""
    rows = 0.4 + 0.6 * np.random.default_rng(17).random((N0, 2))
    for layer, value in enumerate([0.1, 0.2, 0.3]):
        rows[layer * shards] = value
    return Relation(rows)


def fresh_shard(shard) -> Shard:
    return Shard(
        shard.shard_id,
        shard.relation,
        shard.global_ids,
        index_class=shard.index_class,
        index_kwargs=shard.index_kwargs,
        engine_kwargs=shard.engine_kwargs,
    )


def owner_of(cluster, gid: int) -> int:
    return next(s.shard_id for s in cluster.shards if gid in s.global_ids)


def placements(shard) -> tuple[dict, bool]:
    """``({global id: coarse level}, complete)`` of a shard's structure."""
    structure = shard.engine.index.structure
    levels = np.asarray(structure.coarse_levels[: structure.n_real])
    placed = levels >= 0
    return (
        dict(zip(shard.built_ids[placed].tolist(), levels[placed].tolist())),
        bool(structure.complete),
    )


def last_layer_members(cluster, next_id: int, bump: bool) -> list[np.ndarray]:
    """Values of last-layer members (optionally bumped one ulp up in the
    first attribute) that route to the member's own shard as ``next_id``."""
    members = []
    for shard in cluster.shards:
        placed, _ = placements(shard)
        last = max(placed.values())
        for gid in sorted(g for g, level in placed.items() if level == last):
            pos = int(np.searchsorted(shard.global_ids, gid))
            values = shard.relation.matrix[pos].copy()
            if bump:
                values[0] = np.nextafter(values[0], np.inf)
            if cluster.partitioning.route(next_id, values) == shard.shard_id:
                members.append(values)
    return members


WRITES = st.one_of(
    st.tuples(st.just("insert"), st.integers(0, 16), st.integers(0, 16)),
    st.tuples(st.just("copy"), st.integers(0, 50)),
    st.tuples(st.just("bump"), st.integers(0, 50)),
    st.tuples(st.just("delete"), st.integers(0, 10**6)),
    st.tuples(st.just("delete-newest")),
)


def check_sweep(cluster, reference, failing, expect_hits, step):
    """Every pool weight at every k ≤ LAYERS: answers equal the rebuilt
    reference; ``expect_hits`` says whether each must come from the cache.
    A weight new at this step is computed at every k, so the shards'
    answers are walked (and their counts compared) after every write."""
    if failing is not None:
        failing.fail()
    fresh = np.array([1.0 + 0.37 * (step + 1), 1.0])
    try:
        for k in range(1, LAYERS + 1):
            for i, w in enumerate([*POOL, fresh]):
                got, ref = cluster.query(w, k), reference.query(w, k)
                assert got.ids.tobytes() == ref.ids.tobytes()
                assert got.scores.tobytes() == ref.scores.tobytes()
                if i == len(POOL):
                    assert got.merge != "cache"
                elif expect_hits is not None:
                    assert (got.merge == "cache") == expect_hits
                if got.merge != "cache":
                    assert (got.counter.real, got.counter.pseudo) == (
                        ref.counter.real,
                        ref.counter.pseudo,
                    )
                    assert got.shard_costs == ref.shard_costs
                    assert got.recovered_shards == ((0,) if failing else ())
    finally:
        if failing is not None:
            failing.restore()


@pytest.mark.parametrize("config", sorted(CONFIGS))
@settings(max_examples=20, deadline=None)
@given(writes=st.lists(WRITES, min_size=1, max_size=6))
@example(writes=[("copy", 0)])  # equal to a last-layer member: visible
@example(writes=[("bump", 0)])  # absorbed, ties the cached k-th, loses
@example(writes=[("bump", 0), ("delete-newest",)])  # delete of an absorbed insert
@example(writes=[("delete", 0)])  # delete of a placed tuple: visible
def test_every_write_matches_a_rebuilt_cluster(config, writes):
    options = dict(CONFIGS[config])
    snapshot = options.pop("snapshot", False)
    replicate = options.pop("replicate", False)
    kernel = options.pop("kernel", None)
    options["index_kwargs"] = {"max_layers": LAYERS}
    relation = base_relation(options["shards"])
    with served_by(kernel), tempfile.TemporaryDirectory() as tmp:
        cluster = ClusterEngine(
            relation,
            cache_size=64,
            replicate=replicate,
            snapshot_dir=tmp if snapshot else None,
            **options,
        )
        failing = None
        if replicate:
            failing = cluster.shards[0] = FailingShard(cluster.shards[0])
        reference = ClusterEngine(relation, cache_size=0, **options)
        check_sweep(cluster, reference, failing, None, step=0)
        live = list(range(N0))
        inserted: list[int] = []
        next_id = N0
        applied = 0
        for kind, *args in writes:
            if kind == "delete" or (kind == "delete-newest" and not inserted):
                gid = live[args[0] % len(live)] if args else live[-1]
                owner = owner_of(cluster, gid)
            elif kind == "delete-newest":
                gid = inserted[-1]
                owner = owner_of(cluster, gid)
            else:
                if kind == "insert":
                    values = np.array(args, dtype=np.float64) / 16
                else:
                    members = last_layer_members(cluster, next_id, kind == "bump")
                    if not members:
                        continue
                    values = members[args[0] % len(members)]
                owner = cluster.partitioning.route(next_id, values)
            before = placements(reference.shards[owner])
            absorbed_before = cluster.writes_absorbed
            version = cluster.version
            if kind.startswith("delete"):
                cluster.delete(gid)
                live.remove(gid)
                if gid in inserted:
                    inserted.remove(gid)
            else:
                assert cluster.insert(values) == next_id
                live.append(next_id)
                inserted.append(next_id)
                next_id += 1
            applied += 1
            assert cluster.version == version + 1
            absorbed = cluster.writes_absorbed == absorbed_before + 1
            reference.shards[owner] = fresh_shard(cluster.shards[owner])
            # The exact rule: a write is absorbed iff rebuilding the shard
            # leaves its placements and completeness as they were.
            assert absorbed == (placements(reference.shards[owner]) == before)
            if kind == "copy":
                assert not absorbed
            check_sweep(cluster, reference, failing, absorbed, step=applied)
        stats = cluster.stats()
        assert stats["writes_absorbed"] + stats["shard_rebuilds"] == applied
        if kernel is not None:
            # Every shard walked the last sweep's fresh weight, all with
            # the kernel this config routes to.
            for shard in cluster.shards:
                counts = shard.engine.stats()
                assert counts[f"kernel_{kernel}"] > 0
                assert sum(
                    counts.get(f"kernel_{name}", 0.0)
                    for name in ("native", "csr", "reference", "batch")
                ) == counts[f"kernel_{kernel}"]


def test_bumped_chain_end_ties_the_cached_kth_and_loses():
    """The pinned tie, spelled out: (0.3+ulp, 0.3) is dominated by the
    chain end, is absorbed, scores exactly the cached k-th score under
    (1, 3), and loses the tie on id, so the cached answer stands."""
    relation = base_relation(2)
    options = dict(shards=2, index_kwargs={"max_layers": LAYERS})
    cluster = ClusterEngine(relation, cache_size=16, **options)
    cached = cluster.query(POOL[0], LAYERS)
    assert cached.ids.tolist() == [0, 2, 4]
    values = np.array([np.nextafter(0.3, 1.0), 0.3])
    cluster.insert(values)
    assert cluster.writes_absorbed == 1
    w = normalize_weights(POOL[0], 2)
    tied = score_rows(np.vstack([values, [0.3, 0.3]]), np.arange(2), w)
    assert tied[0] == tied[1] == cached.scores[-1]
    hit = cluster.query(POOL[0], LAYERS)
    assert hit.merge == "cache"
    rebuilt = ClusterEngine(relation, cache_size=0, **options)
    rebuilt.shards[0] = fresh_shard(cluster.shards[0])
    ref = rebuilt.query(POOL[0], LAYERS)
    assert hit.ids.tobytes() == ref.ids.tobytes()
    assert hit.scores.tobytes() == ref.scores.tobytes()
