"""ClusterEngine: bitwise equality with a single node, cost dominance,
failover, caching, and routed maintenance — the PR's acceptance suite."""

import logging

import numpy as np
import pytest

from repro.cluster import ClusterEngine, FailingShard
from repro.core import DLPlusIndex
from repro.data import generate
from repro.exceptions import InvalidQueryError
from repro.relation import Relation, random_weight_vector
from repro.serving import QueryEngine


def single_node(relation):
    return QueryEngine(DLPlusIndex(relation), cache_size=0)


# ---------------------------------------------------------------------- #
# Acceptance property grid: distribution x d x shards x partitioner x merge
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("distribution", ["IND", "ANT", "COR"])
@pytest.mark.parametrize("d", [2, 4])
@pytest.mark.parametrize("shards", [1, 2, 4])
@pytest.mark.parametrize("partitioner", ["round-robin", "angular"])
def test_cluster_matches_single_node_bitwise(distribution, d, shards, partitioner):
    relation = generate(distribution, 180, d, seed=37)
    reference = single_node(relation)
    naive_cluster, threshold_cluster = (
        ClusterEngine(
            relation,
            shards=shards,
            partitioner=partitioner,
            cache_size=0,
            merge=merge,
        )
        for merge in ("naive", "threshold")
    )
    rng = np.random.default_rng(91)
    for k in (1, 5, 23):
        w = random_weight_vector(d, rng)
        ref = reference.query(w, k)
        naive = naive_cluster.query(w, k)
        threshold = threshold_cluster.query(w, k)
        for got in (naive, threshold):
            np.testing.assert_array_equal(got.ids, ref.ids)
            assert got.scores.tobytes() == ref.scores.tobytes()
            assert not got.partial
        # Threshold merge never pays more than the naive merge.
        assert threshold.cost <= naive.cost
        # Per-shard costs sum to the merged Definition 9 total.
        assert sum(threshold.shard_costs.values()) == threshold.cost
        assert sum(naive.shard_costs.values()) == naive.cost


def test_single_shard_threshold_cost_equals_single_node():
    """shards=1 degenerates exactly: same answer, same Definition 9 cost."""
    relation = generate("ANT", 200, 3, seed=5)
    reference = single_node(relation)
    cluster = ClusterEngine(relation, shards=1, cache_size=0)
    rng = np.random.default_rng(13)
    for _ in range(5):
        w = random_weight_vector(3, rng)
        ref = reference.query(w, 10)
        got = cluster.query(w, 10)
        np.testing.assert_array_equal(got.ids, ref.ids)
        assert got.cost == ref.cost


def test_k_larger_than_relation_is_clamped():
    relation = generate("IND", 60, 3, seed=3)
    cluster = ClusterEngine(relation, shards=4, cache_size=0)
    ref = single_node(relation).query(np.array([0.3, 0.3, 0.4]), 500)
    got = cluster.query(np.array([0.3, 0.3, 0.4]), 500)
    assert len(got.ids) == relation.n
    np.testing.assert_array_equal(got.ids, ref.ids)


def test_invalid_queries_raise():
    relation = generate("IND", 50, 2, seed=1)
    cluster = ClusterEngine(relation, shards=2)
    with pytest.raises(InvalidQueryError):
        cluster.query(np.array([0.5, 0.5]), 0)
    with pytest.raises(InvalidQueryError):
        ClusterEngine(relation, shards=2, merge="zipper")


def test_merge_assignment_is_validated():
    """Reassigning ``merge`` is checked like the constructor argument: an
    unknown strategy raises and leaves the previous merge serving."""
    relation = generate("IND", 50, 2, seed=1)
    cluster = ClusterEngine(relation, shards=2, cache_size=0, merge="naive")
    with pytest.raises(InvalidQueryError):
        cluster.merge = "zipper"
    assert cluster.merge == "naive"
    assert cluster.query(np.array([0.5, 0.5]), 3).merge == "naive"
    cluster.merge = "threshold"
    assert cluster.query(np.array([0.5, 0.5]), 3).merge == "threshold"


def test_non_integral_k_rejected_cluster_wide():
    """Regression companion to the engine-side fix: the coordinator used
    to pre-truncate k with int() before scattering, so k=2.5 silently
    served k=2 across every shard."""
    relation = generate("IND", 60, 2, seed=2)
    cluster = ClusterEngine(relation, shards=2)
    w = np.array([0.5, 0.5])
    with pytest.raises(InvalidQueryError):
        cluster.query(w, 2.5)
    with pytest.raises(InvalidQueryError):
        cluster.query_batch(np.vstack([w, w]), 2.5)
    with pytest.raises(InvalidQueryError):
        cluster.query_many([(w, 5), (w, 2.5)])
    # Booleans, python or numpy, are not retrieval sizes.
    with pytest.raises(InvalidQueryError, match="must be an integer"):
        cluster.query(w, np.True_)
    with pytest.raises(InvalidQueryError, match="must be an integer"):
        cluster.query_batch(np.vstack([w, w]), np.array([True, True]))
    # Integral floats stay accepted and serve the same bytes.
    a = cluster.query(w, np.float64(5.0))
    b = cluster.query(w, 5)
    assert a.ids.tobytes() == b.ids.tobytes()
    assert a.scores.tobytes() == b.scores.tobytes()


# ---------------------------------------------------------------------- #
# Batch / concurrent surfaces
# ---------------------------------------------------------------------- #


def test_query_batch_and_many_match_query():
    relation = generate("ANT", 150, 3, seed=23)
    cluster = ClusterEngine(relation, shards=3, partitioner="angular")
    rng = np.random.default_rng(7)
    weights = [random_weight_vector(3, rng) for _ in range(6)]
    singles = [cluster.query(w, 8) for w in weights]
    batched = cluster.query_batch(np.vstack(weights), 8)
    pooled = cluster.query_many([(w, 8) for w in weights], max_workers=3)
    for ref, b, p in zip(singles, batched, pooled):
        np.testing.assert_array_equal(b.ids, ref.ids)
        np.testing.assert_array_equal(p.ids, ref.ids)
        assert b.scores.tobytes() == ref.scores.tobytes()
        assert p.scores.tobytes() == ref.scores.tobytes()
    assert cluster.query_many([]) == []


@pytest.mark.parametrize("merge", ["naive", "threshold"])
def test_query_batch_per_row_k_bitwise_equals_query(merge):
    """Per-row k through the shared loop: rows are grouped by effective k
    (k beyond n clamps into the n group), a repeated (w, k) is answered
    from the cache, and every computed row equals its own ``query`` —
    ids, score bytes, cost and per-shard costs."""
    relation = generate("ANT", 150, 3, seed=29)
    single = ClusterEngine(relation, shards=3, cache_size=0, merge=merge)
    batched = ClusterEngine(relation, shards=3, cache_size=32, merge=merge)
    rng = np.random.default_rng(29)
    weights = np.vstack([random_weight_vector(3, rng) for _ in range(8)])
    weights[6] = weights[1]  # same row, same k: a cache hit
    weights[7] = weights[2]  # same row, other k: computed
    ks = [1, 5, 23, 150, 400, 9, 5, 9]
    results = batched.query_batch(weights, ks)
    for row, (w, k, got) in enumerate(zip(weights, ks, results)):
        ref = single.query(w, k)
        np.testing.assert_array_equal(got.ids, ref.ids)
        assert got.scores.tobytes() == ref.scores.tobytes()
        if row == 6:
            assert got.merge == "cache" and got.cost == 0
            continue
        assert got.merge == merge
        assert got.cost == ref.cost
        assert got.shard_costs == ref.shard_costs
    # Five k-groups (1, 5, 9, 23 and the clamped 150), one batch each.
    assert batched.metrics.batches == 5
    assert batched.metrics.cache_hits == 1


def test_query_batch_wide_group_bitwise_and_records_batches():
    """A wide batch (>= the batch-kernel dispatch width) goes to each
    shard as one weight group; every row must still match the per-query
    path bitwise, and both coordinator and shard registries must record
    the batched execution."""
    relation = generate("IND", 200, 3, seed=47)
    reference = ClusterEngine(relation, shards=3, cache_size=0, merge="naive")
    batched = ClusterEngine(relation, shards=3, cache_size=0, merge="naive")
    rng = np.random.default_rng(47)
    weights = np.vstack([random_weight_vector(3, rng) for _ in range(16)])
    singles = [reference.query(w, 7) for w in weights]
    results = batched.query_batch(weights, 7)
    for ref, got in zip(singles, results):
        np.testing.assert_array_equal(got.ids, ref.ids)
        assert got.scores.tobytes() == ref.scores.tobytes()
        assert got.cost == ref.cost
        assert got.shard_costs == ref.shard_costs
    assert batched.metrics.batches == 1
    assert batched.metrics.batch_rows == 16
    stats = batched.stats()
    assert stats["batches"] == 1.0
    assert stats["shards"]["batches"] == 3.0  # one group per shard
    assert stats["shards"]["batch_rows"] == 48.0


def test_query_batch_deduplicates_repeated_rows_through_cache():
    relation = generate("ANT", 150, 3, seed=49)
    cluster = ClusterEngine(relation, shards=2, cache_size=32)
    rng = np.random.default_rng(49)
    base = np.vstack([random_weight_vector(3, rng) for _ in range(5)])
    weights = np.vstack([base, base[0], base[2]])  # 2 duplicate rows
    results = cluster.query_batch(weights, 6)
    assert results[5].merge == "cache" and results[5].cost == 0
    assert results[6].merge == "cache" and results[6].cost == 0
    np.testing.assert_array_equal(results[5].ids, results[0].ids)
    np.testing.assert_array_equal(results[6].ids, results[2].ids)
    assert cluster.metrics.cache_hits == 2


def test_query_batch_failover_and_partial():
    """The batched scatter path honors replica failover (exact answers,
    recovered_shards set) and, without a replica, degrades every row of
    the group to a partial answer that is never cached."""
    relation = generate("IND", 160, 3, seed=53)
    rng = np.random.default_rng(53)
    weights = np.vstack([random_weight_vector(3, rng) for _ in range(10)])

    replicated = ClusterEngine(relation, shards=2, replicate=True, cache_size=0)
    replicated.shards[0] = FailingShard(replicated.shards[0], failed=True)
    ref = single_node(relation)
    for got, w in zip(replicated.query_batch(weights, 8), weights):
        expected = ref.query(w, 8)
        np.testing.assert_array_equal(got.ids, expected.ids)
        assert got.scores.tobytes() == expected.scores.tobytes()
        assert not got.partial and got.recovered_shards == (0,)

    bare = ClusterEngine(relation, shards=2, cache_size=16)
    dead = FailingShard(bare.shards[1], failed=True)
    bare.shards[1] = dead
    partials = bare.query_batch(weights, 8)
    assert all(r.partial and r.failed_shards == (1,) for r in partials)
    dead.restore()
    healed = bare.query_batch(weights, 8)
    for got, w in zip(healed, weights):
        assert not got.partial
        assert got.merge != "cache"  # partial answers were not cached
        expected = ref.query(w, 8)
        np.testing.assert_array_equal(got.ids, expected.ids)


# ---------------------------------------------------------------------- #
# Failover
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("merge", ["naive", "threshold"])
def test_failed_shard_with_replica_serves_exact_answer(merge):
    relation = generate("IND", 160, 3, seed=53)
    reference = single_node(relation)
    cluster = ClusterEngine(
        relation, shards=2, replicate=True, cache_size=0, merge=merge
    )
    cluster.shards[0] = FailingShard(cluster.shards[0], failed=True)
    w = np.array([0.3, 0.3, 0.4])
    got = cluster.query(w, 10)
    ref = reference.query(w, 10)
    np.testing.assert_array_equal(got.ids, ref.ids)
    assert got.scores.tobytes() == ref.scores.tobytes()
    assert not got.partial
    assert got.recovered_shards == (0,)
    assert got.failed_shards == ()


@pytest.mark.parametrize("merge", ["naive", "threshold"])
def test_failed_shard_without_replica_degrades_to_partial(merge):
    relation = generate("IND", 160, 3, seed=53)
    cluster = ClusterEngine(relation, shards=2, cache_size=4, merge=merge)
    dead = FailingShard(cluster.shards[1], failed=True)
    cluster.shards[1] = dead
    w = np.array([0.3, 0.3, 0.4])
    got = cluster.query(w, 10)
    assert got.partial
    assert got.failed_shards == (1,)
    # The surviving shard still answers its own slice, in order.
    live_ids = cluster.shards[0].global_ids
    assert np.all(np.isin(got.ids, live_ids))
    assert np.all(np.diff(got.scores) >= 0)
    # Partial answers are never cached: restoring the shard un-degrades
    # the very same query.
    dead.restore()
    healed = cluster.query(w, 10)
    assert not healed.partial
    ref = single_node(relation).query(w, 10)
    np.testing.assert_array_equal(healed.ids, ref.ids)


# ---------------------------------------------------------------------- #
# Cache + maintenance
# ---------------------------------------------------------------------- #


def test_cache_hits_and_version_invalidation():
    """Every write moves the version by one.  A write that changes an
    answer drops the cache; one absorbed beyond the materialised layers
    keeps it, and the kept answer is a rebuilt cluster's."""
    relation = generate("IND", 120, 3, seed=61)
    options = dict(shards=2, index_kwargs={"max_layers": 3})
    cluster = ClusterEngine(relation, cache_size=16, **options)
    w = np.array([0.2, 0.5, 0.3])
    first = cluster.query(w, 3)
    hit = cluster.query(w, 3)
    assert hit.merge == "cache" and hit.cost == 0
    np.testing.assert_array_equal(hit.ids, first.ids)
    assert cluster.metrics.cache_hits == 1

    def rebuilt(*rows):
        grown = np.vstack([relation.matrix, *rows])
        grown = Relation(grown, check_domain=False)
        return ClusterEngine(grown, cache_size=0, **options).query(w, 3)

    version = cluster.version
    worst = np.full(3, 0.999)  # dominated by a layer-3 tuple of its shard
    cluster.insert(worst)
    assert cluster.version == version + 1
    assert (cluster.writes_absorbed, cluster.shard_rebuilds) == (1, 0)
    kept = cluster.query(w, 3)
    assert kept.merge == "cache"
    expected = rebuilt(worst)
    assert kept.ids.tobytes() == expected.ids.tobytes()
    assert kept.scores.tobytes() == expected.scores.tobytes()

    # Half the k-th tuple's values dominate it: the answer changes.
    better = relation.matrix[first.ids[-1]] / 2
    gid = cluster.insert(better)
    assert cluster.version == version + 2
    assert (cluster.writes_absorbed, cluster.shard_rebuilds) == (1, 1)
    missed = cluster.query(w, 3)
    assert missed.merge != "cache"
    assert gid in missed.ids
    expected = rebuilt(worst, better)
    assert missed.ids.tobytes() == expected.ids.tobytes()
    assert missed.scores.tobytes() == expected.scores.tobytes()
    cluster.delete(gid)
    assert cluster.version == version + 3


def test_writes_that_flip_completeness_rebuild():
    """Only an incomplete structure absorbs, and it must stay incomplete:
    the delete of its last tuple beyond the materialised layers rebuilds
    (a rebuilt shard is complete and answers k > max_layers), and so does
    an insert below the last layer of a complete shard."""
    from repro.exceptions import IndexCapacityError

    rows = np.array([[0.1, 0.1], [0.2, 0.2], [0.3, 0.3], [0.05, 0.5], [0.4, 0.4]])
    cluster = ClusterEngine(
        Relation(rows), shards=1, cache_size=0, index_kwargs={"max_layers": 3}
    )
    w = np.array([0.5, 0.5])
    with pytest.raises(IndexCapacityError):
        cluster.query(w, 4)
    cluster.delete(4)  # (0.4, 0.4) was the only tuple beyond layer 3
    assert (cluster.writes_absorbed, cluster.shard_rebuilds) == (0, 1)
    assert cluster.query(w, 4).ids.tolist() == [0, 1, 3, 2]
    cluster.insert(np.array([0.6, 0.6]))  # below the last layer
    assert (cluster.writes_absorbed, cluster.shard_rebuilds) == (0, 2)
    with pytest.raises(IndexCapacityError):
        cluster.query(w, 4)


def test_each_write_logs_one_debug_event(caplog):
    relation = generate("IND", 120, 3, seed=61)
    cluster = ClusterEngine(relation, shards=2, index_kwargs={"max_layers": 3})
    with caplog.at_level(logging.DEBUG, logger="repro.cluster"):
        gid = cluster.insert(np.full(3, 0.999))
        cluster.delete(gid)
        cluster.insert(np.full(3, 0.001))
    messages = [r.getMessage() for r in caplog.records if r.name == "repro.cluster"]
    assert len(messages) == 3
    assert "insert on shard 0 absorbed" in messages[0]
    assert "delete on shard 0 absorbed" in messages[1]
    assert "insert on shard 1 rebuilt" in messages[2]  # id 121
    assert all(message.endswith(" ms") for message in messages)


def test_insert_routes_to_owner_and_is_servable():
    relation = generate("IND", 90, 3, seed=67)
    reference_matrix = relation.matrix
    cluster = ClusterEngine(relation, shards=3, partitioner="angular")
    n0 = cluster.n
    values = np.array([0.005, 0.004, 0.006])  # dominates: must top the list
    gid = cluster.insert(values)
    assert gid == n0 and cluster.n == n0 + 1
    got = cluster.query(np.ones(3), 1)
    assert int(got.ids[0]) == gid
    # The cluster answer equals a single node over the grown relation.
    from repro.relation import Relation

    grown = Relation(
        np.vstack([reference_matrix, values[None, :]]), check_domain=False
    )
    ref = single_node(grown).query(np.ones(3), 10)
    full = cluster.query(np.ones(3), 10)
    np.testing.assert_array_equal(full.ids, ref.ids)
    assert full.scores.tobytes() == ref.scores.tobytes()

    cluster.delete(gid)
    assert cluster.n == n0
    with pytest.raises(InvalidQueryError):
        cluster.delete(gid)  # already gone
    with pytest.raises(InvalidQueryError):
        cluster.insert(np.array([0.5, 0.5]))  # wrong arity


@pytest.mark.parametrize("bad_id", [3.5, np.float64(2.0), "3", None, True])
def test_delete_rejects_non_integer_ids(bad_id):
    relation = generate("IND", 30, 2, seed=5)
    cluster = ClusterEngine(relation, shards=2)
    with pytest.raises(InvalidQueryError):
        cluster.delete(bad_id)
    assert cluster.n == 30 and cluster.version == 1
    cluster.delete(np.int64(3))  # numpy integers are ids
    assert cluster.n == 29


@pytest.mark.parametrize(
    "bad_values", [["a", "b"], [0.5, None], [0.5, float("nan")], "ab"]
)
def test_insert_rejects_non_numeric_values(bad_values):
    relation = generate("IND", 30, 2, seed=5)
    cluster = ClusterEngine(relation, shards=2)
    with pytest.raises(InvalidQueryError):
        cluster.insert(bad_values)
    assert cluster.n == 30 and cluster.version == 1


def test_stats_aggregates_per_shard_metrics():
    relation = generate("IND", 120, 3, seed=71)
    cluster = ClusterEngine(relation, shards=2, cache_size=0)
    for merge in ("naive", "threshold"):
        cluster.merge = merge
        cluster.query(np.array([0.4, 0.3, 0.3]), 5)
    stats = cluster.stats()
    assert stats["queries"] == 2.0
    assert stats["num_shards"] == 2.0
    # Each merge folded one query into each shard's registry.
    assert stats["shards"]["queries"] == 4.0
    assert set(stats["per_shard"]) == {0, 1}
    assert stats["shards"]["total_cost"] == sum(
        entry["total_cost"] for entry in stats["per_shard"].values()
    )
