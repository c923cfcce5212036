"""Cluster analytics: bitwise equivalence with a single node, the
normalize-once invariant, and survival across routed maintenance."""

import numpy as np
import pytest

from repro.analytics import AnalyticsEngine
from repro.analytics.oracle import oracle_membership
from repro.cluster import ClusterEngine
from repro.core import DLPlusIndex
from repro.data import generate
from repro.relation import normalize_weights
from repro.serving import QueryEngine


def pair(distribution, n, d, shards, seed=23):
    relation = generate(distribution, n, d, seed=seed)
    single = QueryEngine(DLPlusIndex(relation).build(), cache_size=0)
    cluster = ClusterEngine(relation, shards=shards, cache_size=0)
    return relation, AnalyticsEngine(single), AnalyticsEngine(cluster)


@pytest.mark.parametrize("distribution", ["IND", "ANT", "COR"])
@pytest.mark.parametrize("shards", [1, 3])
def test_bichromatic_cluster_equals_single_node(distribution, shards, rng):
    """Acceptance (satellite): raw weights forwarded, normalized exactly
    once — the membership vector is identical through either engine."""
    relation, a_single, a_cluster = pair(distribution, 160, 3, shards)
    raw = np.clip(rng.dirichlet(np.ones(3), size=32), 1e-9, None)
    for target in [1, 44, 159]:
        b1 = a_single.bichromatic(raw, 6, target)
        b2 = a_cluster.bichromatic(raw, 6, target)
        assert np.array_equal(b1.members, b2.members), f"target {target}"
        # And both equal the oracle at the normalized weights.
        for i in range(raw.shape[0]):
            w = normalize_weights(raw[i], 3)
            assert bool(b1.members[i]) is oracle_membership(
                relation.matrix, w, 6, target
            )


def test_unnormalized_workload_rows_resolve_identically(rng):
    """Scaling a workload row by 100x must not change any answer — the
    facade normalizes its own screens and forwards RAW rows to engines,
    which normalize exactly once."""
    relation, a_single, a_cluster = pair("IND", 120, 3, 2)
    base = np.clip(rng.dirichlet(np.ones(3), size=16), 1e-9, None)
    scaled = base * 100.0
    for analytics in (a_single, a_cluster):
        r1 = analytics.bichromatic(base, 5, 7)
        r2 = analytics.bichromatic(scaled, 5, 7)
        assert np.array_equal(r1.members, r2.members)


def test_reverse_regions_identical_across_engines(rng):
    """The snapshot (matrix + layer placements) is engine-independent, so
    regions come out identical."""
    relation, a_single, a_cluster = pair("ANT", 100, 2, 4)
    for target in [0, 50, 99]:
        r1 = a_single.reverse_topk(target, 4)
        r2 = a_cluster.reverse_topk(target, 4)
        assert r1.intervals == r2.intervals


def test_cluster_analytics_survives_maintenance(rng):
    """Insert + delete through the cluster: the facade re-snapshots on
    version bump and keeps matching the oracle on the live population."""
    relation, _, a_cluster = pair("IND", 90, 3, 3)
    cluster = a_cluster.engine
    w = np.asarray([0.3, 0.4, 0.3])
    victim = int(cluster.query(w, 1).ids[0])
    cluster.delete(victim)
    new_values = relation.matrix.min(axis=0) - 0.5
    new_id = cluster.insert(new_values)
    report = a_cluster.why_not(w, new_id, 3)
    assert report.in_top_k, "a dominating insert must be in the top-k"
    assert report.rank == 1
    # The deleted tuple is gone: targeting it raises at the boundary.
    from repro.exceptions import InvalidQueryError

    with pytest.raises(InvalidQueryError):
        a_cluster.why_not(w, victim, 3)


def test_cluster_analytics_after_absorbed_writes():
    """Absorbed writes leave a shard's structure built on fewer or more
    rows than it holds; placements must follow the build's ids.  Reverse
    top-k, why-not (a just-absorbed tuple included) and what-if then equal
    their results on a cluster whose shards were built on the live rows."""
    from repro.analytics import TupleEdit
    from repro.cluster.shard import Shard

    relation = generate("IND", 90, 2, seed=29)
    options = dict(shards=3, cache_size=0, index_kwargs={"max_layers": 4})
    cluster = ClusterEngine(relation, **options)
    absorbed = [cluster.insert(np.array([0.97, 0.98])) for _ in range(3)]
    shard = cluster.shards[0]
    levels = shard.engine.index.structure.coarse_levels[: shard.built_ids.shape[0]]
    unplaced = [int(g) for g in shard.built_ids[levels < 0]]
    cluster.delete(unplaced[0])
    assert cluster.writes_absorbed == 4 and cluster.shard_rebuilds == 0

    reference = ClusterEngine(relation, **options)
    reference.shards = [
        Shard(
            s.shard_id,
            s.relation,
            s.global_ids,
            index_class=s.index_class,
            index_kwargs=s.index_kwargs,
            engine_kwargs=s.engine_kwargs,
        )
        for s in cluster.shards
    ]
    ours, theirs = cluster.analytics(), reference.analytics()
    placed = int(cluster.query(np.array([0.5, 0.5]), 1).ids[0])
    targets = [absorbed[-1], unplaced[1], placed]
    weights = np.array([[0.3, 0.7], [0.6, 0.4], [0.9, 0.1]])
    for target in targets:
        assert ours.reverse_topk(target, 3).intervals == (
            theirs.reverse_topk(target, 3).intervals
        )
        assert np.array_equal(
            ours.bichromatic(weights, 3, target).members,
            theirs.bichromatic(weights, 3, target).members,
        )
        for w in weights:
            a, b = ours.why_not(w, target, 3), theirs.why_not(w, target, 3)
            for name in ("rank", "score", "kth_score", "in_top_k", "certificate",
                         "feasible", "achieved_rank", "shard_beaters"):
                assert getattr(a, name) == getattr(b, name), name
            assert np.array_equal(a.perturbation, b.perturbation)
    edits = [
        TupleEdit("delete", tuple_id=placed),
        TupleEdit("update", tuple_id=absorbed[0], values=np.array([0.01, 0.01])),
        TupleEdit("insert", values=np.array([0.02, 0.5])),
    ]
    for edit in edits:
        a = ours.what_if(weights[0], 3, edit=edit)
        b = theirs.what_if(weights[0], 3, edit=edit)
        for name in ("before_ids", "before_scores", "after_ids", "after_scores"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
