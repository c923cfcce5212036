"""Reverse top-k property suite: exact 2-D regions, certified d>2 bounds,
and bichromatic screens — all against the brute-force oracle, across the
distribution x dimensionality x index-variant grid."""

import numpy as np
import pytest

from repro.analytics import AnalyticsEngine
from repro.analytics.oracle import oracle_membership, oracle_top_k
from repro.analytics.reverse import split_competitors
from repro.core import DLIndex, DLPlusIndex
from repro.data import generate
from repro.relation import normalize_weights, random_weight_vector
from repro.serving import QueryEngine


def make_engine(distribution, n, d, index_class, seed=29):
    relation = generate(distribution, n, d, seed=seed)
    return QueryEngine(index_class(relation).build(), cache_size=0)


def sample_weights(rng, d, count, concentration=1.0):
    raw = rng.dirichlet(np.ones(d) * concentration, size=count)
    return [normalize_weights(np.clip(row, 1e-9, None), d) for row in raw]


# ---------------------------------------------------------------------- #
# Monochromatic: exact in d=2
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("distribution", ["IND", "ANT", "COR"])
@pytest.mark.parametrize("index_class", [DLIndex, DLPlusIndex])
def test_exact_2d_region_agrees_with_oracle(distribution, index_class, rng):
    """Acceptance: the d=2 interval region agrees with the oracle at
    uniformly sampled weights AND at boundary-adjacent weights (each
    interval endpoint nudged by +-1e-6), where every off-by-one in the
    sweep would show."""
    engine = make_engine(distribution, 250, 2, index_class)
    analytics = AnalyticsEngine(engine)
    matrix = engine.index.relation.matrix
    k = 6
    for target in [0, 7, 42, 249]:
        region = analytics.reverse_topk(target, k)
        probes = [w[0] for w in sample_weights(rng, 2, 60)]
        for lo, hi in region.intervals:
            probes.extend(
                [lo - 1e-6, lo + 1e-6, hi - 1e-6, hi + 1e-6]
            )
        for w1 in probes:
            if not 0.0 < w1 < 1.0:
                continue
            w = normalize_weights(np.asarray([w1, 1.0 - w1]), 2)
            assert region.contains(w) is oracle_membership(
                matrix, w, k, target
            ), f"target {target} diverged at w1={w1}"


def test_exact_2d_region_duplicate_tiebreak():
    """Duplicate rows resolve by id: the earlier duplicate's region is
    the full interval for k=1, the later one's is empty."""
    matrix = np.asarray([[0.5, 0.5], [0.5, 0.5], [2.0, 2.0]])
    rows = np.arange(3, dtype=np.intp)
    from repro.analytics.reverse import monochromatic_region_2d

    early = monochromatic_region_2d(matrix, rows, matrix[0], 0, 1)
    late = monochromatic_region_2d(matrix, rows, matrix[1], 1, 1)
    assert early.measure == pytest.approx(1.0)
    assert late.is_empty
    # With k=2 both duplicates fit.
    late2 = monochromatic_region_2d(matrix, rows, matrix[1], 1, 2)
    assert late2.measure == pytest.approx(1.0)


def test_split_competitors_buckets():
    target = np.asarray([1.0, 1.0])
    matrix = np.asarray(
        [
            [0.5, 0.5],  # dominator -> always
            [1.0, 1.0],  # duplicate, id 1 < 2 -> always
            [2.0, 2.0],  # dominated -> never
            [0.1, 9.0],  # mixed sign -> variable
            [1.0, 1.0],  # duplicate, id 4 > 2 -> never
        ]
    )
    always, variable = split_competitors(
        matrix, np.arange(5, dtype=np.intp), target, 2
    )
    assert always == 2
    assert variable.tolist() == [3]


# ---------------------------------------------------------------------- #
# Certified regions: d > 2
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("distribution", ["IND", "ANT", "COR"])
@pytest.mark.parametrize("d", [3, 4])
def test_certified_region_never_contradicts_oracle(distribution, d, rng):
    """Acceptance: IN cells contain only members, OUT cells only
    non-members; volume bounds are ordered; uncertain mass shrinks with
    depth."""
    engine = make_engine(distribution, 150, d, DLPlusIndex)
    analytics = AnalyticsEngine(engine)
    matrix = engine.index.relation.matrix
    k = 5
    for target in [0, 11, 149]:
        shallow = analytics.reverse_topk(target, k, max_depth=4, max_cells=256)
        deep = analytics.reverse_topk(target, k, max_depth=9, max_cells=2048)
        for region in (shallow, deep):
            assert region.volume_lower <= region.volume_upper + 1e-12
        assert (deep.volume_upper - deep.volume_lower) <= (
            shallow.volume_upper - shallow.volume_lower
        ) + 1e-12
        for w in sample_weights(rng, d, 40, concentration=0.5):
            verdict = deep.classify(w)
            truth = oracle_membership(matrix, w, k, target)
            if verdict == "in":
                assert truth
            elif verdict == "out":
                assert not truth


# ---------------------------------------------------------------------- #
# Bichromatic: screens + batched walks, bitwise vs the serving kernels
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("distribution", ["IND", "ANT", "COR"])
@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("index_class", [DLIndex, DLPlusIndex])
def test_bichromatic_bitwise_vs_serving(distribution, d, index_class, rng):
    """Acceptance: every membership bit equals what engine.query (i.e.
    process_top_k) answers for the same raw weights — screens and walks
    agree with the kernel on every vector."""
    engine = make_engine(distribution, 200, d, index_class)
    analytics = AnalyticsEngine(engine)
    raw = np.clip(rng.dirichlet(np.ones(d), size=40), 1e-9, None)
    k = 7
    for target in [3, 60, 199]:
        result = analytics.bichromatic(raw, k, target)
        for i in range(raw.shape[0]):
            served = bool(np.isin(target, engine.query(raw[i], k).ids))
            assert bool(result.members[i]) is served, (
                f"target {target} row {i} resolution={result.resolution[i]}"
            )
        assert result.walked == result.resolution.count("walk")
        assert 0.0 <= result.resolved_without_walk <= 1.0


def test_bichromatic_screens_resolve_a_layer0_target_walk_free():
    """The screens carry real weight: for a layer-0 target (the hardest
    band — it sits in many top-k answers) at least 30% of a seeded
    workload resolves without a walk, and every bit still equals the
    served answer."""
    seed = 20120401
    engine = make_engine("IND", 2000, 3, DLPlusIndex, seed=seed)
    analytics = AnalyticsEngine(engine)
    weight_rng = np.random.default_rng(seed + 1)
    raw = np.array([random_weight_vector(3, weight_rng) for _ in range(32)])
    levels = engine.index.structure.coarse_levels[: engine.n]
    layer0 = np.nonzero(levels == 0)[0]
    target = int(layer0[np.random.default_rng(seed).integers(0, layer0.shape[0])])
    k = 10
    result = analytics.bichromatic(raw, k, target)
    assert result.resolved_without_walk >= 0.30, result.resolution
    for i in range(raw.shape[0]):
        served = bool(np.isin(target, engine.query(raw[i], k).ids))
        assert bool(result.members[i]) is served


def test_bichromatic_hypothetical_target(rng):
    """A tuple not in the relation competes with id=n (loses ties) and
    resolves without any walk — the kernel can't walk a phantom."""
    engine = make_engine("IND", 180, 3, DLPlusIndex)
    analytics = AnalyticsEngine(engine)
    matrix = engine.index.relation.matrix
    raw = np.clip(rng.dirichlet(np.ones(3), size=32), 1e-9, None)
    values = np.quantile(matrix, 0.08, axis=0)
    result = analytics.bichromatic(raw, 5, values=values)
    assert "walk" not in result.resolution
    for i in range(raw.shape[0]):
        w = normalize_weights(raw[i], 3)
        assert bool(result.members[i]) is oracle_membership(
            matrix, w, 5, matrix.shape[0], values=values
        )


def test_bichromatic_static_fast_paths(rng):
    """k >= pool resolves everything IN statically; a target deeper than
    layer k-1 resolves everything OUT statically."""
    engine = make_engine("IND", 60, 3, DLPlusIndex)
    analytics = AnalyticsEngine(engine)
    raw = np.clip(rng.dirichlet(np.ones(3), size=8), 1e-9, None)
    all_in = analytics.bichromatic(raw, 60, 5)
    assert all_in.members.all() and set(all_in.resolution) == {"static"}
    levels = engine.index.structure.coarse_levels
    deep = int(np.argmax(levels[: engine.n]))
    if levels[deep] >= 3:
        all_out = analytics.bichromatic(raw, 3, deep)
        assert not all_out.members.any()
        assert set(all_out.resolution) == {"static"}


def test_mono_region_on_toy_hotels(toy, toy_ids):
    """The paper's toy data: a skyline hotel owns a nonempty k=1 region;
    a dominated one does not."""
    engine = QueryEngine(DLPlusIndex(toy).build(), cache_size=0)
    analytics = AnalyticsEngine(engine)
    matrix = toy.matrix
    best_region = None
    for tid in range(toy.n):
        region = analytics.reverse_topk(tid, 1)
        truth_any = any(
            oracle_membership(matrix, normalize_weights(np.asarray([x, 1 - x]), 2), 1, tid)
            for x in np.linspace(0.01, 0.99, 99)
        )
        assert (not region.is_empty) == truth_any
        if not region.is_empty:
            best_region = region
    assert best_region is not None


def test_region_measure_matches_interval_sum():
    engine = make_engine("ANT", 120, 2, DLPlusIndex)
    analytics = AnalyticsEngine(engine)
    region = analytics.reverse_topk(4, 5)
    assert region.measure == pytest.approx(
        sum(hi - lo for lo, hi in region.intervals)
    )


def test_reverse_topk_oracle_topk_consistency(rng):
    """oracle_top_k and membership agree: the k winners' regions contain
    the query weight."""
    engine = make_engine("IND", 90, 2, DLPlusIndex)
    analytics = AnalyticsEngine(engine)
    matrix = engine.index.relation.matrix
    w = normalize_weights(np.asarray([0.35, 0.65]), 2)
    ids, _ = oracle_top_k(matrix, w, 4)
    for tid in ids:
        region = analytics.reverse_topk(int(tid), 4)
        assert region.contains(w)
