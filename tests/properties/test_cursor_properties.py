"""Property-based tests: cursor paging equals one-shot queries."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core import DLIndex, TopKCursor
from repro.relation import Relation, top_k_bruteforce


@st.composite
def paged_workloads(draw):
    d = draw(st.integers(2, 3))
    n = draw(st.integers(2, 50))
    points = draw(
        arrays(
            np.float64,
            (n, d),
            elements=st.floats(0.0, 1.0, allow_nan=False, width=32),
        )
    )
    raw = [draw(st.floats(0.05, 1.0, allow_nan=False)) for _ in range(d)]
    pages = draw(st.lists(st.integers(1, 10), min_size=1, max_size=5))
    return points, np.asarray(raw), pages


@settings(max_examples=40, deadline=None)
@given(workload=paged_workloads())
# Tuples within 1e-9 of the origin: an absolute build tolerance once gated
# tuple 2 (a copy of tuple 1) behind tuple 0, which does not dominate it,
# so tuple 2 surfaced after the worse-scoring tuple 0.
@example(
    workload=(
        np.array([[0.0, 1e-9], [1e-9, 0.0], [1e-9, 0.0]]),
        np.array([0.5, 1.0]),
        [1, 1, 1],
    )
)
def test_any_paging_schedule_matches_bruteforce(workload):
    points, weights, pages = workload
    relation = Relation(points, check_domain=False)
    index = DLIndex(relation).build()
    cursor = TopKCursor(index.structure, weights)
    collected_scores: list[float] = []
    for page in pages:
        _, scores = cursor.fetch(page)
        collected_scores.extend(float(s) for s in scores)
        if cursor.exhausted:
            break
    total = len(collected_scores)
    _, ref_scores = top_k_bruteforce(points, weights / weights.sum(), max(total, 1))
    np.testing.assert_allclose(
        collected_scores, ref_scores[:total], atol=1e-9
    )
    assert collected_scores == sorted(collected_scores)
