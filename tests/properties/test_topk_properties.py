"""Property-based tests: every index returns the true top-k.

The central reproduction invariant (Theorem 4 and each baseline's own
correctness argument): for random data, dimensionalities, weights and k, the
score sequence returned by every index equals the brute-force scan's —
including tie-heavy quantized data where ids may legitimately differ.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro import ALGORITHMS
from repro.relation import Relation, top_k_bruteforce

# PREFER/FA/NRA are exercised in their unit tests; the property matrix runs
# the paper's six algorithms plus the geometric baselines.
NAMES = ["DL", "DL+", "DG", "DG+", "HL", "HL+", "ONION", "AppRI", "TA", "PL"]


@st.composite
def workloads(draw):
    d = draw(st.integers(2, 4))
    n = draw(st.integers(1, 50))
    grid = draw(st.sampled_from([None, 4, 8]))
    if grid:
        cells = draw(arrays(np.int64, (n, d), elements=st.integers(0, grid)))
        points = cells.astype(np.float64) / grid
    else:
        points = draw(
            arrays(
                np.float64,
                (n, d),
                elements=st.floats(0.0, 1.0, allow_nan=False, width=32),
            )
        )
    raw = [draw(st.floats(0.05, 1.0, allow_nan=False)) for _ in range(d)]
    weights = np.asarray(raw)
    k = draw(st.integers(1, max(1, n)))
    return points, weights / weights.sum(), k


@pytest.mark.parametrize("name", NAMES)
@settings(max_examples=25, deadline=None)
@given(workload=workloads())
# Two axes with a 1e-10 spread next to one with spread 1: the convex
# skyline once lost two of the three points under qhull's roundoff.
@example(
    workload=(
        np.array([[0.0, 1e-10, 0.0, 0.0], [0.0, 0.0, 1e-10, 0.0], [1.0, 0.0, 0.0, 0.0]]),
        np.full(4, 0.25),
        1,
    )
)
def test_index_matches_bruteforce(name, workload):
    points, weights, k = workload
    relation = Relation(points, check_domain=False)
    index = ALGORITHMS[name](relation).build()
    result = index.query(weights, k)
    ref_ids, ref_scores = top_k_bruteforce(points, weights, k)
    assert len(result) == len(ref_ids)
    np.testing.assert_allclose(
        np.sort(result.scores), np.sort(ref_scores), atol=1e-9
    )
    # Returned ids must actually produce the returned scores.
    np.testing.assert_allclose(points[result.ids] @ weights, result.scores, atol=1e-9)
