"""Property-based tests: dynamic maintenance equals batch construction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.build import build_dual_layer
from repro.core.maintenance import DynamicDualLayerIndex
from repro.core.structure import layer_structures_equal
from repro.skyline import skyline_layers
from tests.structure_check import assert_structure_sound


@st.composite
def operation_sequences(draw):
    """A random interleaving of inserts and deletes in a small grid space."""
    d = draw(st.integers(2, 3))
    ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["insert", "delete"]),
                st.lists(
                    st.integers(0, 8), min_size=d, max_size=d
                ),
            ),
            min_size=1,
            max_size=40,
        )
    )
    return d, ops


@settings(max_examples=40, deadline=None)
@given(seq=operation_sequences())
def test_partition_matches_batch_peel_after_any_op_sequence(seq):
    d, ops = seq
    index = DynamicDualLayerIndex(d=d)
    live: list[int] = []
    for op, cells in ops:
        if op == "insert" or not live:
            point = np.asarray(cells, dtype=np.float64) / 8.0
            live.append(index.insert(point))
        else:
            victim = live.pop(len(live) // 2)
            index.delete(victim)

    if not live:
        return
    # Reference: batch skyline peel over the live points.
    ids = sorted(live)
    matrix = np.vstack([index.values_of(i) for i in ids])
    reference, _ = skyline_layers(matrix)
    position = {pid: pos for pos, pid in enumerate(ids)}
    maintained = [
        sorted(position[i] for i in layer) for layer in index.layers()
    ]
    assert maintained == [sorted(layer.tolist()) for layer in reference]


@settings(max_examples=25, deadline=None)
@given(seq=operation_sequences(), data=st.data())
def test_queries_correct_after_any_op_sequence(seq, data):
    d, ops = seq
    index = DynamicDualLayerIndex(d=d)
    live: list[int] = []
    for op, cells in ops:
        if op == "insert" or not live:
            live.append(index.insert(np.asarray(cells, dtype=np.float64) / 8.0))
        else:
            index.delete(live.pop(0))
    if not live:
        return
    raw = [data.draw(st.floats(0.05, 1.0, allow_nan=False)) for _ in range(d)]
    w = np.asarray(raw)
    ids = sorted(live)
    matrix = np.vstack([index.values_of(i) for i in ids])
    got_ids, got_scores = index.query(w, min(5, len(live)))
    from repro.relation import top_k_bruteforce

    _, ref_scores = top_k_bruteforce(matrix, w / w.sum(), min(5, len(live)))
    np.testing.assert_allclose(got_scores, ref_scores, atol=1e-9)


@pytest.mark.parametrize("fine", [True, False], ids=["DL", "DG"])
@settings(max_examples=25, deadline=None)
@given(seq=operation_sequences())
def test_rebuilt_structure_is_the_batch_build(fine, seq):
    """The lazily rebuilt structure is array-equal to a batch build over the
    live rows in id order, and sound.  A query halfway through builds a
    structure early, so later DG-mode inserts take the CSR splice."""
    d, ops = seq
    index = DynamicDualLayerIndex(d=d, fine_sublayers=fine)
    live: list[int] = []
    for step, (op, cells) in enumerate(ops):
        if op == "insert" or not live:
            live.append(index.insert(np.asarray(cells, dtype=np.float64) / 8.0))
        else:
            index.delete(live.pop(len(live) // 2))
        if step == len(ops) // 2 and live:
            index.query(np.ones(d), 1)
    if not live:
        return
    index.query(np.ones(d), 1)
    matrix = np.vstack([index.values_of(i) for i in sorted(live)])
    batch = build_dual_layer(matrix, fine_sublayers=fine).structure
    assert layer_structures_equal(index._structure, batch)
    assert_structure_sound(index._structure)
