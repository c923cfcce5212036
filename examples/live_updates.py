"""A live service: paging cursors and dynamic updates.

Simulates an interactive deployment of the dual-resolution index:

1. a user pages through results ("10 more") with a resumable cursor, paying
   only the marginal gate-openings per page;
2. hotels appear and disappear (price changes, sold-out rooms) through the
   dynamic index, which repairs its layers without re-peeling skylines.

Run:  python examples/live_updates.py
"""

from __future__ import annotations

import numpy as np

from repro.core import DLPlusIndex, DynamicDualLayerIndex, TopKCursor
from repro.data.hotels import synthetic_hotels


def main() -> None:
    relation, _ = synthetic_hotels(8000, seed=13)

    # --- 1. Page through results with a cursor ------------------------ #
    index = DLPlusIndex(relation, max_layers=40).build()
    weights = np.array([0.65, 0.35])  # price-conscious traveller
    cursor = TopKCursor(index.structure, weights)
    print("paging with a resumable cursor (10 per page):")
    for page in range(3):
        ids, scores = cursor.fetch(10)
        print(f"  page {page + 1}: hotels {ids[:4].tolist()}... "
              f"best score {scores[0]:.4f}, "
              f"cumulative cost {cursor.counter.total} tuples")
    flat_cost = index.query(weights, 30).cost
    print(f"  three pages cost {cursor.counter.total} evaluations; "
          f"a from-scratch top-30 costs {flat_cost}")

    # --- 2. Dynamic inserts and deletes ------------------------------- #
    print("\ndynamic maintenance (inserts and deletes, no re-peel):")
    dynamic = DynamicDualLayerIndex(d=2)
    rng = np.random.default_rng(7)
    ids = [dynamic.insert(row) for row in relation.matrix[:3000]]
    top_ids, top_scores = dynamic.query(weights, 5)
    print(f"  after 3000 inserts: top-5 {top_ids.tolist()} "
          f"({len(dynamic.layers())} layers)")

    # A new unbeatable hotel opens downtown:
    star = dynamic.insert(np.array([0.01, 0.02]))
    top_ids, _ = dynamic.query(weights, 5)
    assert int(top_ids[0]) == star
    print(f"  insert of a dominating hotel -> new top-1 is id {star}")

    # It sells out; the old order returns:
    dynamic.delete(star)
    restored, _ = dynamic.query(weights, 5)
    print(f"  after deleting it -> top-5 {restored.tolist()}")

    # Random churn keeps the partition exact (spot check one query):
    for _ in range(200):
        if rng.random() < 0.5 and ids:
            victim = ids.pop(int(rng.integers(len(ids))))
            dynamic.delete(victim)
        else:
            ids.append(dynamic.insert(rng.random(2)))
    got_ids, got_scores = dynamic.query(weights, 5)
    print(f"  after 200 random updates: top-5 scores "
          f"{np.round(got_scores, 4).tolist()} over {dynamic.n} live hotels")


if __name__ == "__main__":
    main()
