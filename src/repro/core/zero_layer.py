"""§V: the virtual zero layer — selective access to the first layer.

All of ``L^{11}`` is ∀- and ∃-dominance-free, so plain DL gives it complete
access.  The zero layer fixes that:

* **2-D** (§V-A): the weight space collapses to ``w₁ ∈ (0, 1)``; a
  :class:`~repro.geometry.weight_ranges.WeightRangePartition` over the
  ``L^{11}`` chain picks the single top-1 tuple by binary search, and chain
  neighbors gate the rest of ``L^{11}`` (scores along a convex chain are
  unimodal in the chain position, so a tuple's inward neighbor always pops
  first).

* **d ≥ 3** (§V-B): k-means clusters ``L¹``; each cluster's componentwise
  minimum becomes a pseudo-tuple that (weakly) dominates all its members.
  For DL+ the pseudo set is itself peeled into fine sublayers with ∃-gates
  (richer than DG+'s flat pseudo layer), ∀-gates connect pseudo-tuples to
  every ``L¹`` member they dominate, and the first pseudo sublayer seeds the
  query.  Pseudo-tuples are scored (counted as ``counter.pseudo``) but never
  emitted.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from repro.clustering import kmeans
from repro.core.structure import StructureBuilder
from repro.geometry.convex_skyline import convex_skyline_with_facets
from repro.geometry.weight_ranges import WeightRangePartition
from repro.geometry.hull2d import lower_left_chain
from repro.core.eds import assign_covering_facets


def default_cluster_count(layer_size: int) -> int:
    """Cluster-count heuristic for the zero layer: ``max(2, ⌈√|L¹|⌉)``.

    The paper defers to DG's instructions [5] without printing the constant;
    √-scaling keeps the pseudo layer a vanishing fraction of ``L¹`` while
    shrinking clusters (hence tightening pseudo minima) as the layer grows.
    Exposed as a knob on the indexes and swept in an ablation benchmark.
    """
    return max(2, math.isqrt(max(layer_size - 1, 1)) + 1)


class PartitionSeedSelector:
    """Picklable seed selector: binary-search the weight-range partition."""

    def __init__(self, partition: WeightRangePartition) -> None:
        self.partition = partition

    def __call__(self, weights: np.ndarray) -> np.ndarray:
        return np.asarray(
            [self.partition.top1_id(float(weights[0]))], dtype=np.intp
        )


def attach_chain_zero_layer(
    builder: StructureBuilder,
    points: np.ndarray,
    first_sublayer: np.ndarray,
) -> WeightRangePartition:
    """Wire the 2-D weight-range zero layer (§V-A) into ``builder``.

    ``first_sublayer`` is ``L^{11}`` (global ids).  Installs a seed selector
    returning the partition's single top-1 candidate and gates every chain
    tuple on its chain neighbors.
    """
    chain_local = lower_left_chain(points[first_sublayer])
    chain_ids = first_sublayer[chain_local]
    partition = WeightRangePartition(points[chain_ids], chain_ids)

    members = set(int(node) for node in first_sublayer)
    for pos, node in enumerate(chain_ids):
        neighbors = []
        if pos > 0:
            neighbors.append(int(chain_ids[pos - 1]))
        if pos + 1 < chain_ids.shape[0]:
            neighbors.append(int(chain_ids[pos + 1]))
        builder.add_exists_parents(int(node), neighbors)
    # L^{11} members dropped from the chain (duplicates/collinear) gate on
    # the whole chain: some chain tuple always scores weakly below them.
    for node in members.difference(int(i) for i in chain_ids):
        builder.add_exists_parents(node, (int(i) for i in chain_ids))

    builder.static_seeds.clear()
    builder.seed_selector = PartitionSeedSelector(partition)
    return partition


def attach_clustered_zero_layer(
    builder: StructureBuilder,
    points: np.ndarray,
    first_coarse_layer: np.ndarray,
    *,
    clusters: int | None = None,
    fine_sublayers: bool = True,
    seed: int = 0,
) -> np.ndarray:
    """Wire the clustered pseudo-tuple zero layer (§V-B) into ``builder``.

    Returns the pseudo-tuple value matrix.  ``fine_sublayers=False`` gives
    DG+'s flat zero layer (every pseudo-tuple is a seed); True gives DL+'s
    dual-resolution zero layer (only the first pseudo sublayer seeds).
    """
    layer_points = points[first_coarse_layer]
    k = clusters if clusters is not None else default_cluster_count(layer_points.shape[0])
    result = kmeans(layer_points, k, seed=seed)

    # Componentwise cluster minima; deduplicate identical pseudo-tuples.
    minima = np.vstack(
        [layer_points[result.labels == c].min(axis=0) for c in range(result.k)]
    )
    minima = np.unique(minima, axis=0)

    pseudo_nodes = np.asarray(
        [builder.add_pseudo_node(row) for row in minima], dtype=np.intp
    )

    builder.static_seeds.clear()
    if fine_sublayers and minima.shape[0] > 1:
        remaining = np.arange(minima.shape[0], dtype=np.intp)
        prev_local: np.ndarray | None = None
        prev_facets: list | None = None
        j = 0
        while remaining.shape[0] > 0:
            local_vertices, local_facets = convex_skyline_with_facets(minima[remaining])
            sublayer_local = remaining[local_vertices]
            facets_local = [
                replace(f, members=remaining[f.members]) for f in local_facets
            ]
            if j == 0:
                builder.static_seeds.extend(
                    int(pseudo_nodes[p]) for p in sublayer_local
                )
            else:
                position_of = {int(p): pos for pos, p in enumerate(prev_local)}
                facets_positions = [
                    replace(
                        f,
                        members=np.asarray(
                            [position_of[int(p)] for p in f.members], dtype=np.intp
                        ),
                    )
                    for f in prev_facets
                ]
                assignments = assign_covering_facets(
                    minima[prev_local], facets_positions, minima[sublayer_local]
                )
                for local, parents in zip(sublayer_local, assignments):
                    builder.add_exists_parents(
                        int(pseudo_nodes[local]),
                        (int(pseudo_nodes[p]) for p in prev_local[parents]),
                    )
            for local in sublayer_local:
                builder.place(int(pseudo_nodes[local]), 0, j)
            mask = np.ones(remaining.shape[0], dtype=bool)
            mask[local_vertices] = False
            remaining = remaining[mask]
            prev_local = sublayer_local
            prev_facets = facets_local
            j += 1
    else:
        builder.static_seeds.extend(int(node) for node in pseudo_nodes)
        for node in pseudo_nodes:
            builder.place(int(node), 0, 0)

    # ∀-gates from pseudo-tuples to the L¹ members they weakly dominate.
    # Weak dominance is required (a singleton cluster's minimum equals its
    # member) and safe: F(pseudo) <= F(member) for every positive w.  The
    # test is exact: a cluster minimum is an exact componentwise minimum,
    # so it weakly dominates every member of its cluster.
    weak = np.all(minima[:, None, :] <= layer_points[None, :, :], axis=2)
    for col, node in enumerate(first_coarse_layer):
        parents = pseudo_nodes[np.nonzero(weak[:, col])[0]]
        builder.add_forall_parents(int(node), (int(p) for p in parents))
    return minima
