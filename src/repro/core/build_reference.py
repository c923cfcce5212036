"""Reference BuildDualLayer: the original per-node Algorithm 1 oracle.

This is the pre-pipeline implementation of :mod:`repro.core.build`, kept
verbatim (per-node ``place`` calls, dict-based facet remap, dense
``dominance_matrix`` column walk, iterated ``sfs`` peel by default).  It is
deliberately *slow and obvious*: the vectorized pipeline is asserted
array-equal against it — same CSR indptr/indices, levels and seeds
— by the tier-1 tests, the same oracle discipline the query kernel uses
with ``process_top_k_reference``.  Its last timing against the pipeline
is ``git show 5b80d0f:BENCH_build.json``.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.core.build import DualLayerBlueprint
from repro.core.eds import assign_covering_facets
from repro.core.structure import StructureBuilder
from repro.geometry.convex_skyline import convex_skyline_with_facets
from repro.geometry.facets import Facet
from repro.skyline.dominance import dominance_matrix
from repro.skyline.layers import skyline_layers


def build_dual_layer_reference(
    points: np.ndarray,
    *,
    fine_sublayers: bool = True,
    max_layers: int | None = None,
    skyline_algorithm: str = "sfs",
    builder: StructureBuilder | None = None,
    freeze: bool = True,
) -> DualLayerBlueprint:
    """Original one-node-at-a-time build; the pipeline's equality oracle."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    builder = builder if builder is not None else StructureBuilder(points)

    coarse, leftover = skyline_layers(points, skyline_algorithm, max_layers)
    builder.num_coarse_layers = len(coarse)
    builder.complete = leftover.shape[0] == 0

    fine_per_coarse: list[list[np.ndarray]] = []
    first_fine_facets: list[Facet] = []
    for i, layer in enumerate(coarse):
        sublayers, facets_of_first = _build_fine_sublayers_reference(
            builder, points, layer, coarse_index=i, enabled=fine_sublayers
        )
        fine_per_coarse.append(sublayers)
        first_fine_facets = facets_of_first if i == 0 else first_fine_facets
        if i > 0:
            _wire_forall_gates_reference(builder, points, coarse[i - 1], layer)

    if coarse:
        builder.static_seeds.extend(int(node) for node in fine_per_coarse[0][0])

    structure = builder.freeze() if freeze else None
    return DualLayerBlueprint(
        structure=structure,
        coarse_layers=coarse,
        fine_layers=fine_per_coarse,
        first_fine_facets=first_fine_facets,
        leftover=leftover,
    )


def _build_fine_sublayers_reference(
    builder: StructureBuilder,
    points: np.ndarray,
    layer: np.ndarray,
    *,
    coarse_index: int,
    enabled: bool,
) -> tuple[list[np.ndarray], list[Facet]]:
    """Per-node fine peel: scalar ``place`` calls, global facet remaps."""
    if not enabled:
        for node in layer:
            builder.place(int(node), coarse_index, 0)
        return [layer], [Facet(members=layer)]

    sublayers: list[np.ndarray] = []
    first_facets: list[Facet] = []
    remaining = layer
    prev_sublayer: np.ndarray | None = None
    prev_facets_global: list[Facet] = []
    j = 0
    while remaining.shape[0] > 0:
        local_vertices, local_facets = convex_skyline_with_facets(points[remaining])
        sublayer = remaining[local_vertices]
        facets_global = [
            replace(f, members=remaining[f.members]) for f in local_facets
        ]
        if j == 0:
            first_facets = facets_global
        else:
            _wire_exists_gates_reference(
                builder, points, prev_sublayer, prev_facets_global, sublayer
            )
        for node in sublayer:
            builder.place(int(node), coarse_index, j)
        sublayers.append(np.sort(sublayer).astype(np.intp))
        mask = np.ones(remaining.shape[0], dtype=bool)
        mask[local_vertices] = False
        remaining = remaining[mask]
        prev_sublayer = sublayer
        prev_facets_global = facets_global
        j += 1
    return sublayers, first_facets


def _wire_exists_gates_reference(
    builder: StructureBuilder,
    points: np.ndarray,
    prev_sublayer: np.ndarray,
    prev_facets_global: list[Facet],
    sublayer: np.ndarray,
) -> None:
    """Dict-based facet remap + one ``add_exists_parents`` call per node."""
    position_of = {int(node): pos for pos, node in enumerate(prev_sublayer)}
    local_facets = [
        replace(
            facet,
            members=np.asarray(
                [position_of[int(node)] for node in facet.members], dtype=np.intp
            ),
        )
        for facet in prev_facets_global
    ]
    assignments = assign_covering_facets(
        points[prev_sublayer], local_facets, points[sublayer]
    )
    for node, parents_local in zip(sublayer, assignments):
        builder.add_exists_parents(int(node), prev_sublayer[parents_local])


def _wire_forall_gates_reference(
    builder: StructureBuilder,
    points: np.ndarray,
    prev_layer: np.ndarray,
    layer: np.ndarray,
) -> None:
    """Dense dominance matrix + one ``add_forall_parents`` call per column."""
    matrix = dominance_matrix(points[prev_layer], points[layer])
    for col, node in enumerate(layer):
        parents = prev_layer[np.nonzero(matrix[:, col])[0]]
        if parents.shape[0]:
            builder.add_forall_parents(int(node), parents)
