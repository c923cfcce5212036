"""Algorithm 1: BuildDualLayer — constructing the dual-resolution layer.

Coarse layers are iterated skylines; each coarse layer is peeled into fine
sublayers by iterated convex skylines; ∃-dominance gates connect adjacent
sublayers through lower-hull facets; ∀-dominance gates connect adjacent
coarse layers through plain dominance.

The same builder also produces the DG structure (``fine_sublayers=False``:
one sublayer per coarse layer, no ∃-gates), which is exactly the paper's
framing of DG as "a dual-resolution index that employs only coarse-level
layers" — and what makes the Theorem 5 cost comparison apples-to-apples.

Pipeline
--------
The build is one sequential, staged loop and each stage is vectorized (see
:data:`BUILD_STAGES` and :class:`BuildProfile` for the profiling hooks):

1. **coarse_peel** — skyline-layer partition (``"blocked"`` by default; see
   :func:`repro.skyline.layers.skyline_layer_partition`).
2. **fine_peel** — per coarse layer, iterated convex-skyline sublayers;
   placements land in the builder as whole-array chunks.
3. **eds** — ∃-gate wiring between adjacent sublayers; facet members are
   remapped with one ``searchsorted`` against the ascending vertex list and
   the covering-facet assignment is batched in :mod:`repro.core.eds`.
4. **forall_gates** — ∀-edges from :func:`~repro.skyline.dominance.
   dominance_pairs`, ingested as flat ``(children, parents)`` arrays.
5. **freeze** — canonical CSR assembly in
   :meth:`~repro.core.structure.StructureBuilder.freeze`.

:func:`build_dual_layer` runs stage 1 and hands the partition to
:func:`build_from_partition`, which runs stages 2–5.  The dynamic index
(:mod:`repro.core.maintenance`) maintains the partition itself and calls
:func:`build_from_partition` directly.

There is no parallel mode.  A shared-memory process pool that fanned the
per-layer stages out to workers was timed slower than this loop on every
host it ran on (IND d=4 n=100k, ``max_layers`` 10: 10.9 s with 4 workers
vs 6.1 s sequential on 1 CPU; 7.75–8.45 s with 2 workers vs 7.40–7.51 s on
2 vCPUs) and was removed.

The original per-node implementation is preserved verbatim as
:mod:`repro.core.build_reference` and serves as the oracle.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.eds import assign_covering_facets
from repro.core.structure import LayerStructure, StructureBuilder
from repro.geometry.convex_skyline import convex_skyline_with_facets
from repro.geometry.facets import Facet
from repro.skyline.dominance import dominance_pairs
from repro.skyline.layers import skyline_layers

#: Stages recorded by :class:`BuildProfile`, in pipeline order.
BUILD_STAGES = ("coarse_peel", "fine_peel", "eds", "forall_gates", "freeze")


@dataclass
class BuildProfile:
    """Per-stage wall-clock accounting for one build.

    ``stage_seconds`` maps each :data:`BUILD_STAGES` entry to the seconds
    the build spent in it.  A DL+/DG+ build's zero-layer attach (the
    pseudo tuples and their ∀-edges to L¹) is counted under
    ``forall_gates``, and its freeze, which runs after the attach, under
    ``freeze``.
    """

    stage_seconds: dict[str, float] = field(
        default_factory=lambda: dict.fromkeys(BUILD_STAGES, 0.0)
    )

    def add(self, stage: str, seconds: float) -> None:
        self.stage_seconds[stage] = self.stage_seconds.get(stage, 0.0) + seconds


@dataclass
class DualLayerBlueprint:
    """Construction by-products useful for zero layers, stats and tests."""

    structure: LayerStructure
    coarse_layers: list[np.ndarray]
    fine_layers: list[list[np.ndarray]]
    first_fine_facets: list[Facet] = field(default_factory=list)
    leftover: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.intp))
    profile: BuildProfile = field(default_factory=BuildProfile)


def build_dual_layer(
    points: np.ndarray,
    *,
    fine_sublayers: bool = True,
    max_layers: int | None = None,
    skyline_algorithm: str = "blocked",
    builder: StructureBuilder | None = None,
    freeze: bool = True,
) -> DualLayerBlueprint:
    """Build the dual-resolution layer structure over ``points``.

    Parameters
    ----------
    points:
        ``(n, d)`` relation values.
    fine_sublayers:
        True → DL (convex-skyline sublayers + ∃-gates); False → DG
        (coarse layers and ∀-gates only).
    max_layers:
        Bound on the number of coarse layers; the remainder of the relation
        is left unindexed (queries are then valid for ``k <= max_layers``).
    skyline_algorithm:
        Which skyline routine peels the coarse layers (``blocked`` default;
        ``sfs`` / ``bnl`` / ``bskytree`` run the classic iterated peel and
        produce the identical partition).
    builder / freeze:
        Advanced hooks for the zero-layer decorators: pass a pre-made
        builder and/or delay freezing to splice in extra nodes and gates.
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    start = time.perf_counter()
    coarse, leftover = skyline_layers(points, skyline_algorithm, max_layers)
    peel_seconds = time.perf_counter() - start
    blueprint = build_from_partition(
        points,
        coarse,
        leftover,
        fine_sublayers=fine_sublayers,
        builder=builder,
        freeze=freeze,
    )
    blueprint.profile.add("coarse_peel", peel_seconds)
    return blueprint


def build_from_partition(
    points: np.ndarray,
    coarse: list[np.ndarray],
    leftover: np.ndarray,
    *,
    fine_sublayers: bool = True,
    builder: StructureBuilder | None = None,
    freeze: bool = True,
) -> DualLayerBlueprint:
    """Build the gated structure over a given coarse-layer partition.

    ``points`` is an ``(n, d)`` float64 matrix; ``coarse`` holds each
    skyline layer as an ascending array of row ids into it, and
    ``leftover`` the rows beyond the last kept layer (empty for a complete
    index).  Runs the fine peel, the ∃- and ∀-gate wiring, the static
    seeds and (unless ``freeze=False``) the freeze; ``fine_sublayers``,
    ``builder`` and ``freeze`` mean what they mean for
    :func:`build_dual_layer`.
    """
    builder = builder if builder is not None else StructureBuilder(points)
    profile = BuildProfile()

    fine_per_coarse = []
    first_fine_facets: list[Facet] = []
    for i, layer in enumerate(coarse):
        sublayers, facets_of_first = _build_fine_sublayers(
            builder,
            points,
            layer,
            coarse_index=i,
            enabled=fine_sublayers,
            profile=profile,
        )
        fine_per_coarse.append(sublayers)
        first_fine_facets = facets_of_first if i == 0 else first_fine_facets
        if i > 0:
            _wire_forall_gates(builder, points, coarse[i - 1], layer, profile)

    builder.num_coarse_layers = len(coarse)
    builder.complete = leftover.shape[0] == 0

    # Seeds: the first fine sublayer of the first coarse layer (L^{11}).
    if coarse:
        builder.static_seeds.extend(int(node) for node in fine_per_coarse[0][0])

    if freeze:
        start = time.perf_counter()
        structure = builder.freeze()
        profile.add("freeze", time.perf_counter() - start)
    else:
        structure = None
    return DualLayerBlueprint(
        structure=structure,
        coarse_layers=coarse,
        fine_layers=fine_per_coarse,
        first_fine_facets=first_fine_facets,
        leftover=leftover,
        profile=profile,
    )


def _build_fine_sublayers(
    builder: StructureBuilder,
    points: np.ndarray,
    layer: np.ndarray,
    *,
    coarse_index: int,
    enabled: bool,
    profile: BuildProfile,
) -> tuple[list[np.ndarray], list[Facet]]:
    """Peel one coarse layer into fine sublayers and wire ∃-gates.

    Returns ``(sublayers, facets_of_first_sublayer)`` with sublayers/facets
    as *global* node-id arrays.
    """
    if not enabled:
        builder.place_many(layer, coarse_index, 0)
        return [layer], [Facet(members=layer)]

    fine_start = time.perf_counter()
    eds_seconds = 0.0
    sublayers: list[np.ndarray] = []
    first_facets: list[Facet] = []
    remaining = layer
    prev_sublayer: np.ndarray | None = None
    prev_facets: list[Facet] = []
    prev_vertices: np.ndarray | None = None
    j = 0
    while remaining.shape[0] > 0:
        local_vertices, local_facets = convex_skyline_with_facets(points[remaining])
        sublayer = remaining[local_vertices]
        if j == 0:
            # Only the chain entry needs facets in global ids (zero-layer
            # decorators consume them); later hops stay in local positions
            # and are remapped lazily inside _wire_exists_gates.
            first_facets = [
                replace(f, members=remaining[f.members]) for f in local_facets
            ]
        else:
            eds_start = time.perf_counter()
            _wire_exists_gates(
                builder, points, prev_sublayer, prev_facets, prev_vertices, sublayer
            )
            eds_seconds += time.perf_counter() - eds_start
        builder.place_many(sublayer, coarse_index, j)
        sublayers.append(np.sort(sublayer).astype(np.intp))
        mask = np.ones(remaining.shape[0], dtype=bool)
        mask[local_vertices] = False
        remaining = remaining[mask]
        prev_sublayer = sublayer
        prev_facets = local_facets
        prev_vertices = local_vertices
        j += 1
    profile.add("eds", eds_seconds)
    profile.add("fine_peel", time.perf_counter() - fine_start - eds_seconds)
    return sublayers, first_facets


def _wire_exists_gates(
    builder: StructureBuilder,
    points: np.ndarray,
    prev_sublayer: np.ndarray,
    prev_facets: list[Facet],
    prev_vertices: np.ndarray,
    sublayer: np.ndarray,
) -> None:
    """Attach each new-sublayer node to one covering EDS of the previous one.

    ``prev_facets`` members index into the array the previous sublayer was
    peeled *from*; ``prev_vertices`` is the ascending vertex list of that
    peel, so one ``searchsorted`` per facet remaps members to positions in
    ``prev_sublayer``'s order (hyperplane data is position-independent and
    carried over).
    """
    local_facets = [
        replace(
            facet,
            members=np.searchsorted(prev_vertices, facet.members).astype(np.intp),
        )
        for facet in prev_facets
    ]
    assignments = assign_covering_facets(
        points[prev_sublayer], local_facets, points[sublayer]
    )
    lengths = np.fromiter(
        (a.shape[0] for a in assignments), dtype=np.intp, count=len(assignments)
    )
    builder.add_exists_edges(
        np.repeat(sublayer, lengths),
        prev_sublayer[np.concatenate(assignments)],
    )


def _wire_forall_gates(
    builder: StructureBuilder,
    points: np.ndarray,
    prev_layer: np.ndarray,
    layer: np.ndarray,
    profile: BuildProfile,
) -> None:
    """Attach ∀-parents: dominators in the previous coarse layer."""
    start = time.perf_counter()
    i, j = dominance_pairs(points[prev_layer], points[layer])
    builder.add_forall_edges(layer[j], prev_layer[i])
    profile.add("forall_gates", time.perf_counter() - start)
