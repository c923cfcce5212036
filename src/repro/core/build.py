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
The build is staged and each stage is vectorized (see :data:`BUILD_STAGES`
and :class:`BuildProfile` for the profiling hooks):

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

With ``parallel=N`` the fine peel + ∃-wiring of each coarse layer and the
∀-wiring of each adjacent pair run in pool workers over a shared read-only
points buffer (:mod:`repro.core.parallel`); the coarse peel splits its
per-layer dominance scans across the same pool.  Workers return
:class:`~repro.core.structure.BuilderFragment` chunks that the parent merges
in coarse-layer order; because ``freeze`` deduplicates edges and emits
canonical CSR, the parallel structure is **array-equal** to the sequential
one (asserted by the tier-1 tests; the last timing of the three builds is
``git show 5b80d0f:BENCH_build.json``).

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
from repro.skyline.dominance import dominance_pairs, dominates_any
from repro.skyline.layers import skyline_layer_partition, skyline_layers

#: Stages recorded by :class:`BuildProfile`, in pipeline order.
BUILD_STAGES = ("coarse_peel", "fine_peel", "eds", "forall_gates", "freeze")


@dataclass
class BuildProfile:
    """Per-stage wall-clock accounting for one build.

    ``stage_seconds`` maps each :data:`BUILD_STAGES` entry to accumulated
    seconds.  In a parallel build the fine-peel/EDS/∀-gate entries sum the
    *workers'* in-task seconds (so stage shares stay comparable across
    modes) while ``wall_seconds`` is the parent's end-to-end wall clock;
    sequentially the two views coincide up to scheduling noise.
    """

    stage_seconds: dict[str, float] = field(
        default_factory=lambda: dict.fromkeys(BUILD_STAGES, 0.0)
    )
    wall_seconds: float = 0.0
    parallel: int | None = None

    def add(self, stage: str, seconds: float) -> None:
        self.stage_seconds[stage] = self.stage_seconds.get(stage, 0.0) + seconds

    def merge_stage_seconds(self, other: dict[str, float]) -> None:
        for stage, seconds in other.items():
            self.add(stage, seconds)

    def total_stage_seconds(self) -> float:
        return float(sum(self.stage_seconds.values()))

    def as_dict(self) -> dict:
        return {
            "stage_seconds": {k: float(v) for k, v in self.stage_seconds.items()},
            "wall_seconds": float(self.wall_seconds),
            "parallel": self.parallel,
        }


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
    parallel: int | None = None,
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
    parallel:
        ``N > 1`` ships per-coarse-layer work to ``N`` pool workers over a
        shared points buffer.  The resulting structure is array-equal to
        the sequential build.  ``None``/``1`` stays in-process.
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    builder = builder if builder is not None else StructureBuilder(points)
    profile = BuildProfile(parallel=parallel)
    wall_start = time.perf_counter()

    if parallel is not None and parallel > 1:
        coarse, leftover, fine_per_coarse, first_fine_facets = _parallel_pipeline(
            points,
            builder,
            profile,
            fine_sublayers=fine_sublayers,
            max_layers=max_layers,
            skyline_algorithm=skyline_algorithm,
            processes=parallel,
        )
    else:
        start = time.perf_counter()
        coarse, leftover = skyline_layers(points, skyline_algorithm, max_layers)
        profile.add("coarse_peel", time.perf_counter() - start)

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
                _wire_forall_gates(
                    builder, points, coarse[i - 1], layer, profile=profile
                )

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
    profile.wall_seconds = time.perf_counter() - wall_start
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
    profile: BuildProfile | None = None,
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
    if profile is not None:
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
    profile: BuildProfile | None = None,
) -> None:
    """Attach ∀-parents: dominators in the previous coarse layer."""
    start = time.perf_counter()
    i, j = dominance_pairs(points[prev_layer], points[layer])
    builder.add_forall_edges(layer[j], prev_layer[i])
    if profile is not None:
        profile.add("forall_gates", time.perf_counter() - start)


# ---------------------------------------------------------------------------
# Parallel pipeline: per-coarse-layer tasks over a shared points buffer.
# ---------------------------------------------------------------------------


def _fine_layer_task(
    layer: np.ndarray, coarse_index: int, enabled: bool
) -> tuple[list[np.ndarray], "BuilderFragment", list[Facet] | None, dict[str, float]]:
    """Worker: fine-peel one coarse layer, return its builder fragment."""
    from repro.core.parallel import worker_points

    points = worker_points()
    local_builder = StructureBuilder(points)
    local_profile = BuildProfile()
    sublayers, first_facets = _build_fine_sublayers(
        local_builder,
        points,
        layer,
        coarse_index=coarse_index,
        enabled=enabled,
        profile=local_profile,
    )
    return (
        sublayers,
        local_builder.extract_fragment(),
        first_facets if coarse_index == 0 else None,
        local_profile.stage_seconds,
    )


def _forall_task(
    prev_layer: np.ndarray, layer: np.ndarray
) -> tuple["BuilderFragment", float]:
    """Worker: ∀-edges between two adjacent coarse layers."""
    from repro.core.parallel import worker_points

    points = worker_points()
    start = time.perf_counter()
    local_builder = StructureBuilder(points)
    _wire_forall_gates(local_builder, points, prev_layer, layer)
    return local_builder.extract_fragment(), time.perf_counter() - start


def _dominated_rows_task(point_ids: np.ndarray, member_ids: np.ndarray) -> np.ndarray:
    """Worker: dominance mask of shared-buffer rows against member rows."""
    from repro.core.parallel import worker_points

    points = worker_points()
    return dominates_any(points[point_ids], points[member_ids])


def _parallel_pipeline(
    points: np.ndarray,
    builder: StructureBuilder,
    profile: BuildProfile,
    *,
    fine_sublayers: bool,
    max_layers: int | None,
    skyline_algorithm: str,
    processes: int,
) -> tuple[list[np.ndarray], np.ndarray, list[list[np.ndarray]], list[Facet]]:
    """Fan the per-coarse-layer stages out to a shared-memory pool.

    Fragments are merged into ``builder`` in coarse-layer order (∀-edge
    fragments after all fine fragments), but any order would do: ``freeze``
    deduplicates edges and emits canonical CSR, so merge order cannot leak
    into the frozen structure.
    """
    from repro.core.parallel import SharedPointsPool

    with SharedPointsPool(points, processes) as pool:
        start = time.perf_counter()
        if skyline_algorithm == "blocked":
            def scanner(point_ids: np.ndarray, member_ids: np.ndarray) -> np.ndarray:
                # Small scans aren't worth a round trip through the pool.
                if point_ids.shape[0] * member_ids.shape[0] < 16384:
                    return dominates_any(points[point_ids], points[member_ids])
                return _pool_dominance_scan(pool, point_ids, member_ids)

            coarse, leftover = skyline_layer_partition(
                points, max_layers, scanner=scanner
            )
        else:
            coarse, leftover = skyline_layers(points, skyline_algorithm, max_layers)
        profile.add("coarse_peel", time.perf_counter() - start)

        fine_futures = [
            pool.submit(_fine_layer_task, layer, i, fine_sublayers)
            for i, layer in enumerate(coarse)
        ]
        forall_futures = [
            pool.submit(_forall_task, coarse[i - 1], coarse[i])
            for i in range(1, len(coarse))
        ]

        fine_per_coarse: list[list[np.ndarray]] = []
        first_fine_facets: list[Facet] = []
        for i, future in enumerate(fine_futures):
            sublayers, fragment, first_facets, stage_seconds = future.result()
            builder.merge_fragment(fragment)
            fine_per_coarse.append(sublayers)
            if i == 0 and first_facets is not None:
                first_fine_facets = first_facets
            profile.merge_stage_seconds(stage_seconds)
        for future in forall_futures:
            fragment, seconds = future.result()
            builder.merge_fragment(fragment)
            profile.add("forall_gates", seconds)
    return coarse, leftover, fine_per_coarse, first_fine_facets


def _pool_dominance_scan(
    pool, point_ids: np.ndarray, member_ids: np.ndarray
) -> np.ndarray:
    """Split one dominance scan row-wise across the pool, keeping row order."""
    shard = -(-point_ids.shape[0] // pool.processes)
    futures = [
        pool.submit(
            _dominated_rows_task,
            point_ids[start : start + shard],
            member_ids,
        )
        for start in range(0, point_ids.shape[0], shard)
    ]
    return np.concatenate([f.result() for f in futures])
