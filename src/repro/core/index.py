"""Public DL / DL+ indexes — the paper's proposed algorithms.

:class:`DLIndex` is the dual-resolution layer of §III–IV: skyline coarse
layers, convex-skyline fine sublayers, ∀/∃-dominance gating.

:class:`DLPlusIndex` adds the §V zero layer for selective access to
``L^{11}``: a weight-range partition in 2-D, a dual-resolution clustered
pseudo-tuple layer in d ≥ 3.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.base import TopKIndex
from repro.core.build import build_dual_layer
from repro.core.query import process_top_k
from repro.core.structure import StructureBuilder
from repro.core.zero_layer import attach_chain_zero_layer, attach_clustered_zero_layer
from repro.relation import Relation
from repro.stats import AccessCounter


class DLIndex(TopKIndex):
    """Dual-resolution layer index (the paper's DL).

    Once built, ``self.structure`` is a frozen
    :class:`~repro.core.structure.LayerStructure` that is never mutated by
    queries — any number of threads may traverse it concurrently as long as
    each query keeps its own :class:`~repro.stats.AccessCounter` and heap
    (which :func:`~repro.core.query.process_top_k` and
    :class:`~repro.core.cursor.TopKCursor` do).  The serving engine
    (:mod:`repro.serving`) relies on this contract.

    Parameters
    ----------
    relation:
        Target relation.
    max_layers:
        Optional bound on materialized coarse layers; queries then support
        ``k <= max_layers``.  Benchmarks use this to build exactly the
        layers a workload can reach.
    skyline_algorithm:
        Coarse-layer skyline routine (``blocked`` default; ``sfs``, ``bnl``
        and ``bskytree`` run the classic iterated peel — the partition is
        identical either way).
    """

    name = "DL"
    _fine_sublayers = True
    #: Hook for tests/benchmarks to substitute a build implementation
    #: (e.g. the per-node oracle in :mod:`repro.core.build_reference`).
    _build_dual_layer = staticmethod(build_dual_layer)

    def __init__(
        self,
        relation: Relation,
        *,
        max_layers: int | None = None,
        skyline_algorithm: str = "blocked",
    ) -> None:
        super().__init__(relation)
        self.max_layers = max_layers
        self.skyline_algorithm = skyline_algorithm
        self.structure = None
        self.blueprint = None

    def _build(self) -> None:
        blueprint = self._build_dual_layer(
            self.relation.matrix,
            fine_sublayers=self._fine_sublayers,
            max_layers=self.max_layers,
            skyline_algorithm=self.skyline_algorithm,
        )
        self.blueprint = blueprint
        self.structure = blueprint.structure
        self._record_stats()

    def _record_stats(self) -> None:
        blueprint = self.blueprint
        self.build_stats.num_layers = len(blueprint.coarse_layers)
        self.build_stats.layer_sizes = [
            int(layer.shape[0]) for layer in blueprint.coarse_layers
        ]
        profile = getattr(blueprint, "profile", None)
        if profile is not None:
            self.build_stats.stage_seconds = {
                stage: float(seconds)
                for stage, seconds in profile.stage_seconds.items()
            }
        counts = self.structure.edge_counts()
        self.build_stats.extra.update(counts)
        self.build_stats.extra["fine_sublayers"] = float(
            sum(len(sublayers) for sublayers in blueprint.fine_layers)
        )
        self.build_stats.extra["pseudo_tuples"] = float(self.structure.n_pseudo)

    def _query(
        self, weights: np.ndarray, k: int, counter: AccessCounter
    ) -> tuple[np.ndarray, np.ndarray]:
        return process_top_k(self.structure, weights, k, counter)

    def cursor(self, weights: np.ndarray) -> "TopKCursor":
        """A resumable paging cursor over this index for one weight vector."""
        from repro.core.cursor import TopKCursor

        if not self._built:
            self.build()
        return TopKCursor(self.structure, weights)


class DLPlusIndex(DLIndex):
    """DL with the §V zero layer (the paper's DL+).

    Parameters
    ----------
    clusters:
        k-means cluster count for the d ≥ 3 zero layer; default
        ``max(2, ⌈√|L¹|⌉)`` (see
        :func:`repro.core.zero_layer.default_cluster_count`).
    zero_layer:
        ``"auto"`` (weight ranges in 2-D, clusters otherwise),
        ``"chain"`` (force 2-D weight ranges; requires d == 2) or
        ``"clusters"`` (force clustered pseudo-tuples).
    seed:
        Seed for k-means.
    """

    name = "DL+"

    def __init__(
        self,
        relation: Relation,
        *,
        max_layers: int | None = None,
        skyline_algorithm: str = "blocked",
        clusters: int | None = None,
        zero_layer: str = "auto",
        seed: int = 0,
    ) -> None:
        super().__init__(
            relation,
            max_layers=max_layers,
            skyline_algorithm=skyline_algorithm,
        )
        if zero_layer not in ("auto", "chain", "clusters"):
            raise ValueError(f"unknown zero_layer mode {zero_layer!r}")
        if zero_layer == "chain" and relation.d != 2:
            raise ValueError("the weight-range zero layer is a 2-D construction")
        self.clusters = clusters
        self.zero_layer = zero_layer
        self.seed = seed
        self.weight_partition = None

    def _build(self) -> None:
        points = self.relation.matrix
        builder = StructureBuilder(points)
        blueprint = self._build_dual_layer(
            points,
            fine_sublayers=self._fine_sublayers,
            max_layers=self.max_layers,
            skyline_algorithm=self.skyline_algorithm,
            builder=builder,
            freeze=False,
        )
        profile = blueprint.profile
        if blueprint.coarse_layers:
            # The zero layer is ∀-gate wiring (pseudo tuples over L¹), so
            # its attach is timed under forall_gates.
            start = time.perf_counter()
            use_chain = self.zero_layer == "chain" or (
                self.zero_layer == "auto" and self.relation.d == 2
            )
            if use_chain:
                self.weight_partition = attach_chain_zero_layer(
                    builder, points, blueprint.fine_layers[0][0]
                )
            else:
                attach_clustered_zero_layer(
                    builder,
                    points,
                    blueprint.coarse_layers[0],
                    clusters=self.clusters,
                    fine_sublayers=self._fine_sublayers,
                    seed=self.seed,
                )
            profile.add("forall_gates", time.perf_counter() - start)
        start = time.perf_counter()
        blueprint.structure = builder.freeze()
        profile.add("freeze", time.perf_counter() - start)
        self.blueprint = blueprint
        self.structure = blueprint.structure
        self._record_stats()
