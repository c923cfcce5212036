"""Dynamic maintenance: insert/delete without re-peeling the skyline.

An extension beyond the paper (which builds statically).  A tuple's coarse
layer equals the length of its longest dominance chain, so single-tuple
updates perturb the partition locally:

* **insert** — binary-search the first layer whose members do not dominate
  the new tuple (the "dominated by layer i" predicate is monotone in i by
  transitivity), insert there, and cascade *demotions*: layer members
  dominated by an arriving tuple move exactly one layer down.
* **delete** — remove the tuple and cascade *promotions*: a tuple rises to
  the previous layer exactly when no member of that (updated) layer
  dominates it; a single deletion shortens any chain by at most one, so
  one-layer moves suffice.

The maintained partition always equals the from-scratch skyline peel
(asserted in the tests).  The gated structure (fine sublayers, ∀/∃ edges)
is rebuilt lazily from the partition on the next query — skipping the
skyline computation that dominates construction time.

CSR splicing
------------
When the index runs without fine sublayers (DG mode: coarse layers and
∀-gates only), the common insert — a tuple that lands in its layer without
demoting anyone — is applied to the frozen CSR structure *incrementally*
instead of dropping it: the new node's value row, layer level, ∀-parent
count and child slice are appended, and one ``np.insert`` pass splices the
node into each dominator's child slice (its local id is always the maximum,
so every splice point is a slice end and CSR ordering is preserved).  The
patched structure is array-equal to a from-scratch rebuild (asserted in
tests) at O(nodes + edges) copy cost, skipping the dominance wiring
entirely.  Inserts that cascade demotions, deletions, and fine-sublayer
indexes still take the lazy-rebuild path.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.core.build import build_from_partition
from repro.core.query import process_top_k
from repro.core.structure import LayerStructure
from repro.exceptions import EmptyRelationError, InvalidQueryError
from repro.skyline.dominance import dominance_matrix, dominates_any, dominators_of
from repro.stats import AccessCounter


def validate_tuple_id(tuple_id) -> int:
    """A write's tuple id as a plain ``int``.

    Python and numpy integers pass; anything else — ``bool`` included,
    since ``True`` would silently address tuple 1 — raises
    :class:`~repro.exceptions.InvalidQueryError`.  Shared by the dynamic
    index and the cluster coordinator.
    """
    if isinstance(tuple_id, bool) or not isinstance(tuple_id, (int, np.integer)):
        raise InvalidQueryError(f"tuple id must be an integer, got {tuple_id!r}")
    return int(tuple_id)


def validate_tuple(values, d: int) -> np.ndarray:
    """An inserted tuple as a finite float64 ``d``-vector, or
    :class:`~repro.exceptions.InvalidQueryError`."""
    try:
        row = np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise InvalidQueryError(
            f"tuple values must be numbers, got {values!r}"
        ) from exc
    if row.shape != (d,):
        raise InvalidQueryError(f"expected a {d}-vector, got shape {row.shape}")
    if not np.all(np.isfinite(row)):
        raise InvalidQueryError("tuple values must be finite")
    return row


class DynamicDualLayerIndex:
    """A mutable dual-resolution index over a growing/shrinking point set.

    Points are addressed by insertion-order ids (ids of deleted points are
    never reused).  Queries rebuild the gated structure lazily from the
    maintained layer partition.
    """

    def __init__(self, d: int, *, fine_sublayers: bool = True) -> None:
        if d < 1:
            raise InvalidQueryError(f"dimensionality must be >= 1, got {d}")
        self.d = d
        self.fine_sublayers = fine_sublayers
        #: Monotone structure version: bumped by every insert/delete, so a
        #: serving layer keying cached answers by version can never return
        #: a stale result (see :mod:`repro.serving`).
        self.version = 0
        self._points: list[np.ndarray] = []
        self._alive: list[bool] = []
        #: layer index per live point id; -1 for deleted.
        self._layer_of: dict[int, int] = {}
        self._layers: list[list[int]] = []
        self._structure = None
        self._id_map: np.ndarray | None = None
        #: How many inserts were applied by splicing the CSR structure
        #: in place of a lazy rebuild (diagnostics; see module docstring).
        self.patched_inserts = 0
        # Serializes the lazy structure rebuild so concurrent readers (the
        # serving engine's thread pool) never observe a half-built graph.
        self._rebuild_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Mutations
    # ------------------------------------------------------------------ #

    def insert(self, values: np.ndarray) -> int:
        """Insert a tuple; returns its id."""
        values = validate_tuple(values, self.d)
        point_id = len(self._points)
        self._points.append(values)
        self._alive.append(True)
        layer = self._first_non_dominating_layer(values)
        self._place(point_id, layer)
        demoted = self._cascade_demotions(layer, [point_id])
        with self._rebuild_lock:
            structure, id_map = self._structure, self._id_map
            if structure is not None and not demoted and self._patchable(structure):
                self._structure, self._id_map = self._splice_insert(
                    structure, id_map, point_id, values, layer
                )
                self.patched_inserts += 1
            else:
                self._structure = None
        self.version += 1
        return point_id

    def delete(self, point_id: int) -> None:
        """Delete a tuple by id."""
        point_id = validate_tuple_id(point_id)
        if not (0 <= point_id < len(self._points)) or not self._alive[point_id]:
            raise InvalidQueryError(f"no live tuple with id {point_id}")
        layer = self._layer_of.pop(point_id)
        self._alive[point_id] = False
        self._layers[layer].remove(point_id)
        self._cascade_promotions(layer)
        self._trim_empty_layers()
        self._structure = None
        self.version += 1

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    @property
    def n(self) -> int:
        """Number of live tuples."""
        return len(self._layer_of)

    def layers(self) -> list[list[int]]:
        """The maintained coarse-layer partition (ids per layer)."""
        return [list(layer) for layer in self._layers]

    def values_of(self, point_id: int) -> np.ndarray:
        """Attribute values of a live tuple."""
        if not self._alive[point_id]:
            raise InvalidQueryError(f"no live tuple with id {point_id}")
        return self._points[point_id]

    def query(
        self,
        weights: np.ndarray,
        k: int,
        counter: AccessCounter | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Top-k ``(ids, scores)``; rebuilds the gate structure if stale.

        ``counter`` optionally receives the Definition 9 cost accounting
        (the serving engine passes one per query).
        """
        if self.n == 0:
            raise EmptyRelationError("query on an empty dynamic index")
        with self._rebuild_lock:
            if self._structure is None:
                self._rebuild_structure()
            # Capture a consistent (structure, id_map) snapshot; concurrent
            # mutations replace both references rather than mutating them.
            structure, id_map = self._structure, self._id_map
        counter = counter if counter is not None else AccessCounter()
        from repro.relation import normalize_weights

        w = normalize_weights(weights, self.d)
        local_ids, scores = process_top_k(
            structure, w, min(k, self.n), counter
        )
        return id_map[local_ids], scores

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _layer_points(self, layer: int) -> np.ndarray:
        ids = self._layers[layer]
        return np.vstack([self._points[i] for i in ids]) if ids else np.empty((0, self.d))

    def _first_non_dominating_layer(self, values: np.ndarray) -> int:
        """Binary search: first layer whose members don't dominate ``values``."""
        lo, hi = 0, len(self._layers)
        while lo < hi:
            mid = (lo + hi) // 2
            dominated = bool(
                dominates_any(values[None, :], self._layer_points(mid))[0]
            )
            if dominated:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def _place(self, point_id: int, layer: int) -> None:
        while layer >= len(self._layers):
            self._layers.append([])
        self._layers[layer].append(point_id)
        self._layer_of[point_id] = layer

    def _cascade_demotions(self, layer: int, arrivals: list[int]) -> bool:
        """Arriving tuples push the members they dominate one layer down.

        Returns True when at least one incumbent moved (the CSR splice
        fast path only applies to demotion-free inserts).
        """
        any_demoted = False
        while arrivals and layer + 1 <= len(self._layers):
            incumbents = [i for i in self._layers[layer] if i not in arrivals]
            if not incumbents:
                break
            arrival_points = np.vstack([self._points[i] for i in arrivals])
            incumbent_points = np.vstack([self._points[i] for i in incumbents])
            demoted_mask = dominates_any(incumbent_points, arrival_points)
            demoted = [i for i, out in zip(incumbents, demoted_mask) if out]
            if not demoted:
                break
            any_demoted = True
            for i in demoted:
                self._layers[layer].remove(i)
                self._place(i, layer + 1)
            layer += 1
            arrivals = demoted
        return any_demoted

    def _cascade_promotions(self, layer: int) -> None:
        """After a removal at ``layer``, pull up newly undominated tuples."""
        current = layer
        while current + 1 < len(self._layers):
            above = self._layer_points(current)
            below_ids = list(self._layers[current + 1])
            if not below_ids:
                break
            below_points = np.vstack([self._points[i] for i in below_ids])
            if above.shape[0] == 0:
                promoted = below_ids
            else:
                dominated = dominates_any(below_points, above)
                promoted = [i for i, d in zip(below_ids, dominated) if not d]
            if not promoted:
                break
            for i in promoted:
                self._layers[current + 1].remove(i)
                self._layers[current].append(i)
                self._layer_of[i] = current
            current += 1
        self._trim_empty_layers()

    def _trim_empty_layers(self) -> None:
        while self._layers and not self._layers[-1]:
            self._layers.pop()

    def _patchable(self, structure: LayerStructure) -> bool:
        """True when an insert may splice ``structure``'s CSR arrays.

        The splice covers the coarse-only (DG-mode) graph: no fine
        sublayers to re-peel, no ∃-edges, static layer-0 seeds, no
        pseudo-tuples.  (The rebuild path never produces a selector or
        pseudo nodes here; the checks are defensive.)
        """
        return (
            not self.fine_sublayers
            and structure.seed_selector is None
            and structure.n_pseudo == 0
        )

    def _splice_insert(
        self,
        structure: LayerStructure,
        id_map: np.ndarray,
        point_id: int,
        values: np.ndarray,
        layer: int,
    ) -> tuple[LayerStructure, np.ndarray]:
        """Splice a demotion-free insert into the frozen CSR structure.

        Produces a new :class:`LayerStructure` that is array-equal to a
        from-scratch rebuild of the updated partition (the old structure
        object is left untouched for concurrent readers).  The new tuple's
        insertion-order id exceeds every live id, so its local id is the
        append position ``n`` and every CSR splice lands at a slice end:

        * its ∀-parents are its dominators in layer ``L-1`` — one
          ``np.insert`` pass appends node ``n`` to each dominator's child
          slice (``n`` is the largest id, so slice ordering is preserved);
        * its ∀-children are the layer ``L+1`` members it dominates — their
          parent counts increment and its own child slice lands at the end
          of the index array;
        * placement, seeds (for a layer-0 insert) and the value matrix
          extend by one row.
        """
        n_old = structure.n_real
        new_node = n_old
        matrix = structure.values

        def layer_locals(members: list[int]) -> np.ndarray:
            # Live point ids -> local node ids (positions in the sorted id
            # map; monotone, so sorted ids map to sorted locals).
            return np.searchsorted(id_map, np.asarray(sorted(members)))

        if layer > 0:
            prev_local = layer_locals(self._layers[layer - 1])
            parents = prev_local[dominators_of(values, matrix[prev_local])]
        else:
            parents = np.empty(0, dtype=np.intp)
        if layer + 1 < len(self._layers):
            next_local = layer_locals(self._layers[layer + 1])
            dominated = dominance_matrix(values[None, :], matrix[next_local])[0]
            children = next_local[dominated].astype(np.intp)
        else:
            children = np.empty(0, dtype=np.intp)

        forall_count = np.append(structure.forall_parent_count, parents.shape[0])
        forall_count[children] += 1

        # Splice node n into each parent's child slice (at the slice end),
        # then append n's own child slice; indptr entries after a parent
        # shift by the number of earlier splices.
        indptr = structure.forall_indptr
        indices = np.insert(structure.forall_indices, indptr[parents + 1], new_node)
        indices = np.concatenate([indices, children])
        shifted = indptr + np.cumsum(np.bincount(parents + 1, minlength=n_old + 1))
        forall_indptr = np.append(shifted, shifted[-1] + children.shape[0]).astype(
            np.intp
        )

        exists_indptr = np.append(
            structure.exists_indptr, structure.exists_indptr[-1]
        ).astype(np.intp)

        static_seeds = (
            np.append(structure.static_seeds, new_node).astype(np.intp)
            if layer == 0
            else structure.static_seeds
        )

        patched = LayerStructure(
            values=np.vstack([matrix, values[None, :]]),
            n_real=n_old + 1,
            forall_parent_count=forall_count,
            forall_indptr=forall_indptr,
            forall_indices=indices.astype(np.intp),
            exists_gated=np.append(structure.exists_gated, False),
            exists_indptr=exists_indptr,
            exists_indices=structure.exists_indices,
            static_seeds=static_seeds,
            seed_selector=None,
            coarse_levels=np.append(structure.coarse_levels, layer),
            fine_levels=np.append(structure.fine_levels, 0),
            num_coarse_layers=len(self._layers),
            complete=True,
        )
        return patched, np.append(id_map, point_id)

    def _rebuild_structure(self) -> None:
        """Rebuild the gated structure from the maintained partition.

        The coarse layers are already known, so the skyline peel — the
        dominant build cost — is skipped: the live rows (in id order) and
        their partition go straight to the batch build's
        :func:`~repro.core.build.build_from_partition`, so the result is
        the structure :func:`~repro.core.build.build_dual_layer` would
        build over the same rows.
        """
        live_ids = sorted(self._layer_of)
        self._id_map = np.asarray(live_ids, dtype=np.intp)
        position = {pid: pos for pos, pid in enumerate(live_ids)}
        matrix = np.vstack([self._points[i] for i in live_ids])
        layers_local = [
            np.asarray(sorted(position[i] for i in layer), dtype=np.intp)
            for layer in self._layers
        ]
        self._structure = build_from_partition(
            matrix,
            layers_local,
            np.empty(0, dtype=np.intp),
            fine_sublayers=self.fine_sublayers,
        ).structure
