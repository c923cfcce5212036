"""The gated layer graph: nodes, ∀-gates, ∃-gates, and seed selection.

Top-k processing over layer indexes is a graph-traversal problem (§IV).
This module holds the traversal-ready representation shared by DL, DL+, DG
and DG+:

* *nodes* are real tuples (ids ``0..n_real-1``) plus optional zero-layer
  pseudo-tuples (ids ``>= n_real``);
* a node's **∀-gate** (Definition 7) opens when *all* of its ∀-parents have
  been popped into the answer;
* a node's **∃-gate** (Definition 8) opens when *any* of its ∃-parents has
  been popped;
* a node may be *accessed* — scored and enqueued — only when both gates are
  open (Theorem 3);
* the *seeds* are the nodes whose gates are open at query start (``L^{11}``
  for plain DL; the zero layer's first sublayer for DL+; a single
  weight-range entry tuple in 2-D).

Construction code appends edges through :class:`StructureBuilder`; the
frozen :class:`LayerStructure` is what the query engine consumes.

Memory layout
-------------
Child adjacency is stored in **CSR form**: ``forall_indices[forall_indptr
[p]:forall_indptr[p + 1]]`` are the ∀-children of node ``p`` (likewise
``exists_*`` for ∃-children), both ``np.intp``.  The traversal hot path
(:func:`repro.core.query.process_top_k`) slices these flat arrays directly
— one bounds lookup and one view per pop instead of a Python list of
per-node arrays — and relaxes whole child slices with numpy ops.  Layer
placement is likewise array-backed (``coarse_levels`` / ``fine_levels``,
``-1`` for unplaced nodes); :class:`LayerLevelMap` keeps the historical
dict-style access (``structure.coarse_of[node]`` / ``.get(node)``) working
on top of the arrays.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

import numpy as np

from repro.exceptions import IndexConstructionError


class CSRAdjacency:
    """Read-only per-node view over a CSR ``(indptr, indices)`` pair.

    Supports the per-node access pattern of the pre-CSR representation —
    ``adjacency[node]`` returns the node's child ids as an ``np.intp``
    array (a zero-copy slice of the flat index array) — so callers written
    against ``list[np.ndarray]`` adjacency keep working unchanged.
    """

    __slots__ = ("indptr", "indices")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray) -> None:
        self.indptr = indptr
        self.indices = indices

    def __getitem__(self, node: int) -> np.ndarray:
        if node < 0:  # forbid python negative indexing: node ids are >= 0
            raise IndexError(f"node id must be >= 0, got {node}")
        return self.indices[self.indptr[node] : self.indptr[node + 1]]

    def __len__(self) -> int:
        return self.indptr.shape[0] - 1

    def __iter__(self):
        for node in range(len(self)):
            yield self[node]


class LayerLevelMap:
    """Dict-compatible view over an array of per-node layer levels.

    ``levels[node] == -1`` encodes "not placed" and maps to the dict
    behaviours existing callers rely on: ``map[node]`` raises ``KeyError``,
    ``map.get(node)`` returns the default, ``node in map`` is False.
    """

    __slots__ = ("levels",)

    def __init__(self, levels: np.ndarray) -> None:
        self.levels = levels

    def __getitem__(self, node: int) -> int:
        if 0 <= node < self.levels.shape[0]:
            level = self.levels[node]
            if level >= 0:
                return int(level)
        raise KeyError(node)

    def get(self, node: int, default=None):
        if 0 <= node < self.levels.shape[0]:
            level = self.levels[node]
            if level >= 0:
                return int(level)
        return default

    def __contains__(self, node) -> bool:
        return self.get(node) is not None

    def __len__(self) -> int:
        return int(np.count_nonzero(self.levels >= 0))

    def __iter__(self):
        return iter(np.nonzero(self.levels >= 0)[0].tolist())

    def items(self):
        for node in self:
            yield node, int(self.levels[node])


class StructureBuilder:
    """Mutable accumulator for nodes and gates during index construction.

    Two ingestion granularities share one store:

    * the scalar API (:meth:`place`, :meth:`add_forall_parents`,
      :meth:`add_exists_parents`) used by the zero-layer decorators and the
      per-node reference build;
    * the bulk API (:meth:`place_many`, :meth:`add_forall_edges`,
      :meth:`add_exists_edges`) used by the vectorized pipeline — whole
      arrays per call, no per-node Python loop.

    Everything is accumulated as ``(child, parent)`` edge chunks and
    placement chunks; :meth:`freeze` deduplicates, validates, and emits the
    **canonical** CSR layout: per-parent child runs sorted ascending.  The
    canonical order makes the frozen structure independent of ingestion
    order, which is what lets the vectorized pipeline compare array-equal
    to the per-node reference build.
    """

    def __init__(self, real_values: np.ndarray) -> None:
        self.real_values = np.atleast_2d(np.asarray(real_values, dtype=np.float64))
        self.n_real = self.real_values.shape[0]
        self.pseudo_values: list[np.ndarray] = []
        #: Edge chunks: pairs of equal-length (children, parents) arrays.
        self._forall_chunks: list[tuple[np.ndarray, np.ndarray]] = []
        self._exists_chunks: list[tuple[np.ndarray, np.ndarray]] = []
        #: Placement chunks: (nodes, coarse_levels, fine_levels) arrays,
        #: applied in order at freeze (last placement of a node wins).
        self._placement_chunks: list[
            tuple[np.ndarray, np.ndarray, np.ndarray]
        ] = []
        #: Scalar-place buffer, flushed into the chunk list lazily.
        self._pending_nodes: list[int] = []
        self._pending_coarse: list[int] = []
        self._pending_fine: list[int] = []
        self.static_seeds: list[int] = []
        self.seed_selector: Callable[[np.ndarray], np.ndarray] | None = None
        self.num_coarse_layers = 0
        self.complete = True

    def add_pseudo_node(self, value: np.ndarray) -> int:
        """Register a zero-layer pseudo-tuple; returns its node id."""
        node = self.n_real + len(self.pseudo_values)
        self.pseudo_values.append(np.asarray(value, dtype=np.float64))
        return node

    def place(self, node: int, coarse: int, fine: int) -> None:
        """Record the (coarse, fine) layer of a node and mark it materialized."""
        self._pending_nodes.append(node)
        self._pending_coarse.append(coarse)
        self._pending_fine.append(fine)

    def place_many(
        self,
        nodes: np.ndarray,
        coarse: int | np.ndarray,
        fine: int | np.ndarray,
    ) -> None:
        """Bulk :meth:`place`: one chunk of nodes with scalar or per-node levels."""
        nodes = np.asarray(nodes, dtype=np.intp)
        self._flush_pending()
        self._placement_chunks.append(
            (
                nodes,
                np.broadcast_to(np.asarray(coarse, dtype=np.int64), nodes.shape),
                np.broadcast_to(np.asarray(fine, dtype=np.int64), nodes.shape),
            )
        )

    def _flush_pending(self) -> None:
        if self._pending_nodes:
            self._placement_chunks.append(
                (
                    np.asarray(self._pending_nodes, dtype=np.intp),
                    np.asarray(self._pending_coarse, dtype=np.int64),
                    np.asarray(self._pending_fine, dtype=np.int64),
                )
            )
            self._pending_nodes = []
            self._pending_coarse = []
            self._pending_fine = []

    def add_forall_parents(self, node: int, parents: Iterable[int]) -> None:
        """Attach ∀-parents (all must pop before ``node`` opens)."""
        parents = np.asarray(
            [int(p) for p in parents] if not isinstance(parents, np.ndarray)
            else parents,
            dtype=np.intp,
        )
        if parents.shape[0]:
            self._forall_chunks.append(
                (np.full(parents.shape[0], node, dtype=np.intp), parents)
            )

    def add_exists_parents(self, node: int, parents: Iterable[int]) -> None:
        """Attach ∃-parents (any popping opens ``node``'s ∃-gate)."""
        parents = np.asarray(
            [int(p) for p in parents] if not isinstance(parents, np.ndarray)
            else parents,
            dtype=np.intp,
        )
        if parents.shape[0]:
            self._exists_chunks.append(
                (np.full(parents.shape[0], node, dtype=np.intp), parents)
            )

    def add_forall_edges(self, children: np.ndarray, parents: np.ndarray) -> None:
        """Bulk ∀-edges: parallel ``(children, parents)`` id arrays."""
        children = np.asarray(children, dtype=np.intp)
        parents = np.asarray(parents, dtype=np.intp)
        if children.shape[0] != parents.shape[0]:
            raise IndexConstructionError(
                f"edge arrays disagree: {children.shape[0]} children vs "
                f"{parents.shape[0]} parents"
            )
        if children.shape[0]:
            self._forall_chunks.append((children, parents))

    def add_exists_edges(self, children: np.ndarray, parents: np.ndarray) -> None:
        """Bulk ∃-edges: parallel ``(children, parents)`` id arrays."""
        children = np.asarray(children, dtype=np.intp)
        parents = np.asarray(parents, dtype=np.intp)
        if children.shape[0] != parents.shape[0]:
            raise IndexConstructionError(
                f"edge arrays disagree: {children.shape[0]} children vs "
                f"{parents.shape[0]} parents"
            )
        if children.shape[0]:
            self._exists_chunks.append((children, parents))

    @staticmethod
    def _dedupe_pairs(
        chunks: list[tuple[np.ndarray, np.ndarray]], n_nodes: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Unique ``(child, parent)`` pairs from all chunks, child-major."""
        if not chunks:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        children = np.concatenate([c for c, _ in chunks]).astype(np.int64)
        parents = np.concatenate([p for _, p in chunks]).astype(np.int64)
        if np.any(children < 0) or np.any(parents < 0):
            raise IndexConstructionError("edge ids must be >= 0")
        encoded = np.unique(children * np.int64(n_nodes) + parents)
        return encoded // n_nodes, encoded % n_nodes

    @staticmethod
    def _pairs_to_csr(
        children: np.ndarray, parents: np.ndarray, n_nodes: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Canonical CSR from deduplicated pairs: per-parent ascending runs."""
        order = np.lexsort((children, parents))
        indptr = np.zeros(n_nodes + 1, dtype=np.intp)
        np.cumsum(np.bincount(parents, minlength=n_nodes), out=indptr[1:])
        return indptr, children[order].astype(np.intp)

    def freeze(self) -> "LayerStructure":
        """Validate and produce the immutable traversal structure."""
        n_nodes = self.n_real + len(self.pseudo_values)
        values = (
            np.vstack([self.real_values, np.asarray(self.pseudo_values)])
            if self.pseudo_values
            else self.real_values
        )
        self._flush_pending()

        f_children, f_parents = self._dedupe_pairs(self._forall_chunks, n_nodes)
        e_children, e_parents = self._dedupe_pairs(self._exists_chunks, n_nodes)
        forall_count = np.bincount(f_children, minlength=n_nodes).astype(np.int64)
        exists_gated = np.bincount(e_children, minlength=n_nodes).astype(bool)

        coarse_levels = np.full(n_nodes, -1, dtype=np.int64)
        fine_levels = np.full(n_nodes, -1, dtype=np.int64)
        placed_mask = np.zeros(n_nodes, dtype=bool)
        for nodes, coarse, fine in self._placement_chunks:
            coarse_levels[nodes] = coarse
            fine_levels[nodes] = fine
            placed_mask[nodes] = True
        materialized = np.nonzero(placed_mask)[0].astype(np.intp)

        if self.complete and materialized.shape[0] != n_nodes:
            raise IndexConstructionError(
                f"complete structure must place every node: "
                f"{materialized.shape[0]} of {n_nodes} placed"
            )
        # Every materialized non-seed node must have at least one gate,
        # otherwise it could never be reached by the traversal.
        if self.seed_selector is None and materialized.shape[0]:
            gateless = (forall_count[materialized] == 0) & ~exists_gated[materialized]
            if np.any(gateless):
                unreachable = materialized[gateless][
                    ~np.isin(
                        materialized[gateless],
                        np.asarray(sorted(set(self.static_seeds)), dtype=np.intp),
                    )
                ]
                if unreachable.shape[0]:
                    raise IndexConstructionError(
                        f"node {int(unreachable[0])} is unreachable: "
                        "no gates and not a seed"
                    )

        forall_indptr, forall_indices = self._pairs_to_csr(
            f_children, f_parents, n_nodes
        )
        exists_indptr, exists_indices = self._pairs_to_csr(
            e_children, e_parents, n_nodes
        )

        return LayerStructure(
            values=values,
            n_real=self.n_real,
            forall_parent_count=forall_count,
            forall_indptr=forall_indptr,
            forall_indices=forall_indices,
            exists_gated=exists_gated,
            exists_indptr=exists_indptr,
            exists_indices=exists_indices,
            static_seeds=np.asarray(sorted(set(self.static_seeds)), dtype=np.intp),
            seed_selector=self.seed_selector,
            coarse_levels=coarse_levels,
            fine_levels=fine_levels,
            num_coarse_layers=self.num_coarse_layers,
            complete=self.complete,
        )


#: Rows per block of :func:`compute_block_extrema`.
BLOCK_EXTREMA_SIZE = 8


def compute_block_extrema(
    values: np.ndarray,
    rows: np.ndarray,
    block_size: int = BLOCK_EXTREMA_SIZE,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Two-sided zonemap over an arbitrary candidate row set.

    Sorting by value sum makes block neighbours value-coherent, so the
    per-attribute block extrema stay tight: ``rows`` are sorted by
    ``(value sum, value lex, row id)`` and chunked into runs of
    ``block_size``; the result is ``(block_rows, mins, maxs)`` where
    ``block_rows[b]`` lists block ``b``'s members and ``mins[b]`` /
    ``maxs[b]`` their per-attribute extrema.  For strictly positive
    weights and any score contraction that is monotone per attribute (the
    kernels' fixed-order ``einsum`` is), ``mins[b] · w`` lower-bounds and
    ``maxs[b] · w`` upper-bounds every member's score *in float*, not just
    in real arithmetic — which is what lets the reverse top-k screens
    (:mod:`repro.analytics.reverse`) certify membership decisions that are
    bitwise consistent with the walk kernels.

    The table is placement-agnostic: analytics targets need bounds over a
    per-(target, k) candidate set, not over the whole structure.
    """
    values = np.asarray(values, dtype=np.float64)
    rows = np.asarray(rows, dtype=np.intp)
    d = values.shape[1] if values.ndim == 2 else 0
    if rows.shape[0] == 0:
        empty = np.empty((0, d), dtype=np.float64)
        return [], empty, empty
    block_size = max(1, int(block_size))
    keys = (rows,) + tuple(
        values[rows, j] for j in range(d - 1, -1, -1)
    ) + (values[rows].sum(axis=1),)
    ordered = rows[np.lexsort(keys)]
    m = ordered.shape[0]
    n_blocks = (m + block_size - 1) // block_size
    block_rows = [
        ordered[b * block_size : (b + 1) * block_size] for b in range(n_blocks)
    ]
    mins = np.empty((n_blocks, d), dtype=np.float64)
    maxs = np.empty((n_blocks, d), dtype=np.float64)
    for b, members in enumerate(block_rows):
        mins[b] = values[members].min(axis=0)
        maxs[b] = values[members].max(axis=0)
    return block_rows, mins, maxs


class LayerStructure:
    """Frozen gated layer graph consumed by the Algorithm 2 engine.

    Thread-safety contract: instances are immutable after
    :meth:`StructureBuilder.freeze` — the engine and every consumer treat
    all arrays and the seed selector as read-only, and per-query traversal
    state (gate counters, heap, enqueued flags, access counters) is always
    copied or freshly allocated per query.  A single structure may therefore
    be traversed by many threads concurrently without locking; the serving
    layer's thread pool (:mod:`repro.serving`) depends on this.  Seed
    selectors installed via ``seed_selector`` must likewise be stateless
    (both shipped selectors — static seeds and the 2-D weight-range binary
    search — are).

    Adjacency is CSR (see the module docstring): ``forall_indptr`` /
    ``forall_indices`` and ``exists_indptr`` / ``exists_indices`` are the
    flat layout the vectorized kernel slices; :attr:`forall_children` and
    :attr:`exists_children` are per-node views over the same arrays for
    callers that still walk one node at a time.
    """

    def __init__(
        self,
        *,
        values: np.ndarray,
        n_real: int,
        forall_parent_count: np.ndarray,
        forall_indptr: np.ndarray,
        forall_indices: np.ndarray,
        exists_gated: np.ndarray,
        exists_indptr: np.ndarray,
        exists_indices: np.ndarray,
        static_seeds: np.ndarray,
        seed_selector: Callable[[np.ndarray], np.ndarray] | None,
        coarse_levels: np.ndarray,
        fine_levels: np.ndarray,
        num_coarse_layers: int,
        complete: bool,
    ) -> None:
        self.values = values
        self.n_real = n_real
        self.forall_parent_count = forall_parent_count
        self.forall_indptr = forall_indptr
        self.forall_indices = forall_indices
        self.exists_gated = exists_gated
        self.exists_indptr = exists_indptr
        self.exists_indices = exists_indices
        self.static_seeds = static_seeds
        self.seed_selector = seed_selector
        self.coarse_levels = coarse_levels
        self.fine_levels = fine_levels
        self.num_coarse_layers = num_coarse_layers
        self.complete = complete
        # Lazy "no (parent, child) pair carries both edge kinds" flag (see
        # :meth:`edges_disjoint`); benign to race on.
        self._edges_disjoint: bool | None = None
        # Lazily extracted ``values[static_seeds]`` block shared by every
        # query (see :meth:`seed_block`); benign to race on — all writers
        # compute the identical array.
        self._seed_values: np.ndarray | None = None
        # Lazy Python-list copies of the CSR indptrs (see
        # :meth:`csr_indptr_lists`); same benign-race caching contract.
        self._indptr_lists: tuple[list[int], list[int]] | None = None
        # Lazy fused gate-state template (see :meth:`gate_state_template`).
        self._gate_state: np.ndarray | None = None

    @property
    def n_nodes(self) -> int:
        """Total node count (real tuples + pseudo-tuples)."""
        return self.values.shape[0]

    @property
    def n_pseudo(self) -> int:
        """Number of zero-layer pseudo-tuples."""
        return self.n_nodes - self.n_real

    @property
    def forall_children(self) -> CSRAdjacency:
        """Per-node view of the ∀-child CSR arrays."""
        return CSRAdjacency(self.forall_indptr, self.forall_indices)

    @property
    def exists_children(self) -> CSRAdjacency:
        """Per-node view of the ∃-child CSR arrays."""
        return CSRAdjacency(self.exists_indptr, self.exists_indices)

    @property
    def coarse_of(self) -> LayerLevelMap:
        """Dict-compatible view over :attr:`coarse_levels`."""
        return LayerLevelMap(self.coarse_levels)

    @property
    def fine_of(self) -> LayerLevelMap:
        """Dict-compatible view over :attr:`fine_levels`."""
        return LayerLevelMap(self.fine_levels)

    def is_pseudo(self, node: int) -> bool:
        """True for zero-layer nodes (never emitted as answers)."""
        return node >= self.n_real

    def seeds(self, weights: np.ndarray) -> np.ndarray:
        """Query-start nodes for a (normalized) weight vector."""
        if self.seed_selector is not None:
            return np.asarray(self.seed_selector(weights), dtype=np.intp)
        return self.static_seeds

    def seed_block(self) -> tuple[np.ndarray, np.ndarray]:
        """``(static_seeds, values[static_seeds])`` with the value block
        extracted once and reused by every query — the per-query seed
        scoring then costs a single matrix-vector product.  Only valid for
        static-seed structures (``seed_selector is None``)."""
        if self._seed_values is None:
            self._seed_values = self.values[self.static_seeds]
        return self.static_seeds, self._seed_values

    def csr_indptr_lists(self) -> tuple[list[int], list[int]]:
        """``(forall_indptr, exists_indptr)`` as cached Python lists.

        The traversal does two bounds lookups per gate per pop; plain-list
        indexing with Python ints is several times cheaper than numpy
        scalar extraction, so the kernel reads bounds from these lists and
        slices the flat index arrays with the resulting native ints.  Built
        once per structure, on first use, and shared by every query.
        """
        cached = self._indptr_lists
        if cached is None:
            cached = (self.forall_indptr.tolist(), self.exists_indptr.tolist())
            self._indptr_lists = cached
        return cached

    def gate_state_template(self) -> np.ndarray:
        """Initial per-node gate state fused into one integer array.

        The vectorized kernel encodes all three per-query gate facts in a
        single integer per node (see the :mod:`repro.core.query` docstring):

        ``state[v] = forall_parent_count[v] + (n_nodes + 1) * exists_gated[v]``

        A node is ready exactly when its state reaches 0; enqueueing stamps
        the sentinel ``-1`` so it can never re-open.  Built once per
        structure (``int32`` unless the node count forces 64-bit) and
        ``copy()``-ed per query — one array copy instead of a counter copy
        plus two boolean allocations.
        """
        cached = self._gate_state
        if cached is None:
            # Max state = parent count + offset <= 2 * n_nodes + 1.
            dtype = np.int32 if self.n_nodes < 2**30 else np.int64
            cached = self.forall_parent_count.astype(dtype)
            cached[self.exists_gated] += self.n_nodes + 1
            self._gate_state = cached
        return cached

    def edges_disjoint(self) -> bool:
        """True when no ``(parent, child)`` pair carries both edge kinds.

        Disjoint edge sets let a kernel fuse the ∀-decrement and ∃-ungate
        of one pop into a single gather (no node's state is written twice
        in the round).  All four shipped algorithms produce disjoint sets;
        the check is O(edges) and cached on the structure; the batch
        workspace reads it once per structure.
        """
        cached = self._edges_disjoint
        if cached is None:
            n = np.int64(self.n_nodes)
            f_keys = (
                np.repeat(
                    np.arange(self.n_nodes, dtype=np.int64),
                    np.diff(self.forall_indptr),
                )
                * n
                + self.forall_indices
            )
            e_keys = (
                np.repeat(
                    np.arange(self.n_nodes, dtype=np.int64),
                    np.diff(self.exists_indptr),
                )
                * n
                + self.exists_indices
            )
            cached = bool(np.intersect1d(f_keys, e_keys).shape[0] == 0)
            self._edges_disjoint = cached
        return cached

    def edge_counts(self) -> dict[str, int]:
        """Diagnostics: number of ∀- and ∃-edges in the graph (O(1))."""
        return {
            "forall_edges": int(self.forall_indptr[-1]),
            "exists_edges": int(self.exists_indptr[-1]),
        }


#: Arrays that fully determine a frozen structure's traversal behaviour.
_STRUCTURE_ARRAYS = (
    "values",
    "forall_parent_count",
    "forall_indptr",
    "forall_indices",
    "exists_gated",
    "exists_indptr",
    "exists_indices",
    "static_seeds",
    "coarse_levels",
    "fine_levels",
)


def layer_structures_equal(a: LayerStructure, b: LayerStructure) -> bool:
    """True iff two frozen structures are array-equal.

    Compares every traversal-determining array (:data:`_STRUCTURE_ARRAYS`)
    plus the scalar metadata.  This is the oracle check the pipeline and
    the dynamic index's rebuild are held to against the reference build:
    canonical CSR makes equality exact, not merely isomorphic.
    """
    if (
        a.n_real != b.n_real
        or a.num_coarse_layers != b.num_coarse_layers
        or a.complete != b.complete
    ):
        return False
    return all(
        np.array_equal(getattr(a, name), getattr(b, name))
        for name in _STRUCTURE_ARRAYS
    )
