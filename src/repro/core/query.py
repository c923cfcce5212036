"""Algorithm 2: top-k processing over a gated layer structure.

A priority queue of accessed nodes ordered by ``(score, node id)``.  Seeds
are scored and enqueued; popping a node emits it (real tuples only) and
relaxes its children's gates; a child is scored and enqueued the moment both
its gates are open (Theorem 3's filtering condition).  Each node is scored
at most once — that count *is* the paper's cost metric.

Correctness (Theorem 4) rests on the gate soundness invariants the builders
maintain: every ∀-parent and at least one member of each ∃-parent facet
scores strictly (weakly, for duplicate-tolerant gates) below the gated node
under every positive weight vector, so a node's gates are always fully open
by the time its score could be the queue minimum.

Two kernels implement the identical algorithm:

* :func:`process_top_k` — the production kernel.  On each pop it slices the
  structure's CSR child arrays, relaxes all gates of the popped node with
  numpy ops, and scores every newly opened child in one batched product
  before pushing them.
* :func:`process_top_k_reference` — the original per-node traversal, kept
  as the equivalence oracle: one Python iteration and one score per child.

Both kernels must return **bitwise identical** ids, scores, and Definition 9
access counts (the property tests assert this).  That only holds if scoring
arithmetic is independent of batch size, which BLAS matmul does **not**
guarantee (``A @ w`` row results differ in the last ulp from ``A[i] @ w``
under OpenBLAS).  All child scoring therefore goes through
:func:`score_rows` / :func:`score_node` — ``einsum`` contractions whose
per-row reduction order depends only on ``d``, never on how many rows are
scored together.

Gate-state encoding
-------------------
The vectorized kernel tracks all per-query gate state in **one** integer
per node instead of a counter array plus two boolean arrays:

``state[v] = remaining ∀-parents + (n_nodes + 1) * (∃-gate still closed)``

* popping a ∀-parent decrements ``state`` by 1;
* popping the first ∃-parent subtracts the ``n_nodes + 1`` offset (later
  ∃-parents see ``state < offset`` and are skipped — "any parent" semantics);
* a node is accessed exactly when its state reaches 0 — both gates open —
  and is then stamped with the sentinel ``-1``, which no remaining
  decrement can bring back to 0 (a non-enqueued node's ∀-component never
  goes below zero, and enqueued nodes are excluded from ∃-subtraction).

This halves the per-pop fancy-indexing work and turns per-query state
setup into a single ``copy()`` of a cached template
(:meth:`~repro.core.structure.LayerStructure.gate_state_template`).  The
encoding only changes *bookkeeping*; scoring arithmetic and access order
are untouched, so bitwise equivalence with the reference kernel holds.
"""

from __future__ import annotations

import heapq
import threading

import numpy as np

from repro.exceptions import IndexCapacityError
from repro.core.structure import LayerStructure
from repro.stats import AccessCounter

try:
    # Bind the C entry point ``np.einsum`` dispatches to when ``optimize``
    # is off — the same contraction routine, minus ~2µs of Python wrapper
    # per call (the kernel makes one call per pop).
    from numpy._core._multiarray_umath import c_einsum as _einsum
except ImportError:  # pragma: no cover - numpy < 2 module layout
    try:
        from numpy.core._multiarray_umath import c_einsum as _einsum
    except ImportError:
        _einsum = np.einsum


def score_rows(
    values: np.ndarray, nodes: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """Scores of ``values[nodes]`` under ``weights``, batch-size invariant.

    ``einsum``'s per-row dot uses a reduction order that depends only on the
    dimensionality, so ``score_rows(v, nodes, w)[i] ==
    score_node(v, nodes[i], w)`` *bitwise* — the vectorized kernel and the
    per-node reference kernel produce identical floats.
    """
    return _einsum("ij,j->i", values[nodes], weights)


def score_node(values: np.ndarray, node: int, weights: np.ndarray) -> float:
    """Single-node counterpart of :func:`score_rows` (same arithmetic)."""
    return float(_einsum("j,j->", values[node], weights))


def seed_scores(
    structure: LayerStructure, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(seed_ids, scores)`` for a query's entry nodes, scored in one matmul.

    This is the single scoring path shared by :func:`process_top_k`,
    :func:`process_top_k_reference`,
    :class:`~repro.core.cursor.TopKCursor`, and the batched serving engine
    (:mod:`repro.serving`): because all of them obtain seed scores from this
    helper, their answers agree bitwise — a batched query is byte-identical
    to its sequential counterpart.

    Seeds use the same ``einsum`` contraction as child scoring, not BLAS
    gemv: identical value rows must receive identical scores no matter
    which path scored them, or the heap's (score, id) order — and hence the
    ascending-score output guarantee — breaks on duplicate tuples (gemv
    rows can differ from the per-row dot in the last ulp).
    """
    if structure.seed_selector is None:
        seeds, block = structure.seed_block()  # static seeds: shared block
        return seeds, _einsum("ij,j->i", block, weights)
    seeds = selector_seeds(structure, weights)
    return seeds, _einsum("ij,j->i", structure.values[seeds], weights)


def selector_seeds(structure: LayerStructure, weights: np.ndarray) -> np.ndarray:
    """A selector structure's entry nodes for one query, each id once.

    Selectors may in principle repeat ids; the walk enqueues every node
    at most once, so repeats are dropped, keeping first-occurrence order.
    """
    seeds = np.asarray(structure.seeds(weights), dtype=np.intp)
    if seeds.shape[0] > 1:
        _, first = np.unique(seeds, return_index=True)
        if first.shape[0] != seeds.shape[0]:
            seeds = seeds[np.sort(first)]
    return seeds


def relax_gates(
    structure: LayerStructure,
    node: int,
    remaining_forall: np.ndarray,
    exists_open: np.ndarray,
    enqueued: np.ndarray,
) -> np.ndarray | None:
    """Vectorized gate relaxation for one popped ``node``.

    Decrements the ∀-counters of the node's ∀-children, opens the ∃-gates of
    its ∃-children, and returns the ids of nodes whose **both** gates just
    opened (∀-children first, then ∃-children — the access order of the
    reference kernel), or ``None`` when nothing opened.  Mutates the three
    per-query state arrays in place.  :class:`~repro.core.cursor.TopKCursor`
    shares this helper; :func:`process_top_k` inlines the same logic to keep
    the hot loop free of function-call overhead.
    """
    f_indptr = structure.forall_indptr
    start, end = f_indptr[node], f_indptr[node + 1]
    opened_f = opened_e = None
    if start != end:
        children = structure.forall_indices[start:end]
        count = remaining_forall[children] - 1
        remaining_forall[children] = count
        opened = children[(count == 0) & exists_open[children] & ~enqueued[children]]
        if opened.shape[0]:
            opened_f = opened
    e_indptr = structure.exists_indptr
    start, end = e_indptr[node], e_indptr[node + 1]
    if start != end:
        children = structure.exists_indices[start:end]
        newly = children[~exists_open[children]]
        if newly.shape[0]:
            exists_open[newly] = True
            opened = newly[(remaining_forall[newly] == 0) & ~enqueued[newly]]
            if opened.shape[0]:
                opened_e = opened
    if opened_f is None:
        return opened_e
    if opened_e is None:
        return opened_f
    return np.concatenate((opened_f, opened_e))


class QueryWorkspace:
    """Reusable gate-state scratch for the solo :func:`process_top_k` kernel.

    The solo kernel's only O(n_nodes) per-query cost is initialising the
    fused gate-state array — a ``copy()`` of the cached template.  A
    workspace keeps one state array allocated *in template state* between
    queries: the kernel checks it out, records every node whose state it
    writes, and restores exactly those entries from the template before
    returning, so a steady-state query allocates no O(n) scratch at all
    (a tracemalloc regression test pins this).

    Sharing follows :class:`BatchWorkspace`: checkout is non-blocking —
    a query that finds the workspace busy falls back to a private template
    copy (counted in :attr:`fallbacks`; the serving engine surfaces both
    counters in its stats) — and a query that dies mid-traversal drops
    the state array instead of restoring it.  The array is keyed by
    template *identity*, so a rebuilt structure transparently re-primes
    fresh state.
    """

    __slots__ = (
        "_lock", "_state", "_template", "_stats_lock", "checkouts", "fallbacks",
    )

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._state: np.ndarray | None = None
        self._template: np.ndarray | None = None
        self._stats_lock = threading.Lock()
        #: Queries served from the shared state array (lock acquired).
        self.checkouts = 0
        #: Queries that found the workspace busy and fell back to a
        #: private template copy.
        self.fallbacks = 0

    def _checkout(self, structure: LayerStructure) -> np.ndarray:
        """Return the template-state array for ``structure`` (lock held)."""
        template = structure.gate_state_template()
        if self._template is not template:
            self._state = template.copy()
            self._template = template
        self.checkouts += 1
        return self._state

    def _invalidate(self) -> None:
        self._state = None
        self._template = None

    def _count_fallback(self) -> None:
        with self._stats_lock:
            self.fallbacks += 1


def process_top_k(
    structure: LayerStructure,
    weights: np.ndarray,
    k: int,
    counter: AccessCounter,
    fetch_real=None,
    workspace: QueryWorkspace | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """``(ids, scores)`` of the top-k real tuples, ascending by score.

    The vectorized CSR kernel: per round, child ranges are O(1) slices of
    the flat adjacency arrays, gate state updates are whole-slice numpy
    ops, and every newly opened child is scored in a single batched
    product before being pushed.  Results, heap order, and the
    Definition 9 access count are bitwise identical to
    :func:`process_top_k_reference`.

    ``fetch_real(node) -> values`` overrides where *real* tuple values come
    from (disk-resident execution reads them through a buffered heap file);
    pseudo-tuples always score from the in-memory structure.  A counter
    with a ``count_real_tuple(node)`` hook (the I/O cost model) observes
    every real access in walk order.  ``workspace`` (see :class:`QueryWorkspace`)
    amortizes gate-state initialisation across queries; omitting it keeps
    the kernel a pure function.
    """
    if not structure.complete and k > structure.num_coarse_layers:
        raise IndexCapacityError(
            f"index was built with only {structure.num_coarse_layers} coarse "
            f"layers; top-{k} requires at least k layers"
        )

    trace_hook = getattr(counter, "count_real_tuple", None)

    ws_acquired = workspace is not None and workspace._lock.acquire(blocking=False)
    if workspace is not None and not ws_acquired:
        workspace._count_fallback()
    try:
        if ws_acquired:
            state = workspace._checkout(structure)
        else:
            state = structure.gate_state_template().copy()
        # Undo log: every node whose state was written this query (duplicate
        # entries are harmless — they restore the same template value).
        touched: list[np.ndarray] = []
        try:
            result = _solo_walk(
                structure, weights, k, counter, fetch_real, trace_hook,
                state, touched,
            )
        except BaseException:
            if ws_acquired:
                workspace._invalidate()
            raise
        if ws_acquired and touched:
            idx = touched[0] if len(touched) == 1 else np.concatenate(touched)
            state[idx] = structure.gate_state_template()[idx]
        return result
    finally:
        if ws_acquired:
            workspace._lock.release()


def _solo_walk(
    structure: LayerStructure,
    weights: np.ndarray,
    k: int,
    counter: AccessCounter,
    fetch_real,
    trace_hook,
    state: np.ndarray,
    touched: list[np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """One-pop-per-round walk of :func:`process_top_k` on checked-out state.

    Writes every node whose gate state it changes to ``touched`` so the
    caller can restore a shared workspace from the template.
    """
    values = structure.values
    n_real = structure.n_real
    f_indptr, e_indptr = structure.csr_indptr_lists()
    f_indices = structure.forall_indices
    e_indices = structure.exists_indices
    exists_offset = structure.n_nodes + 1
    t_append = touched.append

    heap: list[tuple[float, int]] = []
    heappush = heapq.heappush
    heappop = heapq.heappop

    count_real = counter.count_real
    count_pseudo = counter.count_pseudo

    def access_batch(opened: np.ndarray) -> None:
        """Score and enqueue just-opened nodes (counts toward Definition 9)."""
        state[opened] = -1
        t_append(opened)
        if fetch_real is None:
            scores = _einsum("ij,j->i", values[opened], weights)
            if trace_hook is None:
                real = 0
                for child, score in zip(opened.tolist(), scores.tolist()):
                    if child < n_real:
                        real += 1
                    heappush(heap, (score, child))
                count_real(real)
                count_pseudo(opened.shape[0] - real)
            else:
                for child, score in zip(opened.tolist(), scores.tolist()):
                    if child < n_real:
                        count_real()
                        trace_hook(child)
                    else:
                        count_pseudo()
                    heappush(heap, (score, child))
        else:
            for child in opened.tolist():
                if child < n_real:
                    score = float(fetch_real(child) @ weights)
                    count_real()
                    if trace_hook is not None:
                        trace_hook(child)
                else:
                    score = score_node(values, child, weights)
                    count_pseudo()
                heappush(heap, (score, child))

    if fetch_real is not None:
        seed_ids, precomputed = structure.seeds(weights), None
        for node in seed_ids.tolist():
            if state[node] >= 0:  # not yet enqueued
                access_batch(np.asarray([node], dtype=np.intp))
    else:
        seed_ids, precomputed = seed_scores(structure, weights)
        # Seeds are unique (static seeds by construction, selector seeds
        # deduplicated in seed_scores), so the whole block enqueues in one
        # shot; heapify over an O(n log n) push loop.  The heap holds the
        # same (score, node) set either way, and pops from equal heaps
        # yield the identical sequence.
        state[seed_ids] = -1
        t_append(seed_ids)
        if trace_hook is None:
            real = 0
            for node, score in zip(seed_ids.tolist(), precomputed.tolist()):
                if node < n_real:
                    real += 1
                heap.append((score, node))
            count_real(real)
            count_pseudo(seed_ids.shape[0] - real)
        else:
            for node, score in zip(seed_ids.tolist(), precomputed.tolist()):
                if node < n_real:
                    count_real()
                    trace_hook(node)
                else:
                    count_pseudo()
                heap.append((score, node))
        heapq.heapify(heap)

    answer_ids: list[int] = []
    answer_scores: list[float] = []
    while heap and len(answer_ids) < k:
        score, node = heappop(heap)
        if node < n_real:
            answer_ids.append(node)
            answer_scores.append(score)
            if len(answer_ids) >= k:
                break  # done — don't pay for relaxing the last answer's children
        # Relax children gates on the fused state encoding; access every
        # node whose gates both opened — ∀-children first, then ∃-children,
        # matching the reference kernel's access order.
        start, end = f_indptr[node], f_indptr[node + 1]
        opened_f = opened_e = None
        if start != end:
            children = f_indices[start:end]
            count = state[children] - 1
            state[children] = count
            t_append(children)
            opened = children[count == 0]
            if opened.shape[0]:
                opened_f = opened
        start, end = e_indptr[node], e_indptr[node + 1]
        if start != end:
            children = e_indices[start:end]
            count = state[children]
            gated = count >= exists_offset
            if gated.any():
                newly = children[gated]
                count = count[gated] - exists_offset
                state[newly] = count
                t_append(newly)
                opened = newly[count == 0]
                if opened.shape[0]:
                    opened_e = opened
        if opened_f is not None:
            if opened_e is not None:
                access_batch(np.concatenate((opened_f, opened_e)))
            else:
                access_batch(opened_f)
        elif opened_e is not None:
            access_batch(opened_e)

    return (
        np.asarray(answer_ids, dtype=np.intp),
        np.asarray(answer_scores, dtype=np.float64),
    )


class BatchWorkspace:
    """Reusable gate-state scratch for :func:`process_top_k_batch`.

    The batch kernel needs one fused gate-state slot per (node, lane) pair.
    Copying the template into a fresh ``(n_nodes, B)`` matrix costs a full
    memory sweep per batch (~1 ms at n=100k, B=32 — comparable to the
    traversal itself), but a batch only ever *touches* the entries its
    rounds relax.  A workspace keeps the matrix allocated in template state
    between batches; the kernel records every entry it writes and restores
    exactly those from the template before returning, so re-initialisation
    costs O(touched) instead of O(n_nodes x B).

    A workspace belongs to one owner (e.g. a ``QueryEngine``).  It is safe
    to share: the kernel takes the internal lock without blocking and
    falls back to a fresh allocation when the workspace is busy, and a
    batch that dies mid-traversal drops the matrix instead of restoring
    it.  The backing matrix is keyed by template *identity* (the template
    array is cached on the immutable structure, so identity tracks
    structure lifetime through rebuilds) and grows to the widest batch
    seen.
    """

    __slots__ = ("_lock", "_state", "_template", "_edges_disjoint")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._state: np.ndarray | None = None
        self._template: np.ndarray | None = None
        self._edges_disjoint = False

    def _checkout(self, structure: LayerStructure, n_lanes: int) -> np.ndarray:
        """Return a template-state matrix with >= ``n_lanes`` columns."""
        template = structure.gate_state_template()
        state = self._state
        if state is not None and self._template is template:
            if state.shape[1] >= n_lanes:
                return state
        else:
            # New structure: when its ∀- and ∃-edge sets are disjoint (no
            # parent lists the same child in both CSRs — true for every
            # structure the builder emits, and cached on the structure),
            # the kernel may relax both gate kinds of a round in one fused
            # gather/scatter pass; otherwise it keeps the two-phase order
            # (∀ writes before ∃ reads).
            self._edges_disjoint = structure.edges_disjoint()
        state = np.broadcast_to(
            template[:, None], (template.shape[0], n_lanes)
        ).copy()
        self._state = state
        self._template = template
        return state

    def _invalidate(self) -> None:
        self._state = None
        self._template = None


def process_top_k_batch(
    structure: LayerStructure,
    weights_matrix: np.ndarray,
    k,
    counters,
    workspace: BatchWorkspace | None = None,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Run B top-k queries through one lane-parallel traversal.

    ``weights_matrix`` is a ``(B, d)`` matrix of (normalized) weight
    vectors; lane ``i`` answers the query ``weights_matrix[i]`` with
    retrieval size ``k`` (a scalar, or a length-B sequence for mixed-``k``
    batches) and charges its Definition 9 cost to ``counters[i]``.  Returns
    one ``(ids, scores)`` pair per lane, each **bitwise identical** — ids,
    float scores, ascending order, per-lane real/pseudo access counts — to
    running :func:`process_top_k` on that lane alone.

    How the lanes share work
    ------------------------
    Gate state lives in one ``(n_nodes, B)`` matrix: column ``i`` is lane
    ``i``'s fused per-node state int (the same encoding as the single-query
    kernel).  Node-major layout keeps a round's writes cache-local: live
    lanes traverse the same shallow layers, so the (node, lane) pairs of a
    round cluster in nearby rows.  The traversal proceeds in lock-step
    *rounds*: every live lane pops one node from its private heap, then all
    popped nodes' gates are relaxed together — the ∀-child slices of every
    lane are gathered into one flat (node, lane) index list and decremented
    with a single fancy-indexed op (pairs are unique within a round, so no
    update is lost), and likewise for the ∃-gates.  Every newly opened
    child of every lane is then scored in one batched contraction, and
    Definition 9 counts are settled with one per-lane ``bincount`` instead
    of a python call per access.

    Why the answers stay bitwise identical
    --------------------------------------
    * Lanes never interact: each has its own state column, heap, answer
      list, and counter, so a round is just an interleaving of B
      independent per-query steps.  Lanes finish independently (k answers
      emitted or heap drained) and are masked out of later rounds — a cheap
      lane never waits on an expensive one, and a finished lane's final pop
      skips gate relaxation exactly like the single-query kernel's
      break-before-relax.
    * Scoring uses the paired contraction
      ``einsum("ij,ij->i", opened_values, weights_matrix[opened_lanes])``,
      which is bitwise equal to both the per-query ``score_rows``
      contraction and the GEMM form
      ``einsum("ij,kj->ik", opened_values, weights_matrix)`` gathered per
      lane — the per-row reduction order of this ``einsum`` family depends
      only on ``d`` (see the module docstring) — while doing B-fold less
      arithmetic than the GEMM.  Heap order, tie-breaks on duplicate
      tuples, and emitted scores therefore cannot drift by even an ulp;
      the batch-equivalence property suite asserts this across the full
      distribution/dimension grid.
    * Static seeds are scored for every lane in one GEMM-shaped
      contraction; selector seeds go through the shared
      :func:`seed_scores` path with a fresh contiguous copy of each lane's
      weight row (a row *view* of the matrix has lane-dependent alignment;
      a copy has the same layout a solo query's weight vector does).

    The kernel reads every value from the in-memory structure and settles
    counts in bulk, so it takes no ``fetch_real`` override and calls no
    per-access trace hook (storage-backed and traced walks use
    :func:`process_top_k`).  ``workspace`` (see :class:`BatchWorkspace`)
    amortizes gate-state initialisation across batches; omitting it keeps
    the kernel a pure function.
    """
    weights_matrix = np.asarray(weights_matrix, dtype=np.float64)
    if weights_matrix.ndim != 2:
        raise ValueError(
            f"weights_matrix must be 2-D (B, d), got shape {weights_matrix.shape}"
        )
    n_lanes = weights_matrix.shape[0]
    counters = list(counters)
    if len(counters) != n_lanes:
        raise ValueError(
            f"need one counter per lane: {n_lanes} lanes, {len(counters)} counters"
        )
    ks = [int(x) for x in np.broadcast_to(np.asarray(k, dtype=np.int64), (n_lanes,))]
    if n_lanes == 0:
        return []
    if not structure.complete and max(ks) > structure.num_coarse_layers:
        raise IndexCapacityError(
            f"index was built with only {structure.num_coarse_layers} coarse "
            f"layers; top-{max(ks)} requires at least k layers"
        )

    values = structure.values
    n_real = structure.n_real
    n_nodes = structure.n_nodes
    f_indptr = structure.forall_indptr
    f_indices = structure.forall_indices
    e_indptr = structure.exists_indptr
    e_indices = structure.exists_indices
    exists_offset = n_nodes + 1
    template = structure.gate_state_template()

    ws_acquired = workspace is not None and workspace._lock.acquire(blocking=False)
    try:
        if ws_acquired:
            state = workspace._checkout(structure, n_lanes)
            restore = True
            merged_rounds = workspace._edges_disjoint
        else:
            state = np.broadcast_to(template[:, None], (n_nodes, n_lanes)).copy()
            restore = False
            merged_rounds = False
        stride = state.shape[1]
        state_flat = state.reshape(-1)
        # Undo log: every (node, lane) entry written this batch, as parallel
        # lists of flat indices and node ids (the template value to restore).
        touched_flat: list[np.ndarray] = []
        touched_nodes: list[np.ndarray] = []

        heappush = heapq.heappush
        heappop = heapq.heappop
        heaps: list[list[tuple[float, int]]] = [[] for _ in range(n_lanes)]
        answer_ids: list[list[int]] = [[] for _ in range(n_lanes)]
        answer_scores: list[list[float]] = [[] for _ in range(n_lanes)]

        if structure.seed_selector is None:
            # Static seeds are one shared block for every lane: score them
            # with a single GEMM-shaped contraction (bitwise equal per
            # column to seed_scores' per-row contraction) and stamp all
            # (seed, lane) slots in one write.
            seed_ids, block = structure.seed_block()
            seed_matrix = _einsum("ij,kj->ik", block, weights_matrix)
            real_seeds = int(np.count_nonzero(seed_ids < n_real))
            pseudo_seeds = seed_ids.shape[0] - real_seeds
            seed_grid = (
                seed_ids[:, None] * stride
                + np.arange(n_lanes, dtype=np.intp)[None, :]
            ).reshape(-1)
            state_flat[seed_grid] = -1
            if restore and seed_grid.shape[0]:
                touched_flat.append(seed_grid)
                touched_nodes.append(np.repeat(seed_ids, n_lanes))
            seed_list = seed_ids.tolist()
            for lane in range(n_lanes):
                heap = list(zip(seed_matrix[:, lane].tolist(), seed_list))
                heapq.heapify(heap)
                heaps[lane] = heap
                counters[lane].count_real(real_seeds)
                counters[lane].count_pseudo(pseudo_seeds)
        else:
            # Selector seeds are per query: each lane replays the solo
            # kernel's seed path through seed_scores, on a fresh contiguous
            # copy of its weight row (a row view's alignment depends on the
            # lane offset; a copy has the layout a solo query's weight
            # vector does).  One einsum per lane, off the hot path.
            for lane in range(n_lanes):
                seed_ids, precomputed = seed_scores(
                    structure, np.array(weights_matrix[lane], copy=True)
                )
                seed_slots = seed_ids * stride + lane
                state_flat[seed_slots] = -1
                if restore:
                    touched_flat.append(seed_slots)
                    touched_nodes.append(seed_ids)
                heap = heaps[lane]
                real = 0
                for node, score in zip(seed_ids.tolist(), precomputed.tolist()):
                    if node < n_real:
                        real += 1
                    heap.append((score, node))
                heapq.heapify(heap)
                counters[lane].count_real(real)
                counters[lane].count_pseudo(seed_ids.shape[0] - real)

        # Definition 9 bookkeeping: per-lane real/pseudo access totals
        # accumulate in two arrays (one bincount per round) and are
        # flushed into the counters once at the end — totals are
        # order-free, so deferring them is invisible.
        acc_total = np.zeros(n_lanes, dtype=np.int64)
        acc_real = np.zeros(n_lanes, dtype=np.int64)

        active = [lane for lane in range(n_lanes) if heaps[lane] and ks[lane] > 0]
        while active:
            # One pop per live lane; a lane that emits its k-th answer skips
            # relaxation entirely (the per-query kernel's
            # break-before-relax).
            relax_lanes: list[int] = []
            relax_nodes: list[int] = []
            for lane in active:
                score, node = heappop(heaps[lane])
                if node < n_real:
                    emitted = answer_ids[lane]
                    emitted.append(node)
                    answer_scores[lane].append(score)
                    if len(emitted) >= ks[lane]:
                        continue
                relax_lanes.append(lane)
                relax_nodes.append(node)
            if not relax_lanes:
                break
            lanes = np.asarray(relax_lanes, dtype=np.intp)
            nodes = np.asarray(relax_nodes, dtype=np.intp)

            if merged_rounds:
                # Fused gate pass (∀/∃ edge sets verified disjoint at
                # workspace checkout, so no (node, lane) pair appears
                # twice): both edge kinds of every lane are gathered into
                # one pair list, updated with one arithmetic sweep —
                # ∀-entries decrement, gated ∃-entries subtract the offset —
                # stamped, and scattered back in a single write.  Pair
                # order is [∀ by lane, ∃ by lane], the reference access
                # order (heap pops are tuple-ordered, so within-round push
                # order cannot affect answers).
                all_lanes = all_children = None
                starts = f_indptr[nodes]
                f_counts = f_indptr[nodes + 1] - starts
                nf = int(f_counts.sum())
                if nf:
                    ends = np.cumsum(f_counts)
                    flat = np.arange(nf, dtype=np.intp) + np.repeat(
                        starts - (ends - f_counts), f_counts
                    )
                    f_children = f_indices[flat]
                    f_lanes = np.repeat(lanes, f_counts)
                starts = e_indptr[nodes]
                e_counts = e_indptr[nodes + 1] - starts
                ne = int(e_counts.sum())
                if ne:
                    ends = np.cumsum(e_counts)
                    flat = np.arange(ne, dtype=np.intp) + np.repeat(
                        starts - (ends - e_counts), e_counts
                    )
                    e_children = e_indices[flat]
                    e_lanes = np.repeat(lanes, e_counts)
                if nf and ne:
                    children = np.concatenate((f_children, e_children))
                    child_lanes = np.concatenate((f_lanes, e_lanes))
                elif nf:
                    children, child_lanes = f_children, f_lanes
                elif ne:
                    children, child_lanes = e_children, e_lanes
                else:
                    children = None
                if children is not None:
                    pair_flat = children * stride + child_lanes
                    cur = state_flat[pair_flat]
                    new = np.empty_like(cur)
                    np.subtract(cur[:nf], 1, out=new[:nf])
                    if ne:
                        cur_e = cur[nf:]
                        # Gated entries (state >= offset) drop the offset;
                        # already-open ones pass through unchanged (their
                        # state is never 0 between rounds, so they cannot
                        # look freshly opened below).
                        np.subtract(
                            cur_e,
                            (cur_e >= exists_offset)
                            * state.dtype.type(exists_offset),
                            out=new[nf:],
                        )
                    opened = new == 0
                    if opened.any():
                        all_lanes = child_lanes[opened]
                        all_children = children[opened]
                        new[opened] = -1
                    state_flat[pair_flat] = new
                    if restore:
                        touched_flat.append(pair_flat)
                        touched_nodes.append(children)
            else:
                # Two-phase pass, used when the edge sets might overlap (the
                # ∃ gather must observe this round's ∀ writes) or when no
                # workspace vouches for disjointness.
                # ∀-gates: gather every lane's child slice into one flat
                # (node, lane) index list and decrement with a single
                # fancy-indexed op.  Each pair occurs at most once per round
                # (one pop per lane, unique children per node), so plain
                # assignment loses no update.
                opened_f_lanes = opened_f_children = opened_f_flat = None
                starts = f_indptr[nodes]
                counts = f_indptr[nodes + 1] - starts
                total = int(counts.sum())
                if total:
                    ends = np.cumsum(counts)
                    flat = np.arange(total, dtype=np.intp) + np.repeat(
                        starts - (ends - counts), counts
                    )
                    children = f_indices[flat]
                    child_lanes = np.repeat(lanes, counts)
                    pair_flat = children * stride + child_lanes
                    remaining = state_flat[pair_flat] - 1
                    state_flat[pair_flat] = remaining
                    if restore:
                        touched_flat.append(pair_flat)
                        touched_nodes.append(children)
                    mask = remaining == 0
                    if mask.any():
                        opened_f_lanes = child_lanes[mask]
                        opened_f_children = children[mask]
                        opened_f_flat = pair_flat[mask]

                # ∃-gates: same gather; the first popped ∃-parent of a
                # (node, lane) pair subtracts the offset, later ones see
                # state < offset.
                opened_e_lanes = opened_e_children = opened_e_flat = None
                starts = e_indptr[nodes]
                counts = e_indptr[nodes + 1] - starts
                total = int(counts.sum())
                if total:
                    ends = np.cumsum(counts)
                    flat = np.arange(total, dtype=np.intp) + np.repeat(
                        starts - (ends - counts), counts
                    )
                    children = e_indices[flat]
                    child_lanes = np.repeat(lanes, counts)
                    pair_flat = children * stride + child_lanes
                    current = state_flat[pair_flat]
                    gated = current >= exists_offset
                    if gated.any():
                        gated_flat = pair_flat[gated]
                        gated_children = children[gated]
                        current = current[gated] - exists_offset
                        state_flat[gated_flat] = current
                        if restore:
                            touched_flat.append(gated_flat)
                            touched_nodes.append(gated_children)
                        mask = current == 0
                        if mask.any():
                            opened_e_lanes = child_lanes[gated][mask]
                            opened_e_children = gated_children[mask]
                            opened_e_flat = gated_flat[mask]

                # Access every (node, lane) pair whose gates both opened —
                # per lane, ∀-children first, then ∃-children, the
                # reference access order.
                if opened_f_lanes is None:
                    all_lanes, all_children, all_flat = (
                        opened_e_lanes,
                        opened_e_children,
                        opened_e_flat,
                    )
                elif opened_e_lanes is None:
                    all_lanes, all_children, all_flat = (
                        opened_f_lanes,
                        opened_f_children,
                        opened_f_flat,
                    )
                else:
                    all_lanes = np.concatenate((opened_f_lanes, opened_e_lanes))
                    all_children = np.concatenate(
                        (opened_f_children, opened_e_children)
                    )
                    all_flat = np.concatenate((opened_f_flat, opened_e_flat))
                if all_lanes is not None:
                    state_flat[all_flat] = -1

            if all_lanes is not None:
                # One paired contraction scores every opened (node, lane)
                # pair; one bincount per side accumulates Definition 9
                # counts for all lanes at once.
                scores = _einsum(
                    "ij,ij->i", values[all_children], weights_matrix[all_lanes]
                )
                acc_total += np.bincount(all_lanes, minlength=n_lanes)
                acc_real += np.bincount(
                    all_lanes[all_children < n_real], minlength=n_lanes
                )
                for lane, child, score in zip(
                    all_lanes.tolist(), all_children.tolist(), scores.tolist()
                ):
                    heappush(heaps[lane], (score, child))

            active = [lane for lane in relax_lanes if heaps[lane]]

        for lane in range(n_lanes):
            real = int(acc_real[lane])
            if real:
                counters[lane].count_real(real)
            pseudo = int(acc_total[lane]) - real
            if pseudo:
                counters[lane].count_pseudo(pseudo)

        if restore and touched_flat:
            # Put every written entry back to template state so the next
            # batch checks out a clean matrix without a full re-copy.
            # Duplicate indices are harmless (same template value).
            state_flat[np.concatenate(touched_flat)] = template[
                np.concatenate(touched_nodes)
            ]
    except BaseException:
        if ws_acquired:
            workspace._invalidate()
        raise
    finally:
        if ws_acquired:
            workspace._lock.release()

    return [
        (
            np.asarray(answer_ids[lane], dtype=np.intp),
            np.asarray(answer_scores[lane], dtype=np.float64),
        )
        for lane in range(n_lanes)
    ]


def process_top_k_reference(
    structure: LayerStructure,
    weights: np.ndarray,
    k: int,
    counter: AccessCounter,
    fetch_real=None,
) -> tuple[np.ndarray, np.ndarray]:
    """The per-node reference kernel — Algorithm 2, one child at a time.

    This is the pre-CSR traversal retained verbatim as the equivalence
    oracle for :func:`process_top_k`: same signature, same gate semantics,
    same scoring arithmetic (:func:`score_node`), walking the CSR adjacency
    through the per-node :class:`~repro.core.structure.CSRAdjacency` view.
    The property suite asserts both kernels agree bitwise on ids, scores,
    and real/pseudo access counts; benchmarks use it as the wall-clock
    "before" baseline.
    """
    if not structure.complete and k > structure.num_coarse_layers:
        raise IndexCapacityError(
            f"index was built with only {structure.num_coarse_layers} coarse "
            f"layers; top-{k} requires at least k layers"
        )

    values = structure.values
    n_real = structure.n_real
    remaining_forall = structure.forall_parent_count.copy()
    exists_open = ~structure.exists_gated
    enqueued = np.zeros(structure.n_nodes, dtype=bool)

    heap: list[tuple[float, int]] = []

    trace_hook = getattr(counter, "count_real_tuple", None)

    def access(node: int, score: float | None = None) -> None:
        """Score a node and enqueue it (counts toward Definition 9 cost)."""
        if score is None:
            if fetch_real is not None and node < n_real:
                score = float(fetch_real(node) @ weights)
            else:
                score = score_node(values, node, weights)
        if node < n_real:
            counter.count_real()
            if trace_hook is not None:
                trace_hook(node)
        else:
            counter.count_pseudo()
        enqueued[node] = True
        heapq.heappush(heap, (score, node))

    if fetch_real is not None:
        seed_ids, precomputed = structure.seeds(weights), None
    else:
        seed_ids, precomputed = seed_scores(structure, weights)
    for pos, node in enumerate(seed_ids):
        node = int(node)
        if not enqueued[node]:
            access(node, None if precomputed is None else float(precomputed[pos]))

    forall_children = structure.forall_children
    exists_children = structure.exists_children
    answer_ids: list[int] = []
    answer_scores: list[float] = []
    while heap and len(answer_ids) < k:
        score, node = heapq.heappop(heap)
        if node < n_real:
            answer_ids.append(node)
            answer_scores.append(score)
            if len(answer_ids) >= k:
                break  # done — don't pay for relaxing the last answer's children
        # Relax children gates; access every node whose gates both opened.
        for child in forall_children[node]:
            child = int(child)
            remaining_forall[child] -= 1
            if (
                not enqueued[child]
                and remaining_forall[child] == 0
                and exists_open[child]
            ):
                access(child)
        for child in exists_children[node]:
            child = int(child)
            if exists_open[child]:
                continue
            exists_open[child] = True
            if not enqueued[child] and remaining_forall[child] == 0:
                access(child)

    return (
        np.asarray(answer_ids, dtype=np.intp),
        np.asarray(answer_scores, dtype=np.float64),
    )
