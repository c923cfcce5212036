"""A cluster shard: one partition's layer index behind a serving engine.

Each :class:`Shard` owns one partition of the global relation — its rows,
their ascending global ids, and a DL/DL+ index served through a
:class:`~repro.serving.QueryEngine` — and answers local top-k queries in
the *global* id space.  Shard engines run **uncached** by default: result
caching lives at the cluster coordinator, so per-shard Definition 9 costs
stay honest and the threshold merge's cost savings are measurable.

A replica is a second :class:`~repro.serving.QueryEngine`, with its own
workspaces and metrics, over the primary's frozen, read-only index: one
code path for in-memory and snapshot-backed shards, and no second copy of
the arrays.  Every maintenance rebuild re-attaches it to the new index, so
a failover can never serve a stale structure.  :class:`FailingShard`
wraps a shard to inject the primary-node failure the coordinator's retry
path is tested against.

A write that cannot change any answer is *absorbed* (see
:meth:`Shard.insert` / :meth:`Shard.delete`): only the live rows and
global ids change, and the engine, its replica and its snapshot keep
serving the structure they were built on.  Answers map local ids through
:attr:`Shard.built_ids`, the global ids that structure was built with.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from repro.core.cursor import TopKCursor
from repro.exceptions import InvalidQueryError, SerializationError, ShardFailedError
from repro.io import open_snapshot
from repro.io.snapshot import read_manifest, save_snapshot
from repro.relation import Relation
from repro.serving import QueryEngine
from repro.skyline.dominance import is_dominated


class ShardAnswer:
    """One shard's local top-k mapped to global ids (plain data holder)."""

    __slots__ = ("shard_id", "global_ids", "scores", "counter")

    def __init__(
        self, shard_id: int, global_ids: np.ndarray, scores: np.ndarray, counter
    ) -> None:
        self.shard_id = shard_id
        self.global_ids = global_ids
        self.scores = scores
        self.counter = counter

    @property
    def cost(self) -> int:
        """Definition 9 cost this shard paid for its local answer."""
        return self.counter.total


class ShardCursor:
    """A :class:`~repro.core.cursor.TopKCursor` emitting global ids.

    Thin adapter used by the coordinator's threshold merge: ``fetch``
    passes the ``stop_score`` threshold hook through and maps the emitted
    local ids onto the shard's global ids; ``cost`` exposes the cursor's
    Definition 9 tally.
    """

    __slots__ = ("_cursor", "_global_ids", "shard_id")

    def __init__(
        self, cursor: TopKCursor, global_ids: np.ndarray, shard_id: int
    ) -> None:
        self._cursor = cursor
        self._global_ids = global_ids
        self.shard_id = shard_id

    def fetch(
        self, m: int, *, stop_score: float | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        local_ids, scores = self._cursor.fetch(m, stop_score=stop_score)
        return self._global_ids[local_ids], scores

    @property
    def exhausted(self) -> bool:
        return self._cursor.exhausted

    @property
    def emitted(self) -> int:
        return self._cursor.emitted

    @property
    def cost(self) -> int:
        return self._cursor.counter.total

    @property
    def counter(self):
        return self._cursor.counter


class Shard:
    """One partition of the cluster: rows + global ids + serving engine.

    Parameters
    ----------
    shard_id:
        Position of this shard in the cluster.
    relation:
        The shard's re-based sub-relation (local ids ``0..m-1``).
    global_ids:
        Ascending global id per local id (the partitioner guarantees the
        ordering; the merge's tie-break correctness depends on it).
        After absorbed writes the live ids (:attr:`global_ids`) and the
        ids the serving structure was built with (:attr:`built_ids`)
        differ; both stay ascending.
    index_class:
        DL/DL+ (or any gated layer index) class built per shard.
    index_kwargs:
        Extra constructor keyword arguments for ``index_class``
        (``max_layers`` …).
    engine_kwargs:
        Keyword arguments for the shard's :class:`QueryEngine`;
        ``cache_size`` defaults to 0 (coordinator-level caching only).
    snapshot_dir:
        When given, the shard serves mmap'd from a snapshot at this
        directory: an existing snapshot whose values match the shard's
        relation is re-opened *instead of rebuilding* (instant restart);
        otherwise the shard builds once and persists there for the next
        process.
    """

    def __init__(
        self,
        shard_id: int,
        relation: Relation,
        global_ids: np.ndarray,
        *,
        index_class,
        index_kwargs: dict | None = None,
        engine_kwargs: dict | None = None,
        snapshot_dir: str | Path | None = None,
    ) -> None:
        self.shard_id = shard_id
        self.index_class = index_class
        self.index_kwargs = dict(index_kwargs or {})
        self.engine_kwargs = dict(engine_kwargs or {})
        self.engine_kwargs.setdefault("cache_size", 0)
        self.global_ids = np.asarray(global_ids, dtype=np.intp)
        if self.global_ids.shape[0] != relation.n:
            raise InvalidQueryError(
                f"shard {shard_id}: {relation.n} tuples but "
                f"{self.global_ids.shape[0]} global ids"
            )
        self.relation = relation
        self.replica: QueryEngine | None = None
        self.snapshot_path: Path | None = None
        if snapshot_dir is None or not self._reopen_snapshot(Path(snapshot_dir)):
            self.engine = self._build_engine(relation)
            if snapshot_dir is not None:
                self.snapshot_to(snapshot_dir)
        self._note_layers()

    # ------------------------------------------------------------------ #
    # Construction / replication
    # ------------------------------------------------------------------ #

    def _build_engine(self, relation: Relation) -> QueryEngine:
        index = self.index_class(relation, **self.index_kwargs)
        return QueryEngine(index, **self.engine_kwargs)

    def _note_layers(self) -> None:
        """Record what the write test needs of a freshly built structure.

        ``built_ids`` maps the engine's local ids to global ids.  An
        incomplete structure (``max_layers`` left tuples unplaced) keeps
        the members of its last materialised coarse layer, the only
        tuples an insert is tested against, and counts the live tuples
        beyond the materialised layers.
        """
        self.built_ids = self.global_ids
        structure = getattr(self.engine.index, "structure", None)
        if structure is None or structure.complete:
            self._last_layer = None
            self._beyond = 0
            return
        levels = np.asarray(structure.coarse_levels[: structure.n_real])
        last = structure.num_coarse_layers - 1
        self._last_layer = self.relation.matrix[levels == last]
        self._beyond = int(np.count_nonzero(levels < 0))

    def _reopen_snapshot(self, path: Path) -> bool:
        """Adopt an existing snapshot at ``path`` if it matches our rows.

        The match is exact — same shape *and* same bytes as the shard's
        relation — so a stale snapshot from different data can never be
        served; it is simply rebuilt over.
        """
        try:
            read_manifest(path)
            index = open_snapshot(path)
        except SerializationError:
            return False
        if not np.array_equal(index.relation.matrix, self.relation.matrix):
            return False
        self.snapshot_path = path
        self.engine = QueryEngine(index, **self.engine_kwargs)
        return True

    def snapshot_to(self, directory: str | Path) -> Path:
        """Persist the primary as a snapshot and serve it mmap'd.

        The built index is written to ``directory`` with
        :func:`~repro.io.snapshot.save_snapshot` and the primary engine is
        re-pointed at the re-opened :class:`~repro.io.snapshot.SnapshotIndex`
        — byte-identical arrays, now backed by the page cache.  A replica
        is re-attached to the opened snapshot.  Maintenance rebuilds
        re-snapshot to the same directory, so the path stays valid across
        mutations.
        """
        path = save_snapshot(self.engine.index, directory)
        self.snapshot_path = path
        self.engine = QueryEngine(open_snapshot(path), **self.engine_kwargs)
        if self.replica is not None:
            self.attach_replica()
        return path

    def attach_replica(self) -> None:
        """Attach (or re-attach) a replica engine over the primary's index.

        The built index is frozen and read-only, so the replica shares it;
        it gets its own engine (workspaces, metrics), so failing over
        never re-pays the build.
        """
        self.replica = QueryEngine(self.engine.index, **self.engine_kwargs)

    @property
    def has_replica(self) -> bool:
        return self.replica is not None

    @property
    def n(self) -> int:
        """Live tuple count of this shard."""
        return self.relation.n

    @property
    def version(self) -> int:
        return self.engine.version

    # ------------------------------------------------------------------ #
    # Query paths (all results in global ids)
    # ------------------------------------------------------------------ #

    def topk(self, weights: np.ndarray, k: int, *, use_replica: bool = False) -> ShardAnswer:
        """Local top-``min(k, n)`` with ids mapped to the global space.

        The one-row call of :meth:`topk_batch`.
        """
        row = np.asarray(weights, dtype=np.float64)[None, :]
        return self.topk_batch(row, k, use_replica=use_replica)[0]

    def topk_batch(
        self, weights_matrix: np.ndarray, k: int, *, use_replica: bool = False
    ) -> list[ShardAnswer]:
        """One local top-``min(k, n)`` per row, in a single batched call.

        The whole weight group runs through the shard engine's
        ``query_batch`` — one kernel dispatch for the group (one native
        FFI crossing; the batch kernel, on hosts without it, in one
        lane-parallel traversal) — instead of one scatter-gather per row.
        Row ``i`` is bitwise the one-row answer for ``weights_matrix[i]``.
        The engine's answers are ascending by ``(score, local id)``;
        because ``built_ids`` is ascending, mapping preserves ascending
        ``(score, global id)`` order.
        """
        engine = self._serving_engine(use_replica)
        results = engine.query_batch(weights_matrix, min(k, self.relation.n))
        return [
            ShardAnswer(
                self.shard_id,
                self.built_ids[result.ids],
                result.scores,
                result.counter,
            )
            for result in results
        ]

    def beater_count(
        self, weights: np.ndarray, target_score: float, target_global_id: int
    ) -> int:
        """How many local tuples beat a global ``(score, id)`` target.

        The analytics why-not composition: a tuple's global rank is
        ``1 + Σ`` of these counts over all shards — each shard scores its
        own rows with the kernels' einsum contraction (the same bits the
        single-node count sees, since partitioning only moves rows), so
        the scatter-gather sum is *exactly* the single-node beater count,
        not an approximation.  ``weights`` must already be normalized (the
        caller normalizes exactly once, same as the serving invariant).
        """
        from repro.core.query import score_rows

        matrix = self.relation.matrix
        rows = np.arange(matrix.shape[0], dtype=np.intp)
        scores = score_rows(matrix, rows, weights)
        beats = (scores < target_score) | (
            (scores == target_score) & (self.global_ids < target_global_id)
        )
        return int(np.count_nonzero(beats))

    def cursor(self, weights: np.ndarray, *, use_replica: bool = False) -> ShardCursor:
        """A resumable global-id cursor for the threshold merge."""
        engine = self._serving_engine(use_replica)
        structure = getattr(engine.index, "structure", None)
        if structure is None:
            raise InvalidQueryError(
                f"{self.index_class.__name__} exposes no frozen structure; "
                "the threshold merge needs a gated layer index"
            )
        return ShardCursor(
            TopKCursor(structure, weights), self.built_ids, self.shard_id
        )

    def _serving_engine(self, use_replica: bool) -> QueryEngine:
        if use_replica:
            if self.replica is None:
                raise ShardFailedError(
                    f"shard {self.shard_id} has no replica attached"
                )
            return self.replica
        return self.engine

    # ------------------------------------------------------------------ #
    # Maintenance (absorb or rebuild; global ids stay stable)
    # ------------------------------------------------------------------ #

    def insert(self, global_id: int, values: np.ndarray) -> bool:
        """Append one tuple owned by this shard; True when it was absorbed.

        New global ids are strictly increasing cluster-wide, so appending
        keeps ``global_ids`` ascending — the merge invariant survives
        maintenance.

        The insert is absorbed — no rebuild — when the structure is
        incomplete and a member ``p`` of its last materialised coarse
        layer ``L`` dominates the new tuple ``t`` (an exact test, no
        tolerance).  Then ``t`` lies beyond layer ``L``, and it dominates
        no member of layers ``1..L`` (``p`` would dominate that member
        too), so those layers, and every top-k answer for k ≤ L, are
        unchanged.  ``t`` also loses every such answer: a dominance chain
        of ``L`` older tuples ends at ``p``, each scores no higher under
        positive weights, and each has a smaller id for the tie-break.
        Any other insert rebuilds the shard.
        """
        values = np.asarray(values, dtype=np.float64)
        if self.global_ids.shape[0] and global_id <= int(self.global_ids[-1]):
            raise InvalidQueryError(
                f"shard {self.shard_id}: insert id {global_id} not above "
                f"existing ids (max {int(self.global_ids[-1])})"
            )
        absorbed = self._last_layer is not None and is_dominated(
            values, self._last_layer
        )
        self.global_ids = np.concatenate(
            [self.global_ids, np.asarray([global_id], dtype=np.intp)]
        )
        self._set_rows(np.vstack([self.relation.matrix, values[None, :]]))
        if absorbed:
            self._beyond += 1
        else:
            self._rebuild()
        return absorbed

    def delete(self, global_id: int) -> bool:
        """Remove one tuple by global id; True when it was absorbed.

        The delete is absorbed when the tuple lies beyond the materialised
        layers — the structure left it unplaced, or it was itself an
        absorbed insert — and another live tuple stays beyond them.  A
        coarse layer depends only on its members' dominators, which all
        sit in lower layers, so layers ``1..L`` and every answer are
        unchanged, and the structure stays incomplete as a rebuild's
        would.  Any other delete rebuilds the shard.
        """
        pos = int(np.searchsorted(self.global_ids, global_id))
        if pos >= self.global_ids.shape[0] or self.global_ids[pos] != global_id:
            raise InvalidQueryError(
                f"shard {self.shard_id} does not own global id {global_id}"
            )
        absorbed = self._beyond > 1 and self._lies_beyond(global_id)
        keep = np.ones(self.global_ids.shape[0], dtype=bool)
        keep[pos] = False
        self.global_ids = self.global_ids[keep]
        self._set_rows(self.relation.matrix[keep])
        if absorbed:
            self._beyond -= 1
        else:
            self._rebuild()
        return absorbed

    def _lies_beyond(self, global_id: int) -> bool:
        """Whether a live tuple is outside the materialised layers."""
        pos = int(np.searchsorted(self.built_ids, global_id))
        if pos >= self.built_ids.shape[0] or self.built_ids[pos] != global_id:
            return True  # an absorbed insert
        return bool(self.engine.index.structure.coarse_levels[pos] < 0)

    def _set_rows(self, matrix: np.ndarray) -> None:
        self.relation = Relation(
            np.ascontiguousarray(matrix), self.relation.schema, check_domain=False
        )

    def _rebuild(self) -> None:
        self.engine = self._build_engine(self.relation)
        if self.snapshot_path is not None:
            # Snapshot-backed shard: persist the new structure and keep
            # serving mmap'd (also re-attaches any replica).
            self.snapshot_to(self.snapshot_path)
        elif self.replica is not None:
            self.attach_replica()
        self._note_layers()

    def metrics_registry(self):
        """The primary engine's metrics (per-shard serving telemetry)."""
        return self.engine.metrics


class FailingShard:
    """Failure-injection wrapper: a shard whose *primary* can be killed.

    While failed, every primary query path raises
    :class:`~repro.exceptions.ShardFailedError`; replica paths stay up
    (the replica models a separate standby node).  All other attribute
    access delegates to the wrapped shard.
    """

    def __init__(self, shard: Shard, *, failed: bool = False) -> None:
        self._shard = shard
        self._failed = failed

    def fail(self) -> None:
        """Kill the primary."""
        self._failed = True

    def restore(self) -> None:
        """Bring the primary back."""
        self._failed = False

    @property
    def failed(self) -> bool:
        return self._failed

    def _check(self, use_replica: bool) -> None:
        if self._failed and not use_replica:
            raise ShardFailedError(
                f"shard {self._shard.shard_id} primary is down (injected)"
            )

    def topk(self, weights: np.ndarray, k: int, *, use_replica: bool = False) -> ShardAnswer:
        self._check(use_replica)
        return self._shard.topk(weights, k, use_replica=use_replica)

    def topk_batch(
        self, weights_matrix: np.ndarray, k: int, *, use_replica: bool = False
    ) -> list[ShardAnswer]:
        self._check(use_replica)
        return self._shard.topk_batch(weights_matrix, k, use_replica=use_replica)

    def cursor(self, weights: np.ndarray, *, use_replica: bool = False) -> ShardCursor:
        self._check(use_replica)
        return self._shard.cursor(weights, use_replica=use_replica)

    def insert(self, global_id: int, values: np.ndarray) -> bool:
        self._check(False)
        return self._shard.insert(global_id, values)

    def delete(self, global_id: int) -> bool:
        self._check(False)
        return self._shard.delete(global_id)

    def __getattr__(self, name):
        return getattr(self._shard, name)


def build_shards(
    partitioning,
    *,
    index_class,
    index_kwargs: dict | None = None,
    engine_kwargs: dict | None = None,
    replicate: bool = False,
    build_workers: int | None = None,
    snapshot_dir: str | Path | None = None,
) -> list[Shard]:
    """Build every shard of a partitioning, optionally in parallel.

    ``build_workers > 1`` constructs shard indexes on a thread pool — the
    vectorized build pipeline spends its time in numpy kernels that release
    the GIL, so concurrent shard builds overlap on multicore hosts.
    ``snapshot_dir`` gives every shard a ``<snapshot_dir>/shard-<i>``
    snapshot home (reused when present, written otherwise — see
    :class:`Shard`).
    """

    def make(shard_id: int) -> Shard:
        shard = Shard(
            shard_id,
            partitioning.relations[shard_id],
            partitioning.global_ids[shard_id],
            index_class=index_class,
            index_kwargs=index_kwargs,
            engine_kwargs=engine_kwargs,
            snapshot_dir=(
                Path(snapshot_dir) / f"shard-{shard_id}"
                if snapshot_dir is not None
                else None
            ),
        )
        if replicate:
            shard.attach_replica()
        return shard

    count = partitioning.num_shards
    if build_workers is None or build_workers <= 1 or count <= 1:
        return [make(shard_id) for shard_id in range(count)]
    with ThreadPoolExecutor(max_workers=min(build_workers, count)) as pool:
        return list(pool.map(make, range(count)))
