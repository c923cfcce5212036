"""The scatter-gather cluster coordinator.

:class:`ClusterEngine` serves the same ``query`` / ``query_batch`` /
``query_many`` surface as the single-node
:class:`~repro.serving.QueryEngine`, but over N partitioned DL/DL+ shards
(:mod:`repro.cluster.partition` / :mod:`repro.cluster.shard`).  Both
engines serve through one loop,
:class:`~repro.serving.engine.ServingLoop`: validation, normalization,
cache keys, cache hits, in-flight deduplication, grouping by effective k
and metrics are shared.  What is the cluster's own is how a k-group of
cache misses is merged, that a hit returns ``merge="cache"``, and that a
partial answer is never cached.

Merge correctness
-----------------
For any linear scoring function ``F`` and any partition of ``R`` into
disjoint shards, the union of the per-shard top-k answers contains the
global top-k: a tuple beaten by k others globally is beaten by at least the
same k restricted to tuples of its own shard — the monotone-aggregation
argument behind Fagin's TA/NRA.  The argument extends to score *ties*
because both resolutions order by ``(score, id)`` and every partitioner
lists shard members in ascending global id (see
:mod:`repro.cluster.partition`).  Merging per-shard answers by
``(score, global id)`` therefore reproduces the single-node answer
**bitwise** — same ids, same float scores (all scoring goes through the
batch-size-invariant einsum contraction of :mod:`repro.core.query`).

Two merge strategies are implemented, both returning that identical
answer; the constructor's ``merge`` picks one:

* **naive** — every shard answers its full local top-k for the whole
  k-group of miss rows in one :meth:`Shard.topk_batch` call and the
  coordinator heap-merges each row's sorted streams.  Total Definition 9
  cost is the sum of full per-shard traversals.
* **threshold** — per row, round-robin incremental fetches on per-shard
  :class:`~repro.core.cursor.TopKCursor`\\ s with a global k-th-score
  cutoff (the cursor's ``stop_score`` threshold hook): once k candidates
  are held, a shard that emits past the current k-th best ``(score, id)``
  is stopped, exactly the layered early termination the onion/HL line
  applies within one machine.  Every fetch a shard performs is a prefix of
  the traversal the naive merge would have paid, so the threshold merge's
  total cost is **never worse than naive** — the saving is reported per
  query.

Each wins one metric, so both stay.  In the last cluster report
(``git show 5b80d0f:BENCH_cluster.json``: IND/ANT, d=4, n=20k, k=10,
2-8 angular shards, native shard walks) threshold evaluates 11-31%
fewer tuples than naive, while naive's p50 is 1.98-3.16x lower: it
walks each shard natively in one crossing per group, where threshold
steps python cursors fetch by fetch.

Fault handling
--------------
A shard raising :class:`~repro.exceptions.ShardFailedError` (injected via
:class:`~repro.cluster.shard.FailingShard`) is retried on its replica when
one is attached; otherwise the query degrades to a result flagged
``partial=True`` listing the shards whose tuples are missing.  Partial
results are never cached.

Maintenance
-----------
``insert``/``delete`` route to the owning shard (the partitioner's
routing rule), and every write bumps the cluster-wide version that keys
the coordinator's result cache.  The shard decides exactly whether the
write is *absorbed*.  With ``max_layers=L`` every top-k answer for
``k <= L`` lies in the first ``L`` coarse layers, and queries with
``k > L`` are refused.  So an insert dominated by a member of the last
materialised layer, or the delete of a tuple beyond the materialised
layers, changes no layer ``1..L`` and no answer (proof sketch in
:meth:`Shard.insert` / :meth:`Shard.delete`).  An absorbed write updates
the shard's live rows and ids only and keeps its engine, replica and
snapshot.  The coordinator then carries every cached answer to the new
version (:meth:`ResultCache.rekey`).  Any other write rebuilds the
owning shard, and the serving loop drops the old version's entries on
its next call.  ``stats()`` counts both kinds (``writes_absorbed``,
``shard_rebuilds``), and each write logs one DEBUG event on the
``repro.cluster`` logger.
"""

from __future__ import annotations

import heapq
import logging
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.cluster.partition import Partitioning, make_partitioning
from repro.cluster.shard import Shard, ShardAnswer, build_shards
from repro.core.base import TopKResult
from repro.core.maintenance import validate_tuple, validate_tuple_id
from repro.exceptions import InvalidQueryError, ShardFailedError
from repro.relation import Relation
from repro.serving.engine import ServingLoop
from repro.serving.metrics import MetricsRegistry
from repro.stats import AccessCounter

_log = logging.getLogger("repro.cluster")


@dataclass
class ClusterResult(TopKResult):
    """A cluster answer: a :class:`TopKResult` plus serving provenance.

    ``partial`` flags a degraded answer (some shard was down with no
    replica); ``failed_shards`` / ``recovered_shards`` name the shards
    that were skipped / answered by replica; ``shard_costs`` is the
    Definition 9 cost each participating shard paid (their sum is
    ``self.cost``); ``merge`` names the strategy that produced the answer
    (``"cache"`` for hits).
    """

    partial: bool = False
    failed_shards: tuple[int, ...] = ()
    recovered_shards: tuple[int, ...] = ()
    shard_costs: dict[int, int] = field(default_factory=dict)
    merge: str = "threshold"


#: Merge strategies accepted by :class:`ClusterEngine`.
MERGE_STRATEGIES = ("naive", "threshold")


class ClusterEngine(ServingLoop):
    """Scatter-gather top-k serving over partitioned DL/DL+ shards.

    Parameters
    ----------
    relation:
        The global relation to partition and serve.
    shards:
        Shard count (``1`` degenerates to a single-shard cluster whose
        answers and costs equal the single-node engine's).
    partitioner:
        ``"round-robin"`` / ``"hash"`` / ``"angular"`` (see
        :mod:`repro.cluster.partition`).
    index_class:
        Gated layer index class built per shard (default DL+).
    index_kwargs:
        Constructor keywords for each shard index (``max_layers`` …).
    engine_kwargs:
        Keywords for each shard's :class:`~repro.serving.QueryEngine`;
        shard caches stay disabled — result caching lives here, keyed by
        the cluster version.  Each shard engine walks with the kernel
        :func:`~repro.core.dispatch.select_kernel` picks: the native
        walker when it loads, else the python kernels, including the
        lane-parallel batch kernel for forwarded weight groups.
    merge:
        Merge strategy, ``"threshold"`` (default) or ``"naive"``; the
        ``merge`` property may be reassigned between calls and rejects
        any other value, as the constructor does.
    replicate:
        Give every shard a replica: a second engine over the shard's
        frozen index, which serves when the primary fails.
    snapshot_dir:
        When given, every shard lives at ``<snapshot_dir>/shard-<i>`` and
        is served mmap'd: a matching snapshot already on disk is re-opened
        *instead of rebuilding* (instant cluster restart/failover), a
        missing or stale one is built once and persisted.  Primaries'
        arrays stay in the page cache, shared with their replicas.  The
        last cold-open measurement (``git show
        5b80d0f:BENCH_snapshot.json``, IND d=4 n=100k) opened a snapshot
        in 0.35 ms, before :func:`~repro.io.open_snapshot` checked the
        structure's id arrays.
    cache_size / quantize_decimals / latency_window:
        Coordinator result-cache and metrics knobs (as on
        :class:`~repro.serving.QueryEngine`).
    build_workers:
        Thread-pool width for the initial shard builds.
    """

    # Shards normalize the rows they receive: they get the raw rows.
    _forward_raw = True

    def __init__(
        self,
        relation: Relation,
        *,
        shards: int = 4,
        partitioner: str = "round-robin",
        index_class=None,
        index_kwargs: dict | None = None,
        engine_kwargs: dict | None = None,
        merge: str = "threshold",
        replicate: bool = False,
        snapshot_dir=None,
        cache_size: int = 1024,
        quantize_decimals: int = 12,
        latency_window: int = 4096,
        build_workers: int | None = None,
    ) -> None:
        self.merge = merge
        if index_class is None:
            from repro.core import DLPlusIndex

            index_class = DLPlusIndex
        self.partitioning: Partitioning = make_partitioning(
            relation, shards, partitioner
        )
        self.schema = relation.schema
        self.shards: list[Shard] = build_shards(
            self.partitioning,
            index_class=index_class,
            index_kwargs=index_kwargs,
            engine_kwargs=engine_kwargs,
            replicate=replicate,
            build_workers=build_workers,
            snapshot_dir=snapshot_dir,
        )
        # Cluster-wide monotone version: bumped by every routed mutation;
        # keys the result cache so maintenance can never serve stale hits.
        self._version = 1
        # Growing global-id space: shard owner per ever-assigned id
        # (-1 once deleted); new ids continue past the initial n.
        self._owner = self.partitioning.shard_of.copy()
        self.writes_absorbed = 0
        self.shard_rebuilds = 0
        super().__init__(
            cache_size=cache_size,
            quantize_decimals=quantize_decimals,
            latency_window=latency_window,
        )

    # ------------------------------------------------------------------ #
    # Introspection (QueryEngine-parity surface)
    # ------------------------------------------------------------------ #

    @property
    def merge(self) -> str:
        """Merge strategy, ``"threshold"`` or ``"naive"``; assignable
        between calls, and checked on every assignment."""
        return self._merge

    @merge.setter
    def merge(self, merge: str) -> None:
        if merge not in MERGE_STRATEGIES:
            raise InvalidQueryError(
                f"merge must be one of {MERGE_STRATEGIES}, got {merge!r}"
            )
        self._merge = merge

    @property
    def version(self) -> int:
        """Cluster-wide version, bumped by every insert and delete
        (absorbed ones included)."""
        return self._version

    @property
    def d(self) -> int:
        return self.shards[0].relation.d

    @property
    def n(self) -> int:
        """Live tuple count across all shards."""
        return sum(shard.n for shard in self.shards)

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    def stats(self) -> dict:
        """:meth:`ServingLoop.stats` plus write counts and per-shard and
        rolled-up metrics."""
        snapshot = super().stats()
        snapshot["num_shards"] = float(self.num_shards)
        snapshot["writes_absorbed"] = float(self.writes_absorbed)
        snapshot["shard_rebuilds"] = float(self.shard_rebuilds)
        registries = [shard.metrics_registry() for shard in self.shards]
        snapshot["shards"] = MetricsRegistry.aggregate(registries)
        snapshot["per_shard"] = {
            shard.shard_id: registry.as_dict()
            for shard, registry in zip(self.shards, registries)
        }
        return snapshot

    # ------------------------------------------------------------------ #
    # Maintenance (routed to the owning shard)
    # ------------------------------------------------------------------ #

    def insert(self, values: np.ndarray) -> int:
        """Insert one tuple; returns its new global id.

        The owning shard comes from the partitioner's routing rule
        (id-based for round-robin/hash, wedge lookup for angular).  The
        shard absorbs the tuple or rebuilds its index (re-attaching its
        replica if any); see the module docstring's Maintenance section.
        """
        values = validate_tuple(values, self.d)
        global_id = self._owner.shape[0]
        shard_id = self.partitioning.route(global_id, values)
        start = time.perf_counter()
        absorbed = self.shards[shard_id].insert(global_id, values)
        self._owner = np.concatenate(
            [self._owner, np.asarray([shard_id], dtype=np.intp)]
        )
        self._wrote("insert", shard_id, absorbed, start)
        return int(global_id)

    def delete(self, global_id: int) -> None:
        """Delete one tuple by global id (routed to its owning shard)."""
        global_id = validate_tuple_id(global_id)
        if not (0 <= global_id < self._owner.shape[0]) or self._owner[global_id] < 0:
            raise InvalidQueryError(f"no live tuple with global id {global_id}")
        shard_id = int(self._owner[global_id])
        start = time.perf_counter()
        absorbed = self.shards[shard_id].delete(global_id)
        self._owner[global_id] = -1
        self._wrote("delete", shard_id, absorbed, start)

    def _wrote(self, kind: str, shard_id: int, absorbed: bool, start: float) -> None:
        """Advance the version past one applied write.

        An absorbed write changed no answer, so every entry of the
        current version is carried to the new one in one locked pass;
        after a rebuild the serving loop prunes them on its next call.
        """
        previous = self._version
        self._version += 1
        if absorbed:
            self.writes_absorbed += 1
            self.cache.rekey(previous, self._version)
            self._seen_version = self._version
        else:
            self.shard_rebuilds += 1
        _log.debug(
            "%s on shard %d %s in %.3f ms",
            kind,
            shard_id,
            "absorbed" if absorbed else "rebuilt",
            (time.perf_counter() - start) * 1e3,
        )

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _compute(self, lanes: np.ndarray, k: int, record) -> list[ClusterResult]:
        """Merge one k-group of cache misses (raw rows) across the shards.

        The shards' engines count their own kernels, so ``record`` (the
        coordinator call's metrics record) is not used here."""
        if self.merge == "naive":
            return self._merge_naive_batch(lanes, k)
        return [self._merge_threshold(w, k) for w in lanes]

    def _cached(self, ids: np.ndarray, scores: np.ndarray) -> ClusterResult:
        return ClusterResult(
            ids=ids, scores=scores, counter=AccessCounter(), merge="cache"
        )

    def _cacheable(self, result: ClusterResult) -> bool:
        return not result.partial  # a degraded answer must not outlive the fault

    # -- naive merge --------------------------------------------------- #

    @staticmethod
    def _combine_answers(
        answers: list[ShardAnswer],
        k: int,
        failed: list[int],
        recovered: list[int],
    ) -> ClusterResult:
        """Heap-merge per-shard answers by ``(score, global id)``."""
        streams = [
            list(zip(a.scores.tolist(), a.global_ids.tolist())) for a in answers
        ]
        merged = heapq.merge(*streams)
        ids: list[int] = []
        scores: list[float] = []
        for score, gid in merged:
            ids.append(gid)
            scores.append(score)
            if len(ids) >= k:
                break
        counter = AccessCounter()
        shard_costs: dict[int, int] = {}
        for answer in answers:
            counter.merge(answer.counter)
            shard_costs[answer.shard_id] = answer.cost
        return ClusterResult(
            ids=np.asarray(ids, dtype=np.intp),
            scores=np.asarray(scores, dtype=np.float64),
            counter=counter,
            partial=bool(failed),
            failed_shards=tuple(failed),
            recovered_shards=tuple(recovered),
            shard_costs=shard_costs,
            merge="naive",
        )

    def _merge_naive_batch(
        self, matrix: np.ndarray, k: int
    ) -> list[ClusterResult]:
        """The naive merge of a group of rows: one :meth:`Shard.topk_batch`
        per shard.

        Every shard receives the whole raw weight group and answers all
        rows in one batched call; each row's per-shard answers are then
        heap-merged by ``(score, global id)``.  A one-row group is the
        per-query naive merge, and row ``i`` of a wider group is bitwise
        that one-row merge of ``matrix[i]``.  A shard whose primary and
        replica both fail drops out of *every* row's merge (all rows
        flagged partial).
        """
        n_rows = matrix.shape[0]
        failed: list[int] = []
        recovered: list[int] = []

        def ask(shard: Shard) -> list[ShardAnswer] | None:
            start = time.perf_counter()
            try:
                answers = self._with_failover(
                    shard,
                    lambda replica: shard.topk_batch(
                        matrix, k, use_replica=replica
                    ),
                    recovered,
                )
            except ShardFailedError:
                failed.append(shard.shard_id)
                return None
            # Replica answers bypass the primary's registry; fold them in
            # so per-shard metrics reflect the shard's served traffic.
            if answers is not None and shard.shard_id in recovered:
                share = (time.perf_counter() - start) / max(1, n_rows)
                registry = shard.metrics_registry()
                for answer in answers:
                    registry.record_external(
                        cost=answer.cost, seconds=share, batched=True
                    )
            return answers

        per_shard = [
            answers for answers in map(ask, self.shards) if answers is not None
        ]
        return [
            self._combine_answers(
                [answers[row] for answers in per_shard], k, failed, recovered
            )
            for row in range(n_rows)
        ]

    # -- threshold merge ----------------------------------------------- #

    def _merge_threshold(self, w: np.ndarray, k: int) -> ClusterResult:
        """Round-robin cursor fetches with a global k-th-score cutoff.

        Invariants that make this both exact and never costlier than the
        naive merge:

        * each cursor emits in ascending ``(score, global id)`` order, so
          once a shard's emission exceeds the current k-th-best candidate
          (the *bound*), everything it could still emit does too — and the
          bound only ever tightens, so the shard is done;
        * tuples scoring exactly on the bound are still emitted
          (``stop_score`` stops strictly *above*), so cross-shard ties are
          resolved here by global id, same as the single-node heap;
        * a shard emits at most k tuples and every fetch is a prefix of
          the shard-local top-k traversal the naive merge runs, so
          per-shard (and hence total) cost is bounded by naive's.
        """
        failed: list[int] = []
        recovered: list[int] = []
        cursors = []
        started = {}
        for shard in self.shards:
            started[shard.shard_id] = time.perf_counter()
            try:
                cursor = self._with_failover(
                    shard, lambda replica: shard.cursor(w, use_replica=replica),
                    recovered,
                )
            except ShardFailedError:
                failed.append(shard.shard_id)
                continue
            cursors.append(cursor)

        # Best-k candidates as a max-heap of (-score, -gid): top[0] is the
        # current k-th best, i.e. the cutoff the cursors are fetched under.
        top: list[tuple[float, int]] = []
        emitted: dict[int, int] = {c.shard_id: 0 for c in cursors}
        # Round-robin chunk while no bound exists yet: spread the first k
        # emissions across shards instead of draining shard 0 to depth k.
        step = max(1, -(-k // max(1, len(cursors))))
        active = deque(cursors)
        while active:
            cursor = active.popleft()
            if len(top) >= k:
                m = k - emitted[cursor.shard_id]
                stop = -top[0][0]
            else:
                m = min(step, k - emitted[cursor.shard_id])
                stop = None
            gids, scores = cursor.fetch(m, stop_score=stop)
            emitted[cursor.shard_id] += gids.shape[0]
            for gid, score in zip(gids.tolist(), scores.tolist()):
                item = (-score, -gid)
                if len(top) < k:
                    heapq.heappush(top, item)
                elif item > top[0]:
                    heapq.heapreplace(top, item)
            # Doneness is inferred from emission counts alone — probing
            # ``cursor.exhausted`` would resolve the deferred k-th gate
            # relaxation and pay accesses process_top_k's break-before-relax
            # never pays, breaking the threshold<=naive cost guarantee.
            if emitted[cursor.shard_id] >= k:
                continue  # hit its k-emission cap: can't contribute further
            if stop is not None:
                # A bounded fetch stops at an emission strictly above a
                # bound that only tightens from here (or drained the
                # shard) — either way this shard is done.
                continue
            if gids.shape[0] < m:
                continue  # unbounded fetch came up short: shard exhausted
            active.append(cursor)

        ordered = sorted((-neg_score, -neg_gid) for neg_score, neg_gid in top)
        counter = AccessCounter()
        shard_costs: dict[int, int] = {}
        for cursor in cursors:
            counter.merge(cursor.counter)
            shard_costs[cursor.shard_id] = cursor.cost
            self.shards[cursor.shard_id].metrics_registry().record_external(
                cost=cursor.cost,
                seconds=time.perf_counter() - started[cursor.shard_id],
            )
        return ClusterResult(
            ids=np.asarray([gid for _, gid in ordered], dtype=np.intp),
            scores=np.asarray([score for score, _ in ordered], dtype=np.float64),
            counter=counter,
            partial=bool(failed),
            failed_shards=tuple(failed),
            recovered_shards=tuple(recovered),
            shard_costs=shard_costs,
            merge="threshold",
        )

    # -- failover ------------------------------------------------------ #

    @staticmethod
    def _with_failover(shard: Shard, action, recovered: list[int]):
        """Run ``action(use_replica)`` on the primary, retrying the replica.

        Raises :class:`ShardFailedError` only when the primary is down and
        no replica answers; a successful replica retry records the shard
        in ``recovered``.
        """
        try:
            return action(False)
        except ShardFailedError:
            if not shard.has_replica:
                raise
            result = action(True)
            recovered.append(shard.shard_id)
            return result
