"""Asyncio serving gateway: dynamic batching over the query engines.

``engine.query_batch`` pays a call's fixed cost once for a whole weight
matrix (one native crossing per k-group when the compiler is present, the
lane-parallel batch kernel on hosts without it), but production traffic
arrives as concurrent *single* queries — nobody hands the engine a
pre-assembled weight matrix.  :class:`AsyncGateway` closes that gap:
concurrent ``await gateway.query(w, k)`` calls that miss the engine's
result cache are coalesced into the rows of one ``query_batch`` call under
a flush window ("flush at B=32 or 2 ms, whichever first"), the way
PREFER-style view servers and threshold-algorithm pipelines amortize
per-request overhead across a request stream.

Cache hits at admission
-----------------------
A cache hit evaluates no tuple, so there is no walk for a batch to
amortize.  Every request is looked up in the engine's cache as it arrives
(:meth:`~repro.serving.engine.ServingLoop.cached_answer`); a hit is
answered there and then, without a queue slot or the flush window, and is
counted once in the engine's registry and once in its tenant's.  Only
misses are queued and coalesced.  A lookup right after a write (the
engine has not yet seen the new version) falls through to the queue, so
the engine's loop still prunes the old version's entries.

Coalescing
----------
Arriving misses are queued per tenant.  A single flush worker opens a
window anchored at the oldest pending request and dispatches a batch when
either the window expires (*flush-on-deadline*) or ``max_batch`` requests
are pending (*flush-on-size*).  Each flush drains requests **round-robin
across tenants** (fair share: a tenant flooding the gateway cannot starve
a light tenant's requests out of the next batch) and sends the drained
rows, one k per row, through one ``engine.query_batch`` call — so every
answer inherits the engine's bitwise-identity contract: a coalesced answer
is byte-for-byte the answer ``engine.query(w, k)`` would have returned.
Both the single-node :class:`~repro.serving.QueryEngine` and the sharded
:class:`~repro.cluster.ClusterEngine` are accepted (the gateway needs
``d``, ``cached_answer``, ``query_batch``, and per-row ``cost``).

Admission control and backpressure
----------------------------------
Two caps shed misses *at arrival* instead of queueing unboundedly (a hit
holds no slot, so it is answered even when the queue is full):
``max_pending`` bounds the not-yet-dispatched queue and ``max_inflight``
bounds everything admitted but not yet answered.  A request over either
cap fails fast with :class:`~repro.exceptions.GatewayOverloadError` —
callers see overload immediately and can back off, and the requests
already admitted keep their latency instead of aging behind an unbounded
backlog.

SLOs
----
Every completed request records its end-to-end latency (arrival to
resolution, on the gateway's clock) into its tenant's
:class:`~repro.serving.MetricsRegistry`; latencies above ``slo_target_ms``
bump the registry's ``slo_violations`` counter.  :meth:`AsyncGateway.stats`
reports per-tenant snapshots plus the pooled roll-up
(:meth:`MetricsRegistry.aggregate` — union percentiles, pooled
throughput), the count of admission hits, and gateway-level batch
occupancy (mean lanes of misses per flush, the figure that shows
coalescing actually fills the engine's batches).

Determinism under test
----------------------
The gateway never reads the wall clock directly: ``clock`` (a ``() ->
seconds`` callable) and ``sleep`` (an async ``sleep(seconds)``) are
injectable.  Tests drive a fake clock and step the event loop manually, so
flush-on-size, flush-on-deadline, cancellation, and fairness paths are all
exercised without a single real timed sleep (see
``tests/serving/test_gateway.py``).  The defaults are ``time.monotonic``
and :func:`asyncio.sleep`.
"""

from __future__ import annotations

import asyncio
import time
from collections import OrderedDict, deque
from dataclasses import dataclass

import numpy as np

from repro.exceptions import (
    GatewayClosedError,
    GatewayOverloadError,
    InvalidQueryError,
)
from repro.serving.engine import check_weights, validate_k
from repro.serving.metrics import MetricsRegistry

__all__ = ["AsyncGateway"]


@dataclass
class _Pending:
    """One admitted cache miss waiting for its batch lane."""

    #: Raw weights as submitted — forwarded untouched so the engine
    #: normalizes exactly once, keeping answers bitwise identical to a
    #: direct ``engine.query(w, k)`` call.
    weights: np.ndarray
    k: int
    tenant: str
    future: asyncio.Future
    enqueued_at: float


class AsyncGateway:
    """Answer cache hits at admission; coalesce misses into ``query_batch`` rows.

    Parameters
    ----------
    engine:
        A :class:`~repro.serving.QueryEngine` or
        :class:`~repro.cluster.ClusterEngine` (anything exposing ``d``,
        ``cached_answer(raw, k)`` and ``query_batch(matrix, ks)`` with one
        k per row, whose results carry ``cost``).
    max_batch:
        Flush-on-size threshold: a batch is dispatched the moment this
        many requests are pending (also the lane cap per flush).
    flush_window_ms:
        Flush-on-deadline window: a pending request waits at most this
        long (on the gateway clock) before its batch is dispatched.
    max_pending:
        Bounded queue: requests arriving while this many are queued are
        fast-rejected with :class:`GatewayOverloadError`.
    max_inflight:
        Admission cap on requests admitted but not yet answered
        (queued + executing); beyond it arrivals are fast-rejected.
    slo_target_ms:
        End-to-end latency target; completions above it count as
        ``slo_violations`` in the tenant's registry.  ``None`` disables
        SLO accounting.
    latency_window:
        Sliding-window size for each tenant registry's percentiles.
    clock / sleep:
        Injectable time source and async sleep (fake-clock tests);
        default ``time.monotonic`` / ``asyncio.sleep``.
    executor:
        Optional ``concurrent.futures`` executor the engine call is
        offloaded to, keeping the event loop responsive while the kernel
        runs.  ``None`` (default) executes inline on the loop — fully
        deterministic, which is what the fake-clock tests rely on.
    """

    def __init__(
        self,
        engine,
        *,
        max_batch: int = 32,
        flush_window_ms: float = 2.0,
        max_pending: int = 1024,
        max_inflight: int = 4096,
        slo_target_ms: float | None = None,
        latency_window: int = 4096,
        clock=None,
        sleep=None,
        executor=None,
    ) -> None:
        if max_batch < 1:
            raise InvalidQueryError(f"max_batch must be >= 1, got {max_batch}")
        if flush_window_ms < 0:
            raise InvalidQueryError(
                f"flush_window_ms must be >= 0, got {flush_window_ms}"
            )
        if max_pending < 1:
            raise InvalidQueryError(
                f"max_pending must be >= 1, got {max_pending}"
            )
        if max_inflight < 1:
            raise InvalidQueryError(
                f"max_inflight must be >= 1, got {max_inflight}"
            )
        self.engine = engine
        self.max_batch = int(max_batch)
        self.flush_window = float(flush_window_ms) / 1e3
        self.max_pending = int(max_pending)
        self.max_inflight = int(max_inflight)
        self.slo_target_ms = slo_target_ms
        self._latency_window = latency_window
        self._clock = clock if clock is not None else time.monotonic
        self._sleep = sleep if sleep is not None else asyncio.sleep
        self._executor = executor
        # Per-tenant FIFO queues; _rr holds the round-robin rotation of
        # tenants with pending work (arrival order, rotating per drain).
        self._queues: OrderedDict[str, deque[_Pending]] = OrderedDict()
        self._rr: deque[str] = deque()
        self._pending = 0
        self._inflight = 0
        #: Batch-level metrics (occupancy histogram, amortized latency);
        #: per-request accounting lives in the per-tenant registries.
        self.metrics = MetricsRegistry(latency_window=latency_window)
        self._tenant_metrics: dict[str, MetricsRegistry] = {}
        self.accepted = 0
        #: Accepted requests answered from the engine's cache at
        #: admission, without entering a queue.
        self.admission_hits = 0
        self.rejected_queue_full = 0
        self.rejected_inflight = 0
        self._arrival = asyncio.Event()
        self._full = asyncio.Event()
        self._worker: asyncio.Task | None = None
        self._closed = False

    # ------------------------------------------------------------------ #
    # Serving path
    # ------------------------------------------------------------------ #

    async def query(self, weights, k, *, tenant: str = "default"):
        """Serve one top-k query: a cache hit at once, a miss coalesced.

        Validates eagerly (a malformed request raises before anything is
        queued), then asks the engine's cache
        (:meth:`~repro.serving.engine.ServingLoop.cached_answer`): a hit
        is answered at admission, with no queue slot, flush window or
        lane, so the caps do not apply to it.  A miss is admitted under
        the pending/in-flight caps and awaits its batch lane.  The
        returned result is bitwise identical to
        ``engine.query(weights, k)``.  Cancelling the awaiting task
        removes the request from its batch: an already-cancelled request
        never occupies a lane.
        """
        if self._closed:
            raise GatewayClosedError("gateway is closed")
        raw = check_weights(weights, self.engine.d)  # raw is queued
        k = validate_k(k)
        tenant = str(tenant)
        arrived = self._clock()
        result = self.engine.cached_answer(raw, k)
        if result is not None:
            self.accepted += 1
            self.admission_hits += 1
            self._record(tenant, 0, self._clock() - arrived, batched=False)
            return result
        if self._pending >= self.max_pending:
            self.rejected_queue_full += 1
            raise GatewayOverloadError(
                f"pending queue full ({self.max_pending} queued)"
            )
        if self._inflight >= self.max_inflight:
            self.rejected_inflight += 1
            raise GatewayOverloadError(
                f"in-flight cap reached ({self.max_inflight} admitted)"
            )
        self._ensure_worker()
        loop = asyncio.get_running_loop()
        item = _Pending(
            weights=raw,
            k=k,
            tenant=tenant,
            future=loop.create_future(),
            enqueued_at=arrived,
        )
        queue = self._queues.get(item.tenant)
        if queue is None:
            queue = deque()
            self._queues[item.tenant] = queue
            self._rr.append(item.tenant)
        queue.append(item)
        self._pending += 1
        self._inflight += 1
        self.accepted += 1
        self._arrival.set()
        if self._pending >= self.max_batch:
            self._full.set()
        try:
            return await item.future
        finally:
            self._inflight -= 1

    # ------------------------------------------------------------------ #
    # Flush worker
    # ------------------------------------------------------------------ #

    def _ensure_worker(self) -> None:
        if self._worker is None or self._worker.done():
            self._worker = asyncio.get_running_loop().create_task(self._run())

    async def _run(self) -> None:
        try:
            while True:
                if self._pending == 0:
                    if self._closed:
                        return
                    self._arrival.clear()
                    await self._arrival.wait()
                    continue
                if self._pending < self.max_batch and not self._closed:
                    deadline = self._oldest_enqueue() + self.flush_window
                    delay = deadline - self._clock()
                    if delay > 0:
                        await self._wait_full_or_sleep(delay)
                        if (
                            self._pending < self.max_batch
                            and self._clock() < deadline
                            and not self._closed
                        ):
                            # Spurious wake (a size flush raced a drain):
                            # re-anchor on the now-oldest request.
                            continue
                batch = self._drain()
                if batch:
                    await self._dispatch(batch)
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # pragma: no cover - defensive
            # A worker crash must not strand waiters: fail every pending
            # future with the underlying error.
            for queue in self._queues.values():
                for item in queue:
                    if not item.future.done():
                        item.future.set_exception(exc)
                queue.clear()
            self._queues.clear()
            self._rr.clear()
            self._pending = 0
            raise

    async def _wait_full_or_sleep(self, delay: float) -> None:
        """Race the flush deadline against the batch filling up.

        ``asyncio.wait`` carries no timeout of its own — the only timer is
        the injected ``sleep``, which is what keeps fake-clock tests free
        of real sleeps.
        """
        sleeper = asyncio.ensure_future(self._sleep(delay))
        filled = asyncio.ensure_future(self._full.wait())
        try:
            await asyncio.wait(
                {sleeper, filled}, return_when=asyncio.FIRST_COMPLETED
            )
        finally:
            for task in (sleeper, filled):
                if not task.done():
                    task.cancel()
            await asyncio.gather(sleeper, filled, return_exceptions=True)

    def _oldest_enqueue(self) -> float:
        return min(
            queue[0].enqueued_at for queue in self._queues.values() if queue
        )

    def _drain(self) -> list[_Pending]:
        """Assemble one batch, round-robin across tenant queues.

        Each pass takes one request per tenant in rotation until the batch
        is full or the queues are empty; cancelled requests are discarded
        without occupying a lane.
        """
        batch: list[_Pending] = []
        while self._pending > 0 and self._rr and len(batch) < self.max_batch:
            tenant = self._rr.popleft()
            queue = self._queues.get(tenant)
            if not queue:
                del self._queues[tenant]
                continue
            item = queue.popleft()
            self._pending -= 1
            if queue:
                self._rr.append(tenant)
            else:
                del self._queues[tenant]
            if not item.future.done():
                batch.append(item)
        if self._pending < self.max_batch:
            self._full.clear()
        return batch

    async def _dispatch(self, batch: list[_Pending]) -> None:
        """Serve one flushed batch through one ``engine.query_batch`` call.

        The flush goes to the engine whole, with one k per row: both
        engines group rows by effective k themselves, so a mixed-k flush
        still fills lanes per group.  An engine failure resolves every
        waiter in the flush with the same exception instead of stranding
        them.
        """
        start = self._clock()
        try:
            matrix = np.stack([item.weights for item in batch])
            results = await self._execute(matrix, [item.k for item in batch])
        except Exception as exc:
            for item in batch:
                if not item.future.done():
                    item.future.set_exception(exc)
            return
        now = self._clock()
        self.metrics.record_batch(len(batch), now - start)
        for item, result in zip(batch, results):
            self._record(
                item.tenant, result.cost, now - item.enqueued_at, batched=True
            )
            if not item.future.done():
                item.future.set_result(result)

    async def _execute(self, matrix: np.ndarray, ks: list[int]):
        if self._executor is None:
            return self.engine.query_batch(matrix, ks)
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self._executor, self.engine.query_batch, matrix, ks
        )

    # ------------------------------------------------------------------ #
    # Metrics / lifecycle
    # ------------------------------------------------------------------ #

    def _record(
        self, tenant: str, cost: int, latency: float, *, batched: bool
    ) -> None:
        """Count one answered request, of Definition-9 ``cost``, in its
        tenant's registry."""
        registry = self._tenant_metrics.get(tenant)
        if registry is None:
            registry = MetricsRegistry(latency_window=self._latency_window)
            self._tenant_metrics[tenant] = registry
        # A zero-cost answer came from the engine's result cache (any
        # real traversal evaluates >= 1 tuple).
        registry.record_external(
            cost=cost,
            seconds=latency,
            hit=cost == 0,
            batched=batched,
            slo_violated=(
                self.slo_target_ms is not None
                and latency * 1e3 > self.slo_target_ms
            ),
        )

    def stats(self) -> dict:
        """Gateway snapshot: admission, occupancy, roll-up, per-tenant.

        ``rollup`` pools every tenant registry through
        :meth:`MetricsRegistry.aggregate` (union percentiles, pooled
        ``throughput_qps``, summed ``slo_violations``), admission hits
        included; ``admission_hits`` counts the accepted requests answered
        from the cache at admission; ``batch_occupancy`` is the mean
        number of lanes per flush, all of them misses — the number that
        shows coalescing actually fills the engine's batches.
        """
        batch = self.metrics.as_dict()
        registries = list(self._tenant_metrics.values())
        return {
            "accepted": float(self.accepted),
            "admission_hits": float(self.admission_hits),
            "rejected_queue_full": float(self.rejected_queue_full),
            "rejected_inflight": float(self.rejected_inflight),
            "pending": float(self._pending),
            "inflight": float(self._inflight),
            "batches": batch["batches"],
            "batch_rows": batch["batch_rows"],
            "batch_occupancy": batch["batch_size_mean"],
            "batch_size_max": batch["batch_size_max"],
            "batch_amortized_ms_p50": batch["batch_amortized_ms_p50"],
            "rollup": MetricsRegistry.aggregate(registries),
            "per_tenant": {
                tenant: registry.as_dict()
                for tenant, registry in self._tenant_metrics.items()
            },
        }

    async def aclose(self) -> None:
        """Drain pending requests, then stop the flush worker.

        Requests admitted before the close are still answered (the worker
        skips the flush window once closing); new arrivals raise
        :class:`GatewayClosedError`.
        """
        if self._closed:
            return
        self._closed = True
        self._arrival.set()
        self._full.set()
        if self._worker is not None:
            await self._worker
            self._worker = None

    async def __aenter__(self) -> "AsyncGateway":
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.aclose()
