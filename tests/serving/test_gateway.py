"""AsyncGateway: deterministic fake-clock coalescing tests.

Every test in this module drives the gateway with an injected fake clock
and steps the event loop by hand — flush-on-size, flush-on-deadline,
cancellation, fairness, admission control, and the bitwise-identity
acceptance property all run without a single real timed sleep (the
``forbid_real_sleeps`` fixture makes ``time.sleep``/``asyncio.sleep``
raise if anything tries).
"""

import asyncio
import heapq

import numpy as np
import pytest

from repro.cluster import ClusterEngine
from repro.core import DLPlusIndex
from repro.data import generate
from repro.exceptions import (
    GatewayClosedError,
    GatewayOverloadError,
    InvalidQueryError,
    InvalidWeightError,
)
from repro.serving import AsyncGateway, QueryEngine


class FakeClock:
    """Deterministic clock + async sleep pair for gateway injection.

    ``advance(dt)`` moves time forward and resolves every sleeper whose
    deadline has passed; nothing else ever resolves a sleep, so tests
    fully control when the gateway's flush window expires.
    """

    def __init__(self) -> None:
        self.now = 0.0
        self._sleepers: list[tuple[float, int, asyncio.Future]] = []
        self._seq = 0

    def __call__(self) -> float:
        return self.now

    async def sleep(self, seconds: float) -> None:
        future = asyncio.get_running_loop().create_future()
        self._seq += 1
        heapq.heappush(self._sleepers, (self.now + seconds, self._seq, future))
        await future

    def advance(self, dt: float) -> None:
        self.now += dt
        while self._sleepers and self._sleepers[0][0] <= self.now + 1e-12:
            _, _, future = heapq.heappop(self._sleepers)
            if not future.done():
                future.set_result(None)


def step(loop: asyncio.AbstractEventLoop, rounds: int = 50) -> None:
    """Run the loop's ready queue ``rounds`` times without any timers."""
    for _ in range(rounds):
        future = loop.create_future()
        loop.call_soon(future.set_result, None)
        loop.run_until_complete(future)


@pytest.fixture
def loop():
    loop = asyncio.new_event_loop()
    yield loop
    loop.close()


@pytest.fixture
def forbid_real_sleeps(monkeypatch):
    """Acceptance: fake-clock tests must never hit a real sleep."""

    def no_time_sleep(*args, **kwargs):
        raise AssertionError("real time.sleep called in a fake-clock test")

    async def no_asyncio_sleep(*args, **kwargs):
        raise AssertionError("real asyncio.sleep called in a fake-clock test")

    monkeypatch.setattr("time.sleep", no_time_sleep)
    monkeypatch.setattr("asyncio.sleep", no_asyncio_sleep)


@pytest.fixture(scope="module")
def index():
    return DLPlusIndex(generate("IND", 400, 3, seed=71)).build()


def make_gateway(index, clock, **kwargs):
    kwargs.setdefault("cache_size", 0)
    engine = QueryEngine(index, cache_size=kwargs.pop("cache_size"))
    return AsyncGateway(
        engine, clock=clock, sleep=clock.sleep, **kwargs
    )


def submit(loop, gateway, weights, k, **kwargs):
    return loop.create_task(gateway.query(weights, k, **kwargs))


def close(loop, gateway, clock) -> None:
    task = loop.create_task(gateway.aclose())
    step(loop)
    clock.advance(1.0)
    step(loop)
    loop.run_until_complete(task)


def test_flush_on_size_without_clock_advance(loop, forbid_real_sleeps, index):
    """max_batch pending requests dispatch immediately — the clock never
    moves, so only the size trigger can have flushed them."""
    asyncio.set_event_loop(loop)
    clock = FakeClock()
    gateway = make_gateway(index, clock, max_batch=4, flush_window_ms=1000.0)
    oracle = QueryEngine(index, cache_size=0)
    rng = np.random.default_rng(1)
    weights = [rng.dirichlet(np.ones(3)) for _ in range(4)]
    tasks = [submit(loop, gateway, w, 5) for w in weights]
    step(loop)
    assert all(task.done() for task in tasks)
    for w, task in zip(weights, tasks):
        expected = oracle.query(w, 5)
        assert task.result().ids.tobytes() == expected.ids.tobytes()
        assert task.result().scores.tobytes() == expected.scores.tobytes()
    stats = gateway.stats()
    assert stats["batches"] == 1.0
    assert stats["batch_occupancy"] == 4.0
    close(loop, gateway, clock)


def test_flush_on_deadline(loop, forbid_real_sleeps, index):
    """A lone request waits out the full flush window, then dispatches the
    moment the fake clock crosses the deadline."""
    asyncio.set_event_loop(loop)
    clock = FakeClock()
    gateway = make_gateway(index, clock, max_batch=32, flush_window_ms=2.0)
    task = submit(loop, gateway, np.array([0.2, 0.3, 0.5]), 7)
    step(loop)
    assert not task.done()  # window open, batch not full
    clock.advance(0.001)
    step(loop)
    assert not task.done()  # 1ms < 2ms window
    clock.advance(0.0011)
    step(loop)
    assert task.done()
    expected = QueryEngine(index, cache_size=0).query(
        np.array([0.2, 0.3, 0.5]), 7
    )
    assert task.result().ids.tobytes() == expected.ids.tobytes()
    assert gateway.stats()["batch_occupancy"] == 1.0
    close(loop, gateway, clock)


def test_cancelled_request_never_occupies_a_lane(
    loop, forbid_real_sleeps, index
):
    asyncio.set_event_loop(loop)
    clock = FakeClock()
    gateway = make_gateway(index, clock, max_batch=32, flush_window_ms=2.0)
    keep = submit(loop, gateway, np.array([0.5, 0.25, 0.25]), 5)
    drop = submit(loop, gateway, np.array([0.1, 0.1, 0.8]), 5)
    step(loop)
    drop.cancel()
    step(loop)
    clock.advance(0.003)
    step(loop)
    assert keep.done() and not keep.cancelled()
    assert drop.cancelled()
    expected = QueryEngine(index, cache_size=0).query(
        np.array([0.5, 0.25, 0.25]), 5
    )
    assert keep.result().ids.tobytes() == expected.ids.tobytes()
    stats = gateway.stats()
    assert stats["batch_rows"] == 1.0  # the cancelled row took no lane
    assert stats["inflight"] == 0.0
    close(loop, gateway, clock)


def test_fair_share_round_robin_across_tenants(
    loop, forbid_real_sleeps, index
):
    """A flooding tenant cannot starve a light tenant: the drain takes one
    request per tenant in rotation, so the light tenant's request makes
    the first batch while the flooder's tail waits."""
    asyncio.set_event_loop(loop)
    clock = FakeClock()
    gateway = make_gateway(index, clock, max_batch=3, flush_window_ms=2.0)
    rng = np.random.default_rng(3)
    flood = [
        submit(loop, gateway, rng.dirichlet(np.ones(3)), 5, tenant="flood")
        for _ in range(3)
    ]
    light = submit(
        loop, gateway, rng.dirichlet(np.ones(3)), 5, tenant="light"
    )
    step(loop)
    # First flush (size-triggered at 3): flood[0], light, flood[1].
    assert light.done()
    assert flood[0].done() and flood[1].done()
    assert not flood[2].done()  # FIFO would have flushed flood[0..2]
    clock.advance(0.003)
    step(loop)
    assert flood[2].done()
    per_tenant = gateway.stats()["per_tenant"]
    assert per_tenant["flood"]["queries"] == 3.0
    assert per_tenant["light"]["queries"] == 1.0
    close(loop, gateway, clock)


def test_admission_fast_rejects_when_queue_full(
    loop, forbid_real_sleeps, index
):
    asyncio.set_event_loop(loop)
    clock = FakeClock()
    gateway = make_gateway(
        index, clock, max_batch=32, flush_window_ms=5.0, max_pending=2
    )
    rng = np.random.default_rng(5)
    admitted = [
        submit(loop, gateway, rng.dirichlet(np.ones(3)), 5) for _ in range(2)
    ]
    step(loop)
    shed = submit(loop, gateway, rng.dirichlet(np.ones(3)), 5)
    step(loop)
    assert shed.done()
    with pytest.raises(GatewayOverloadError):
        shed.result()
    assert gateway.rejected_queue_full == 1
    clock.advance(0.006)
    step(loop)
    assert all(task.done() and not task.exception() for task in admitted)
    assert gateway.stats()["accepted"] == 2.0
    close(loop, gateway, clock)


def test_admission_fast_rejects_at_inflight_cap(
    loop, forbid_real_sleeps, index
):
    asyncio.set_event_loop(loop)
    clock = FakeClock()
    gateway = make_gateway(
        index,
        clock,
        max_batch=32,
        flush_window_ms=5.0,
        max_pending=32,
        max_inflight=2,
    )
    rng = np.random.default_rng(7)
    admitted = [
        submit(loop, gateway, rng.dirichlet(np.ones(3)), 5) for _ in range(2)
    ]
    step(loop)
    shed = submit(loop, gateway, rng.dirichlet(np.ones(3)), 5)
    step(loop)
    assert shed.done()
    with pytest.raises(GatewayOverloadError):
        shed.result()
    assert gateway.rejected_inflight == 1
    clock.advance(0.006)
    step(loop)
    assert all(not task.exception() for task in admitted)
    close(loop, gateway, clock)


def test_slo_violations_tracked_on_gateway_clock(
    loop, forbid_real_sleeps, index
):
    """A request that waits out a 2ms window against a 1ms SLO counts as
    a violation; a size-flushed request at zero elapsed time does not."""
    asyncio.set_event_loop(loop)
    clock = FakeClock()
    gateway = make_gateway(
        index, clock, max_batch=32, flush_window_ms=2.0, slo_target_ms=1.0
    )
    slow = submit(loop, gateway, np.array([0.4, 0.3, 0.3]), 5)
    step(loop)
    clock.advance(0.003)
    step(loop)
    assert slow.done()
    assert gateway.stats()["rollup"]["slo_violations"] == 1.0

    fast_gateway = make_gateway(
        index, clock, max_batch=1, flush_window_ms=2.0, slo_target_ms=1.0
    )
    fast = submit(loop, fast_gateway, np.array([0.4, 0.3, 0.3]), 5)
    step(loop)
    assert fast.done()
    rollup = fast_gateway.stats()["rollup"]
    assert rollup["slo_violations"] == 0.0
    assert rollup["queries"] == 1.0
    close(loop, gateway, clock)
    close(loop, fast_gateway, clock)


def test_validation_precedes_admission(loop, forbid_real_sleeps, index):
    """Malformed requests raise before anything is queued — they never
    count against admission or wake the flush worker."""
    asyncio.set_event_loop(loop)
    clock = FakeClock()
    gateway = make_gateway(index, clock)
    bad_weights = submit(loop, gateway, np.array([0.5, -0.5, 1.0]), 5)
    bad_k = submit(loop, gateway, np.array([0.2, 0.3, 0.5]), 2.5)
    bool_k = submit(loop, gateway, np.array([0.2, 0.3, 0.5]), np.True_)
    step(loop)
    with pytest.raises(InvalidWeightError):
        bad_weights.result()
    with pytest.raises(InvalidQueryError):
        bad_k.result()
    with pytest.raises(InvalidQueryError, match="must be an integer"):
        bool_k.result()
    assert gateway.accepted == 0
    assert gateway.stats()["pending"] == 0.0
    close(loop, gateway, clock)


@pytest.mark.parametrize(
    "weights, message",
    [
        ([0.5, np.nan, 0.5], "weights must be finite"),
        (
            [0.5, 0.0, 0.5],
            "weights must be strictly positive (monotone scoring), "
            "got [0.5, 0.0, 0.5]",
        ),
        ([0.5, 0.5], "expected 3 weights, got 2"),
        ([[0.2, 0.3, 0.5]], "weight vector must be 1-D, got shape (1, 3)"),
    ],
    ids=["nan", "zero", "wrong-width", "2-D"],
)
def test_rejected_request_error_text(loop, forbid_real_sleeps, index, weights, message):
    """A malformed request fails with ``normalize_weights``'s own error
    text, and so does the same request through ``query_many``."""
    asyncio.set_event_loop(loop)
    clock = FakeClock()
    gateway = make_gateway(index, clock)
    task = submit(loop, gateway, weights, 5)
    step(loop)
    with pytest.raises(InvalidWeightError) as info:
        task.result()
    assert str(info.value) == message
    with pytest.raises(InvalidWeightError) as info:
        gateway.engine.query_many([([0.2, 0.3, 0.5], 5), (weights, 5)])
    assert str(info.value) == message
    assert gateway.accepted == 0
    assert gateway.engine.metrics.queries == 0
    close(loop, gateway, clock)


def test_closed_gateway_rejects_new_but_drains_admitted(
    loop, forbid_real_sleeps, index
):
    asyncio.set_event_loop(loop)
    clock = FakeClock()
    gateway = make_gateway(index, clock, max_batch=32, flush_window_ms=50.0)
    admitted = submit(loop, gateway, np.array([0.2, 0.3, 0.5]), 5)
    step(loop)
    closing = loop.create_task(gateway.aclose())
    step(loop)
    # aclose skips the flush window: the admitted request is answered
    # without any clock advance.
    assert admitted.done() and not admitted.exception()
    loop.run_until_complete(closing)
    late = submit(loop, gateway, np.array([0.2, 0.3, 0.5]), 5)
    step(loop)
    with pytest.raises(GatewayClosedError):
        late.result()


def test_gateway_invalid_parameters(index):
    engine = QueryEngine(index, cache_size=0)
    with pytest.raises(InvalidQueryError):
        AsyncGateway(engine, max_batch=0)
    with pytest.raises(InvalidQueryError):
        AsyncGateway(engine, flush_window_ms=-1.0)
    with pytest.raises(InvalidQueryError):
        AsyncGateway(engine, max_pending=0)
    with pytest.raises(InvalidQueryError):
        AsyncGateway(engine, max_inflight=0)


def test_coalesced_answers_bitwise_identical_property(
    loop, forbid_real_sleeps, index
):
    """Acceptance: over mixed k lanes, cache hits, and cancelled
    requests, every answer the coalescer returns is bitwise identical to
    ``engine.query(w, k)`` — with zero real sleeps end to end."""
    asyncio.set_event_loop(loop)
    clock = FakeClock()
    gateway = make_gateway(
        index,
        clock,
        cache_size=64,  # exercise the engine's cache-hit path
        max_batch=8,
        flush_window_ms=2.0,
        slo_target_ms=5.0,
    )
    oracle = QueryEngine(index, cache_size=0)
    rng = np.random.default_rng(11)
    distinct = [rng.dirichlet(np.ones(3)) for _ in range(10)]
    plan = [
        (distinct[int(i)], int(k))
        for i, k in zip(
            rng.integers(0, 10, size=50), rng.integers(1, 13, size=50)
        )
    ]
    # Exact repeats guarantee cache hits inside and across flushes.
    plan[20] = plan[0]
    plan[33] = plan[5]
    # First wave stays below max_batch, so it parks on the flush window
    # and the cancellations land while those requests are still queued.
    cancelled = {1, 3}
    tasks = [submit(loop, gateway, w, k) for w, k in plan[:5]]
    step(loop)
    assert gateway.stats()["batches"] == 0.0  # wave parked, none flushed
    for i in cancelled:
        tasks[i].cancel()
    step(loop)
    tasks.extend(submit(loop, gateway, w, k) for w, k in plan[5:])
    for _ in range(64):
        if all(task.done() for task in tasks):
            break
        step(loop)
        clock.advance(0.002)
        step(loop)
    assert all(task.done() for task in tasks)
    hits = 0
    for i, (task, (w, k)) in enumerate(zip(tasks, plan)):
        if i in cancelled:
            assert task.cancelled()
            continue
        result = task.result()
        expected = oracle.query(w, k)
        assert result.ids.tobytes() == expected.ids.tobytes()
        assert result.scores.tobytes() == expected.scores.tobytes()
        assert result.ids.dtype == expected.ids.dtype
        assert result.scores.dtype == expected.scores.dtype
        hits += result.cost == 0
    assert hits > 0  # the cache-hit path really ran
    stats = gateway.stats()
    assert stats["rollup"]["queries"] == float(len(plan) - len(cancelled))
    assert stats["rollup"]["cache_hits"] == float(hits)
    assert stats["batch_occupancy"] > 1.0  # coalescing actually engaged
    close(loop, gateway, clock)


class FlakyEngine(QueryEngine):
    """A QueryEngine whose ``query_batch`` raises on one chosen call."""

    def __init__(self, index, fail_on_call: int) -> None:
        super().__init__(index, cache_size=0)
        self.calls = 0
        self.fail_on_call = fail_on_call
        self.error = RuntimeError("engine down for one flush")

    def query_batch(self, weights_matrix, k):
        self.calls += 1
        if self.calls == self.fail_on_call:
            raise self.error
        return super().query_batch(weights_matrix, k)


def test_engine_failure_fails_exactly_its_flush(
    loop, forbid_real_sleeps, index
):
    """An engine error fails every waiter of that flush with the same
    exception object; the next flush is served bitwise and the gateway
    stays open.  Each mixed-k flush is one engine call."""
    asyncio.set_event_loop(loop)
    clock = FakeClock()
    engine = FlakyEngine(index, fail_on_call=1)
    gateway = AsyncGateway(
        engine, max_batch=4, flush_window_ms=1000.0,
        clock=clock, sleep=clock.sleep,
    )
    oracle = QueryEngine(index, cache_size=0)
    rng = np.random.default_rng(19)
    ks = (3, 5, 3, 7)
    first = [rng.dirichlet(np.ones(3)) for _ in ks]
    failed = [submit(loop, gateway, w, k) for w, k in zip(first, ks)]
    step(loop)
    assert all(task.done() for task in failed)
    assert all(task.exception() is engine.error for task in failed)
    assert engine.calls == 1

    second = [rng.dirichlet(np.ones(3)) for _ in ks]
    served = [submit(loop, gateway, w, k) for w, k in zip(second, ks)]
    step(loop)
    assert all(task.done() for task in served)
    for w, k, task in zip(second, ks, served):
        expected = oracle.query(w, k)
        assert task.result().ids.tobytes() == expected.ids.tobytes()
        assert task.result().scores.tobytes() == expected.scores.tobytes()
    assert engine.calls == 2
    assert gateway.stats()["accepted"] == 8.0
    close(loop, gateway, clock)


def test_gateway_fronts_cluster_engine(loop, forbid_real_sleeps):
    """The gateway accepts a ClusterEngine and preserves its bitwise
    scatter-gather answers."""
    asyncio.set_event_loop(loop)
    relation = generate("ANT", 300, 3, seed=73)
    cluster = ClusterEngine(
        relation, shards=3, index_class=DLPlusIndex, cache_size=0
    )
    clock = FakeClock()
    gateway = AsyncGateway(
        cluster, max_batch=4, flush_window_ms=2.0,
        clock=clock, sleep=clock.sleep,
    )
    rng = np.random.default_rng(13)
    weights = [rng.dirichlet(np.ones(3)) for _ in range(4)]
    tasks = [submit(loop, gateway, w, 6) for w in weights]
    step(loop)
    assert all(task.done() for task in tasks)
    for w, task in zip(weights, tasks):
        expected = cluster.query(w, 6)
        assert task.result().ids.tobytes() == expected.ids.tobytes()
        assert task.result().scores.tobytes() == expected.scores.tobytes()
    close(loop, gateway, clock)


def test_gateway_with_executor_still_bitwise():
    """The thread-pool execution path (real event loop, no fake clock)
    returns the same bytes as inline dispatch."""
    from concurrent.futures import ThreadPoolExecutor

    index = DLPlusIndex(generate("IND", 300, 3, seed=79)).build()
    oracle = QueryEngine(index, cache_size=0)
    rng = np.random.default_rng(17)
    weights = [rng.dirichlet(np.ones(3)) for _ in range(12)]

    async def run():
        with ThreadPoolExecutor(max_workers=1) as executor:
            gateway = AsyncGateway(
                QueryEngine(index, cache_size=0),
                max_batch=4,
                flush_window_ms=1.0,
                executor=executor,
            )
            async with gateway:
                return await asyncio.gather(
                    *(gateway.query(w, 5) for w in weights)
                )

    results = asyncio.run(run())
    for w, result in zip(weights, results):
        expected = oracle.query(w, 5)
        assert result.ids.tobytes() == expected.ids.tobytes()
        assert result.scores.tobytes() == expected.scores.tobytes()
