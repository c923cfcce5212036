"""AsyncGateway: deterministic fake-clock coalescing tests.

Every test in this module drives the gateway with an injected fake clock
and steps the event loop by hand — flush-on-size, flush-on-deadline,
cancellation, fairness, admission control, cache hits answered at
admission, accounting, freshness across writes, and the bitwise-identity
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
from repro.core.maintenance import DynamicDualLayerIndex
from repro.data import generate
from repro.exceptions import (
    GatewayClosedError,
    GatewayOverloadError,
    InvalidQueryError,
    InvalidWeightError,
)
from repro.relation import Relation
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
    # The second wave coalesces with the first; the third arrives after
    # both flushed, so its repeats are answered at admission.
    for wave in (plan[5:25], plan[25:]):
        tasks.extend(submit(loop, gateway, w, k) for w, k in wave)
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
    answered = len(plan) - len(cancelled)
    assert stats["rollup"]["queries"] == float(answered)
    assert stats["rollup"]["cache_hits"] == float(hits)
    # Hits were answered at admission and the rest took one lane each.
    assert 0 < stats["admission_hits"] <= hits
    assert stats["batch_rows"] == answered - stats["admission_hits"]
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


# --------------------------------------------------------------------- #
# Cache hits answered at admission
# --------------------------------------------------------------------- #


def assert_same_answer(result, expected) -> None:
    assert result.ids.tobytes() == expected.ids.tobytes()
    assert result.scores.tobytes() == expected.scores.tobytes()
    assert len(result) == len(expected)


def test_hit_resolves_at_admission_without_clock_or_flush(
    loop, forbid_real_sleeps, index
):
    """A cached request is answered in the task's first step: the clock
    never moves, no flush runs, and it is counted once per registry."""
    asyncio.set_event_loop(loop)
    clock = FakeClock()
    gateway = make_gateway(index, clock, cache_size=64, flush_window_ms=1000.0)
    engine = gateway.engine
    w = np.array([0.2, 0.3, 0.5])
    expected = engine.query(w, 5)  # fills the cache
    task = submit(loop, gateway, w, 5, tenant="t")
    step(loop, rounds=1)
    assert task.done()
    assert_same_answer(task.result(), expected)
    assert task.result().cost == 0
    assert clock.now == 0.0
    stats = gateway.stats()
    assert stats["batches"] == 0.0
    assert stats["pending"] == 0.0 and stats["inflight"] == 0.0
    assert stats["accepted"] == 1.0 and stats["admission_hits"] == 1.0
    tenant = stats["per_tenant"]["t"]
    assert tenant["queries"] == 1.0 and tenant["cache_hits"] == 1.0
    assert tenant["batched_queries"] == 0.0
    engine_stats = engine.stats()
    assert engine_stats["queries"] == 2.0  # the warm-up and the hit
    assert engine_stats["cache_hits"] == 1.0
    assert engine_stats["batched_queries"] == 0.0
    assert engine.cache.hits == 1 and engine.cache.misses == 1
    close(loop, gateway, clock)


def test_hit_answered_while_queue_is_full(loop, forbid_real_sleeps, index):
    """A hit needs no queue slot: with max_pending misses parked it is
    still answered, while the next miss is shed."""
    asyncio.set_event_loop(loop)
    clock = FakeClock()
    gateway = make_gateway(
        index, clock, cache_size=64, flush_window_ms=5.0, max_pending=2
    )
    cached = np.array([0.6, 0.2, 0.2])
    expected = gateway.engine.query(cached, 4)
    rng = np.random.default_rng(23)
    parked = [
        submit(loop, gateway, rng.dirichlet(np.ones(3)), 5) for _ in range(2)
    ]
    step(loop)
    assert gateway.stats()["pending"] == 2.0
    hit = submit(loop, gateway, cached, 4)
    step(loop)
    assert hit.done()
    assert_same_answer(hit.result(), expected)
    shed = submit(loop, gateway, rng.dirichlet(np.ones(3)), 5)
    step(loop)
    with pytest.raises(GatewayOverloadError):
        shed.result()
    assert gateway.rejected_queue_full == 1
    assert not any(task.done() for task in parked)
    clock.advance(0.006)
    step(loop)
    assert all(task.done() and not task.exception() for task in parked)
    stats = gateway.stats()
    assert stats["accepted"] == 3.0 and stats["admission_hits"] == 1.0
    assert stats["batch_rows"] == 2.0
    close(loop, gateway, clock)


def test_miss_still_waits_for_its_window(loop, forbid_real_sleeps, index):
    """With the cache on, a miss is queued and waits out the window even
    after a hit was answered at admission beside it."""
    asyncio.set_event_loop(loop)
    clock = FakeClock()
    gateway = make_gateway(index, clock, cache_size=64, flush_window_ms=2.0)
    cached = np.array([0.6, 0.2, 0.2])
    gateway.engine.query(cached, 5)
    miss = submit(loop, gateway, np.array([0.2, 0.3, 0.5]), 7)
    hit = submit(loop, gateway, cached, 5)
    step(loop)
    assert hit.done() and not miss.done()
    clock.advance(0.001)
    step(loop)
    assert not miss.done()
    clock.advance(0.0011)
    step(loop)
    assert miss.done()
    assert miss.result().cost > 0
    expected = QueryEngine(index, cache_size=0).query(
        np.array([0.2, 0.3, 0.5]), 7
    )
    assert_same_answer(miss.result(), expected)
    stats = gateway.stats()
    assert stats["batches"] == 1.0 and stats["batch_occupancy"] == 1.0
    close(loop, gateway, clock)


def test_cancelled_miss_never_takes_a_lane_beside_hits(
    loop, forbid_real_sleeps, index
):
    asyncio.set_event_loop(loop)
    clock = FakeClock()
    gateway = make_gateway(index, clock, cache_size=64, flush_window_ms=2.0)
    cached = np.array([0.3, 0.3, 0.4])
    gateway.engine.query(cached, 5)
    keep = submit(loop, gateway, np.array([0.5, 0.25, 0.25]), 5)
    drop = submit(loop, gateway, np.array([0.1, 0.1, 0.8]), 5)
    hit = submit(loop, gateway, cached, 5)
    step(loop)
    assert hit.done() and not drop.done()
    drop.cancel()
    step(loop)
    clock.advance(0.003)
    step(loop)
    assert keep.done() and drop.cancelled()
    stats = gateway.stats()
    assert stats["batch_rows"] == 1.0  # the cancelled miss took no lane
    assert stats["admission_hits"] == 1.0
    assert stats["inflight"] == 0.0
    close(loop, gateway, clock)


def run_plan(loop, gateway, clock, plan, wave: int = 6):
    """Send ``plan`` in waves, each flushed before the next is sent, so
    later waves find earlier answers in the cache."""
    results = []
    for start in range(0, len(plan), wave):
        tasks = [submit(loop, gateway, w, k) for w, k in plan[start : start + wave]]
        step(loop)
        clock.advance(gateway.flush_window + 1e-6)
        step(loop)
        assert all(task.done() for task in tasks)
        results.extend(task.result() for task in tasks)
    return results


def accounting_plan(d: int, seed: int):
    rng = np.random.default_rng(seed)
    distinct = [rng.dirichlet(np.ones(d)) for _ in range(6)]
    return [
        (distinct[int(i)], int(k))
        for i, k in zip(rng.integers(0, 6, size=36), rng.choice([3, 5], size=36))
    ]


@pytest.mark.parametrize("cache_size", [64, 0])
@pytest.mark.parametrize("kind", ["engine", "cluster"])
def test_every_request_counted_once(loop, forbid_real_sleeps, kind, cache_size):
    """Each gateway request is one query in ``engine.stats()``, one
    lookup in ``ResultCache.hits``/``misses`` and one query in the
    roll-up, whether it hit at admission, hit in its flush or was
    computed.  With caching off nothing is answered at admission and
    every request is one batched miss, as before admission hits."""
    asyncio.set_event_loop(loop)
    relation = generate("IND", 300, 3, seed=29)
    if kind == "engine":
        engine = QueryEngine(DLPlusIndex(relation).build(), cache_size=cache_size)
    else:
        engine = ClusterEngine(relation, shards=2, cache_size=cache_size)
    clock = FakeClock()
    gateway = AsyncGateway(
        engine, max_batch=8, flush_window_ms=2.0, clock=clock, sleep=clock.sleep
    )
    plan = accounting_plan(3, seed=31)
    results = run_plan(loop, gateway, clock, plan)
    n = float(len(plan))
    hits = float(sum(result.cost == 0 for result in results))
    stats = engine.stats()
    rollup = gateway.stats()["rollup"]
    admission = gateway.stats()["admission_hits"]
    assert stats["queries"] == n and rollup["queries"] == n
    assert stats["cache_hits"] == hits == rollup["cache_hits"]
    assert stats["cache_misses"] == n - hits == rollup["cache_misses"]
    assert stats["batched_queries"] == n - admission
    if cache_size:
        assert admission > 0
        assert engine.cache.hits == hits
        assert engine.cache.misses == n - hits
        if kind == "cluster":
            assert all(
                result.merge == "cache" for result in results if result.cost == 0
            )
    else:
        assert admission == 0.0 and hits == 0.0
        assert engine.cache.hits == engine.cache.misses == 0
        assert gateway.stats()["batch_rows"] == n
    close(loop, gateway, clock)


# --------------------------------------------------------------------- #
# Freshness across writes
# --------------------------------------------------------------------- #

LAYERS = 4


def rebuilt_answer(ids, rows, w, k):
    """The answer of an engine built from scratch on the live rows
    (``rows[i]`` has id ``ids[i]``, ascending), in those ids."""
    fresh = QueryEngine(
        DLPlusIndex(Relation(rows), max_layers=LAYERS).build(), cache_size=0
    )
    result = fresh.query(w, k)
    result.ids = np.asarray(ids, dtype=result.ids.dtype)[result.ids]
    return result


def ask(loop, gateway, w, k):
    """One request through a ``max_batch=1`` gateway: a miss flushes at
    once, so no clock advance is needed."""
    task = submit(loop, gateway, w, k)
    step(loop)
    assert task.done()
    return task.result()


def cluster_live_rows(cluster):
    pairs = sorted(
        (int(gid), row)
        for shard in cluster.shards
        for gid, row in zip(shard.global_ids, shard.relation.matrix)
    )
    return [gid for gid, _ in pairs], np.vstack([row for _, row in pairs])


def test_gateway_answers_fresh_across_cluster_writes(loop, forbid_real_sleeps):
    """Before and after a visible and an absorbed cluster write, the same
    request answers bitwise like an engine rebuilt on the live rows: the
    visible write falls through to the queue, the absorbed one (its
    cache entries re-keyed) still hits at admission."""
    asyncio.set_event_loop(loop)
    relation = generate("IND", 240, 3, seed=37)
    cluster = ClusterEngine(
        relation,
        shards=2,
        index_kwargs={"max_layers": LAYERS},
        cache_size=64,
    )
    clock = FakeClock()
    gateway = AsyncGateway(
        cluster, max_batch=1, flush_window_ms=2.0, clock=clock, sleep=clock.sleep
    )
    w, k = np.array([0.5, 0.2, 0.3]), 3

    def check(result):
        assert_same_answer(result, rebuilt_answer(*cluster_live_rows(cluster), w, k))

    check(ask(loop, gateway, w, k))
    before = ask(loop, gateway, w, k)
    check(before)
    assert before.merge == "cache" and gateway.admission_hits == 1

    cluster.insert(np.full(3, 1e-3))  # beats every tuple: visible
    assert cluster.shard_rebuilds == 1
    after = ask(loop, gateway, w, k)
    assert after.cost > 0 and gateway.admission_hits == 1  # queued, computed
    check(after)
    check(ask(loop, gateway, w, k))
    assert gateway.admission_hits == 2

    cluster.insert(np.full(3, 0.999))  # dominated by a last-layer member
    assert cluster.writes_absorbed == 1
    absorbed = ask(loop, gateway, w, k)
    assert absorbed.merge == "cache" and gateway.admission_hits == 3
    check(absorbed)
    close(loop, gateway, clock)


def test_gateway_answers_fresh_across_dynamic_writes(loop, forbid_real_sleeps):
    """A DynamicDualLayerIndex insert or delete bumps the version: the
    next request falls through to the queue and answers like an engine
    rebuilt on the live rows, then hits at admission again."""
    asyncio.set_event_loop(loop)
    rows = generate("IND", 120, 3, seed=41).matrix
    dynamic = DynamicDualLayerIndex(d=3)
    live = {dynamic.insert(row): row for row in rows}
    clock = FakeClock()
    gateway = AsyncGateway(
        QueryEngine(dynamic, cache_size=64),
        max_batch=1,
        flush_window_ms=2.0,
        clock=clock,
        sleep=clock.sleep,
    )
    w, k = np.array([0.25, 0.35, 0.4]), 4

    def check(result):
        ids = sorted(live)
        assert_same_answer(
            result, rebuilt_answer(ids, np.vstack([live[i] for i in ids]), w, k)
        )

    first = ask(loop, gateway, w, k)
    check(first)
    hits = 0
    for write in ("insert", "delete", "delete-top"):
        hit = ask(loop, gateway, w, k)
        hits += 1
        assert hit.cost == 0 and gateway.admission_hits == hits
        check(hit)
        if write == "insert":
            live[dynamic.insert(np.full(3, 1e-3))] = np.full(3, 1e-3)
        elif write == "delete":
            victim = max(live)  # the tuple inserted above
            dynamic.delete(victim)
            del live[victim]
        else:
            victim = int(first.ids[0])  # the best tuple of the first answer
            dynamic.delete(victim)
            del live[victim]
        after = ask(loop, gateway, w, k)
        assert after.cost > 0 and gateway.admission_hits == hits
        check(after)
    close(loop, gateway, clock)
