"""One process of an end-to-end workload; ``run.py`` starts three per run.

    python benchmarks/e2e/workloads.py WORKLOAD --seed S --part J --seconds T
        [--trace] [--scale full|smoke] [--spans FILE] [--corrupt-answer]

The process sets the system up once through the public API, timing the
set-up, then runs one timed phase of about ``T`` seconds and checks sampled
answers against the benchmark's own oracle.  With ``--trace`` it then
installs timing wrappers around the layers' public functions and runs a
second, traced phase on fresh inputs; per-layer metrics come from that
phase only.  The last line of standard output is one JSON object.

Each workload serves one fixed relation (generated from ``DATA_SEED``), so
that the seed moves the query stream only: ``--seed`` and ``--part`` draw
the weights, k values, arrival times and writes.  ``T`` fixes the amount of
work: a phase issues ``rate * T`` operations (``rate`` below is sized so a
phase lasts about ``T`` seconds on a 2-vCPU host), so one seed, part and
``T`` always mean the same work.

Latency and throughput are reported per window: the phase is split into
``WINDOWS`` equal-count windows and each window gives its median latency
and its rate.  ``run.py`` takes medians over the windows of all the run's
processes, so a slowdown of the host that lasts a second or two, or one
slow process, does not set the run's number.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

import repro.core.native.kernel as native_kernel_module  # noqa: E402
import repro.core.query as query_module  # noqa: E402
import repro.serving.engine as engine_module  # noqa: E402
import scipy  # noqa: E402
from repro import DLPlusIndex, generate  # noqa: E402
from repro.cluster import ClusterEngine, Shard, ShardCursor  # noqa: E402
from repro.core.build import BUILD_STAGES  # noqa: E402
from repro.core.native import build_info  # noqa: E402
from repro.exceptions import GatewayOverloadError  # noqa: E402
from repro.io import open_snapshot, save_snapshot  # noqa: E402
from repro.serving import AsyncGateway, QueryEngine  # noqa: E402

import oracle  # noqa: E402
from spans import Tracer  # noqa: E402

DATA_SEED = 2012
WINDOWS = 10
SLO_S = 0.010
SPAN_FILE_LIMIT = 100_000
KS = (1, 5, 10)

#: Workload sizes at full scale; ``rate`` is operations per second of
#: phase (batches for offline-batch).  The gateway's open loop takes half
#: the phase's seconds; its closed loop issues ``closed_rate`` requests per
#: such second, more than it completes, so that half runs over two seconds:
#: longer than the host's one-to-two-second slowdowns.
FULL = {
    "solo": dict(dist="IND", n=30_000, d=4, layers=10, k=10, rate=16_000),
    "offline-batch": dict(dist="ANT", n=20_000, d=4, layers=50, k=50, width=64, rate=57),
    "gateway": dict(
        dist="IND", n=30_000, d=4, layers=10, pool=1024,
        arrival_qps=3000, clients=64, closed_rate=30_000,
    ),
    "cluster-rw": dict(dist="IND", n=20_000, d=3, layers=10, shards=4, pool=256, rate=3500),
}
SPECS = {"full": FULL, "smoke": {name: dict(spec, n=2000) for name, spec in FULL.items()}}


# ---------------------------------------------------------------------- #
# Small helpers
# ---------------------------------------------------------------------- #


def pct(values, q: float) -> float:
    values = np.asarray(values, dtype=np.float64)
    return float(np.percentile(values, q)) if values.size else 0.0


def mean(values) -> float:
    values = np.asarray(values, dtype=np.float64)
    return float(values.mean()) if values.size else 0.0


def count(rate: float, seconds: float, floor: int = 200) -> int:
    return max(floor, int(round(rate * seconds)))


def weight_rows(rng: np.random.Generator, rows: int, d: int) -> np.ndarray:
    return np.clip(rng.dirichlet(np.ones(d), size=rows), 1e-9, None)


def zipf_draws(rng: np.random.Generator, pool: int, rows: int):
    """Pool positions with Zipf(s=1) popularity and k uniform over KS."""
    popularity = 1.0 / np.arange(1, pool + 1)
    picks = rng.choice(pool, size=rows, p=popularity / popularity.sum())
    return picks, rng.choice(KS, size=rows)


def build_facts(indexes) -> dict:
    """Build seconds, total and per stage, summed over ``indexes``."""
    facts = {f"build.{stage}_s": 0.0 for stage in ("total", *BUILD_STAGES)}
    for index in indexes:
        facts["build.total_s"] += index.build_stats.seconds
        for stage, seconds in index.build_stats.stage_seconds.items():
            facts[f"build.{stage}_s"] += seconds
    return facts


class Tally:
    """Per-phase operation outcomes and Definition-9 counts."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.error = ""
        self.real: list[int] = []
        self.pseudo: list[int] = []
        self.returned: list[int] = []

    def fail(self, exc: BaseException) -> None:
        self.failed += 1
        if not self.error:
            self.error = f"{type(exc).__name__}: {exc}"

    def answer(self, result) -> None:
        """Count the tuples a computed (non-hit) answer evaluated."""
        counter = result.counter
        if counter.real + counter.pseudo:
            self.real.append(counter.real)
            self.pseudo.append(counter.pseudo)
            self.returned.append(len(result.ids))


class Phase:
    """What one timed phase measured.

    ``latency_s`` holds one sample per timed request, in issue order (NaN
    for a failed one).  ``ends`` holds the phase start followed by each
    operation's completion time; a window's rate is its operations times
    ``per_op`` answers over the time its operations took.
    """

    def __init__(self, tally: Tally, latency_s, ends, per_op: int = 1, **extra) -> None:
        self.tally = tally
        self.latency_ms = np.asarray(latency_s, dtype=np.float64) * 1e3
        self.ends = np.asarray(ends, dtype=np.float64)
        self.per_op = per_op
        self.extra = extra

    def windows(self) -> dict:
        """Per-window median latency and answer rate."""
        latency = self.latency_ms[~np.isnan(self.latency_ms)]
        parts = np.array_split(latency, min(WINDOWS, max(latency.size, 1)))
        out = {"p50": [pct(part, 50) for part in parts]}
        bounds = np.linspace(0, self.ends.size - 1, WINDOWS + 1).round().astype(int)
        out["qps"] = [
            (b - a) * self.per_op / (self.ends[b] - self.ends[a])
            for a, b in zip(bounds[:-1], bounds[1:])
            if b > a
        ]
        return out


# ---------------------------------------------------------------------- #
# Tracing hooks (public functions of each layer, patched from outside)
# ---------------------------------------------------------------------- #


class BatchRows:
    """Rows per traced batch span, keyed by span id."""

    def __init__(self) -> None:
        self.rows: dict[int, int] = {}

    def __call__(self, span_id, start, end, result) -> None:
        self.rows[span_id] = len(result)


def trace_engine(tracer: Tracer, engine: QueryEngine, rows: BatchRows, after_batch=None):
    """Wrap the single-node serving stack below ``engine``."""

    def on_batch(span_id, start, end, result):
        rows(span_id, start, end, result)
        if after_batch is not None:
            after_batch(span_id, start, end, result)

    tracer.patch(engine, "query", "engine.query")
    tracer.patch(engine, "query_batch", "engine.query_batch", after=on_batch)
    for attr in ("make_key", "get", "put", "prune"):
        tracer.patch(engine.cache, attr, f"cache.{attr}")
    tracer.patch(engine_module, "normalize_weights", "relation.normalize")
    tracer.patch(engine_module, "select_kernel", "dispatch.select")
    tracer.patch(engine_module, "process_top_k", "query.csr")
    tracer.patch(engine_module, "process_top_k_batch", "query.batch", after=rows)
    tracer.patch(query_module, "seed_scores", "query.seed_scores")
    tracer.patch(native_kernel_module, "seed_scores", "query.seed_scores")
    if build_info()["status"] in ("built", "cached"):
        walk = tracer.wrap(engine_module.get_jit_kernel(), "native.walk")
        tracer.replace(engine_module, "get_jit_kernel", lambda: walk)


def trace_cluster(tracer: Tracer, cluster: ClusterEngine) -> None:
    for attr in ("query", "insert", "delete"):
        tracer.patch(cluster, attr, f"cluster.{attr}")
    for attr in ("make_key", "get", "put", "prune"):
        tracer.patch(cluster.cache, attr, f"cache.{attr}")
    for attr in ("cursor", "topk", "insert", "delete"):
        tracer.patch(Shard, attr, f"shard.{attr}")
    tracer.patch(ShardCursor, "fetch", "shard.fetch")


def span_metrics(table, rows: BatchRows) -> dict:
    """Per-layer metrics derived from the spans alone."""
    us, ms = 1e3, 1e6

    def durations(*names):
        return table.duration[table.mask(*names)]

    def rows_of(mask):
        return np.asarray([rows.rows.get(int(i), 1) for i in table.id[mask]], dtype=np.float64)

    solo = table.mask("engine.query")
    batch = table.mask("engine.query_batch")
    per_row = table.self_ns[batch] / np.maximum(rows_of(batch), 1)
    lanes = rows_of(table.mask("query.batch"))
    reads = table.mask("cluster.query")
    fetches = table.child_counts(reads, "shard.fetch")
    computed = fetches > 0
    writes = table.mask("cluster.insert", "cluster.delete")
    return {
        "engine.self_us.p50": pct(np.concatenate([table.self_ns[solo], per_row]), 50) / us,
        "relation.normalize_us.p50": pct(durations("relation.normalize"), 50) / us,
        "cache.lookup_us.p50": pct(durations("cache.get"), 50) / us,
        "cache.put_us.p50": pct(durations("cache.put"), 50) / us,
        "cache.prunes": float(table.mask("cache.prune").sum()),
        "dispatch.select_us.p50": pct(durations("dispatch.select"), 50) / us,
        "native.calls": float(table.mask("native.walk").sum()),
        "native.self_us.p50": pct(table.self_ns[table.mask("native.walk")], 50) / us,
        "query.seed_scores_us.p50": pct(durations("query.seed_scores"), 50) / us,
        "query.batch_lane_us.p50": pct(
            durations("query.batch") / np.maximum(lanes, 1), 50
        ) / us,
        "query.batch_lanes.mean": mean(lanes),
        "query.csr_us.p50": pct(durations("query.csr"), 50) / us,
        "cluster.merge_self_us.p50": pct(table.self_ns[reads][computed], 50) / us,
        "shard.fetches_per_query.mean": mean(fetches[computed]),
        "shard.fetch_us.p50": pct(durations("shard.fetch"), 50) / us,
        "shard.cursor_us.p50": pct(durations("shard.cursor"), 50) / us,
        "shard.rebuild_ms.p50": pct(durations("shard.insert", "shard.delete"), 50) / ms,
        "cluster.write_self_ms.p50": pct(table.self_ns[writes], 50) / ms,
    }


# ---------------------------------------------------------------------- #
# Workloads
# ---------------------------------------------------------------------- #


class Workload:
    """Inputs, set-up and one timed phase of a workload."""

    check_every = 150

    def __init__(self, spec: dict, seed: int, workdir: Path) -> None:
        self.spec = spec
        self.workdir = workdir
        self.relation = generate(spec["dist"], spec["n"], spec["d"], seed=DATA_SEED)
        self.matrix = np.ascontiguousarray(self.relation.matrix)
        self.ids = np.arange(self.matrix.shape[0], dtype=np.int64)
        self.warm = np.random.default_rng([seed, 1])
        self.engine = None

    def expected(self, weights, k):
        return oracle.top_k(self.matrix, self.ids, weights, k)

    def counters(self) -> dict:
        stats = self.engine.stats()
        keys = ("kernel_native", "kernel_batch", "kernel_csr", "kernel_reference",
                "native_workspace_fallbacks")
        counters = {key: stats.get(key, 0.0) for key in keys}
        counters["hits"] = self.engine.cache.hits
        counters["misses"] = self.engine.cache.misses
        return counters

    def trace(self, tracer: Tracer, rows: BatchRows) -> None:
        trace_engine(tracer, self.engine, rows)

    def extra_metrics(self, phase: Phase) -> dict:
        return {}


class Solo(Workload):
    """One closed-loop client calling ``engine.query`` with unique weights."""

    def setup(self) -> dict:
        spec = self.spec
        index = DLPlusIndex(self.relation, max_layers=spec["layers"]).build()
        engine = QueryEngine(index)
        for w in weight_rows(self.warm, 512, spec["d"]):
            engine.query(w, spec["k"])
        self.engine = engine
        return build_facts([index])

    def phase(self, rng, seconds, checker, tracer) -> Phase:
        spec, engine, k = self.spec, self.engine, self.spec["k"]
        weights = weight_rows(rng, count(spec["rate"], seconds), spec["d"])
        latency = np.full(weights.shape[0], np.nan)
        ends = np.empty(weights.shape[0] + 1)
        tally = Tally()
        sampled = []
        clock = time.perf_counter
        ends[0] = clock()
        for i, w in enumerate(weights):
            if tracer is not None:
                tracer.request.set(i)
            t0 = clock()
            try:
                result = engine.query(w, k)
            except Exception as exc:  # load-generator boundary: count, go on
                tally.fail(exc)
                ends[i + 1] = clock()
                continue
            ends[i + 1] = clock()
            latency[i] = ends[i + 1] - t0
            tally.answer(result)
            if i % self.check_every == 0:
                sampled.append((i, result))
        tally.attempted = weights.shape[0]
        for i, result in sampled:
            if not checker.check(result, self.expected(weights[i], k)):
                tally.failed += 1
        return Phase(tally, latency, ends)


class OfflineBatch(Workload):
    """Bulk scoring: ``engine.query_batch`` on batches of unique weights."""

    def setup(self) -> dict:
        spec = self.spec
        index = DLPlusIndex(self.relation, max_layers=spec["layers"]).build()
        engine = QueryEngine(index)
        engine.query(weight_rows(self.warm, 1, spec["d"])[0], spec["k"])
        for _ in range(3):
            engine.query_batch(weight_rows(self.warm, spec["width"], spec["d"]), spec["k"])
        self.engine = engine
        return build_facts([index])

    def phase(self, rng, seconds, checker, tracer) -> Phase:
        spec, engine, k, width = self.spec, self.engine, self.spec["k"], self.spec["width"]
        batches = count(spec["rate"], seconds, floor=WINDOWS * 2)
        weights = weight_rows(rng, batches * width, spec["d"]).reshape(batches, width, -1)
        latency = np.full(batches, np.nan)
        ends = np.empty(batches + 1)
        tally = Tally()
        sampled = []
        clock = time.perf_counter
        ends[0] = clock()
        for b in range(batches):
            if tracer is not None:
                tracer.request.set(b)
            t0 = clock()
            try:
                results = engine.query_batch(weights[b], k)
            except Exception as exc:  # load-generator boundary: count, go on
                tally.fail(exc)
                ends[b + 1] = clock()
                continue
            ends[b + 1] = clock()
            latency[b] = ends[b + 1] - t0
            for j, result in enumerate(results):
                tally.answer(result)
                if (b * width + j) % self.check_every == 0:
                    sampled.append((b, j, result))
        tally.attempted = batches * width
        for b, j, result in sampled:
            if not checker.check(result, self.expected(weights[b, j], k)):
                tally.failed += 1
        return Phase(tally, latency, ends, per_op=width)


class FlushLog:
    """Attributes gateway requests to the flush whose batch answered them.

    ``engine.query_batch`` returns the very result objects the gateway
    hands back to each request, so a result's identity names its flush.
    The flush ends when the gateway records the batch in its metrics.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.owner: dict[int, int] = {}
        self.flushes: list[tuple[int, int, int, str]] = []
        self.phase = "A"
        self._start: int | None = None

    def on_batch(self, span_id, start, end, results) -> None:
        if self._start is None:
            self._start = start
        flush = len(self.flushes)
        for result in results:
            self.owner[id(result)] = flush

    def attach(self, gateway: AsyncGateway) -> None:
        record_batch = gateway.metrics.record_batch

        def traced(size, seconds=None):
            end = time.perf_counter_ns()
            start = self._start or end
            self.flushes.append((start, end, size, self.phase))
            self.tracer.record("gateway.flush", start, end, -1)
            self._start = None
            return record_batch(size, seconds)

        self.tracer.replace(gateway.metrics, "record_batch", traced)


class Gateway(Workload):
    """Concurrent single queries through ``AsyncGateway`` over a snapshot.

    Phase A is an open loop (Poisson arrivals, latency from each request's
    due time); phase B is a closed loop of back-to-back clients, whose
    completion rate is the throughput.
    """

    def __init__(self, spec, seed, workdir) -> None:
        super().__init__(spec, seed, workdir)
        self.pool = weight_rows(np.random.default_rng([DATA_SEED, 2]), spec["pool"], spec["d"])
        self.flush_log: FlushLog | None = None

    def setup(self) -> dict:
        spec = self.spec
        index = DLPlusIndex(self.relation, max_layers=spec["layers"]).build()
        facts = build_facts([index])
        t0 = time.perf_counter()
        path = save_snapshot(index, self.workdir / "snapshot")
        facts["snapshot.save_ms"] = (time.perf_counter() - t0) * 1e3
        del index
        t0 = time.perf_counter()
        served = open_snapshot(path)
        facts["snapshot.open_ms"] = (time.perf_counter() - t0) * 1e3
        engine = QueryEngine(served)
        # Every lazy path the phase takes: the native walk at each k, and
        # the batch kernel at each k and at the flush widths it will see.
        for k in KS:
            engine.query(weight_rows(self.warm, 1, spec["d"])[0], k)
            for width in (8, 16, 32):
                engine.query_batch(weight_rows(self.warm, width, spec["d"]), k)
        picks, ks = zipf_draws(self.warm, spec["pool"], 4 * spec["pool"])
        for p, k in zip(picks, ks):
            engine.query(self.pool[p], k)
        self.engine = engine
        return facts

    def trace(self, tracer: Tracer, rows: BatchRows) -> None:
        self.flush_log = FlushLog(tracer)
        trace_engine(tracer, self.engine, rows, after_batch=self.flush_log.on_batch)

    def phase(self, rng, seconds, checker, tracer) -> Phase:
        return asyncio.run(self._phase(rng, seconds, checker, tracer))

    async def _phase(self, rng, seconds, checker, tracer) -> Phase:
        spec = self.spec
        n_open = count(spec["arrival_qps"], seconds / 2)
        n_closed = count(spec["closed_rate"], seconds / 2)
        open_picks, open_ks = zipf_draws(rng, spec["pool"], n_open)
        due = np.cumsum(rng.exponential(1.0 / spec["arrival_qps"], size=n_open))
        closed_picks, closed_ks = zipf_draws(rng, spec["pool"], n_closed)
        picks = np.concatenate([open_picks, closed_picks])
        ks = np.concatenate([open_ks, closed_ks])
        tally = Tally()
        rejected = 0
        answers: list = [None] * (n_open + n_closed)
        latency = np.full(n_open, np.nan)
        lag = np.zeros(n_open)
        sent_ns = np.zeros(n_open, dtype=np.int64)
        resumed_ns = np.zeros(n_open, dtype=np.int64)
        completions: list[float] = []
        clock = time.perf_counter

        # The engine runs inline on the event loop, the gateway's default.
        # Offloading it to a one-thread executor made capacity depend on
        # how fast the host woke the other thread: in interleaved trials it
        # gave 17k q/s spread 0.12 against 22.6k q/s spread 0.06 inline.
        async with AsyncGateway(
            self.engine, max_batch=32, flush_window_ms=2.0, slo_target_ms=SLO_S * 1e3
        ) as gateway:
            if self.flush_log is not None:
                self.flush_log.phase = "A"
                self.flush_log.attach(gateway)

            async def ask(i: int) -> None:
                nonlocal rejected
                try:
                    answers[i] = await gateway.query(self.pool[picks[i]], int(ks[i]))
                except GatewayOverloadError:
                    rejected += 1
                except Exception as exc:  # load-generator boundary
                    tally.fail(exc)

            async def open_request(i: int, t_due: float) -> None:
                sent_ns[i] = time.perf_counter_ns()
                await ask(i)
                if answers[i] is not None:
                    latency[i] = clock() - t_due
                    resumed_ns[i] = time.perf_counter_ns()
                    if tracer is not None:
                        tracer.record("gateway.request", int(sent_ns[i]), int(resumed_ns[i]), i)

            # Phase A, open loop: each request is timed from when it was
            # due, so generator lag and stalls count against its latency.
            tasks = []
            origin = clock() + 0.005
            for i in range(n_open):
                t_due = origin + due[i]
                delay = t_due - clock()
                if delay > 0:
                    await asyncio.sleep(delay)
                lag[i] = clock() - t_due
                tasks.append(asyncio.ensure_future(open_request(i, t_due)))
            await asyncio.gather(*tasks)

            # Phase B, closed loop: clients send back to back.
            if self.flush_log is not None:
                self.flush_log.phase = "B"
            queue = iter(range(n_open, n_open + n_closed))

            async def client() -> None:
                for i in queue:
                    await ask(i)
                    completions.append(clock())

            start = clock()
            await asyncio.gather(*(client() for _ in range(spec["clients"])))

        tally.attempted = n_open + n_closed
        tally.failed += rejected
        expected = {}
        correct = np.zeros(n_open + n_closed, dtype=bool)
        for i, result in enumerate(answers):
            if result is None:
                continue
            key = (int(picks[i]), int(ks[i]))
            if key not in expected:
                expected[key] = self.expected(self.pool[key[0]], key[1])
            correct[i] = checker.check(result, expected[key])
            tally.failed += not correct[i]
            tally.answer(result)
        within = correct[:n_open] & (latency <= SLO_S)
        return Phase(
            tally,
            latency,
            [start, *completions],
            slo_attainment=float(within.sum()) / n_open,
            lag_ms=lag * 1e3,
            rejected=rejected,
            answers=answers[:n_open],
            sent_ns=sent_ns,
            resumed_ns=resumed_ns,
        )

    def extra_metrics(self, phase: Phase) -> dict:
        log = self.flush_log
        queue_wait, resume = [], []
        for i, result in enumerate(phase.extra["answers"]):
            flush = None if result is None else log.owner.get(id(result))
            if flush is None or flush >= len(log.flushes):
                continue
            start, end, _size, _phase = log.flushes[flush]
            queue_wait.append(start - phase.extra["sent_ns"][i])
            resume.append(phase.extra["resumed_ns"][i] - end)
        closed = [f for f in log.flushes if f[3] == "B"]
        return {
            "gateway.queue_wait_ms.p50": pct(queue_wait, 50) / 1e6,
            "gateway.resume_ms.p50": pct(resume, 50) / 1e6,
            "gateway.lanes_per_flush.mean": mean([f[2] for f in closed]),
            "gateway.flush_ms.p50": pct([f[1] - f[0] for f in closed], 50) / 1e6,
            "gateway.rejected": float(phase.extra["rejected"]),
            "gateway.slo_attainment": phase.extra["slo_attainment"],
            "loadgen.lag_ms.p99": pct(phase.extra["lag_ms"], 99),
        }


class ClusterRW(Workload):
    """One client mixing cached reads with routed inserts and deletes.

    Every window of the phase holds exactly one write, at a seeded
    position, and writes alternate in a seeded order between inserts and
    deletes of a random live tuple.  Each write prunes the whole cache, so
    the window length (~1200 reads at full scale) sets the hit ratio near
    0.68: far enough above one half that the read median stays on the hit
    path instead of flipping between it and the merge path.
    """

    check_every = 20

    def __init__(self, spec, seed, workdir) -> None:
        super().__init__(spec, seed, workdir)
        self.pool = weight_rows(np.random.default_rng([DATA_SEED, 2]), spec["pool"], spec["d"])

    def setup(self) -> dict:
        spec = self.spec
        cluster = ClusterEngine(
            self.relation, shards=spec["shards"], partitioner="round-robin",
            merge="threshold", cache_size=1024,
            index_kwargs={"max_layers": spec["layers"]},
        )
        picks, ks = zipf_draws(self.warm, spec["pool"], 512)
        for p, k in zip(picks, ks):
            cluster.query(self.pool[p], k)
        self.engine = cluster
        # The benchmark's mirror of the tuples, indexed by global id.
        self.rows = self.matrix.copy()
        self.alive = np.ones(self.rows.shape[0], dtype=bool)
        self.live = list(range(self.rows.shape[0]))
        return build_facts([shard.engine.index for shard in cluster.shards])

    def trace(self, tracer: Tracer, rows: BatchRows) -> None:
        trace_cluster(tracer, self.engine)

    def counters(self) -> dict:
        cache = self.engine.cache
        return {"hits": cache.hits, "misses": cache.misses}

    def write(self, rng, kind: str) -> float:
        """Apply one write to the cluster and the mirror; its seconds."""
        if kind == "insert":
            values = np.clip(rng.random(self.spec["d"]), 1e-9, 1 - 1e-9)
            t0 = time.perf_counter()
            gid = self.engine.insert(values)
            elapsed = time.perf_counter() - t0
            if gid != self.rows.shape[0]:
                raise RuntimeError(f"insert got id {gid}, expected {self.rows.shape[0]}")
            self.rows = np.vstack([self.rows, values[None, :]])
            self.alive = np.append(self.alive, True)
            self.live.append(gid)
            return elapsed
        slot = int(rng.integers(len(self.live)))
        gid = self.live[slot]
        self.live[slot] = self.live[-1]
        self.live.pop()
        t0 = time.perf_counter()
        self.engine.delete(gid)
        elapsed = time.perf_counter() - t0
        self.alive[gid] = False
        return elapsed

    def phase(self, rng, seconds, checker, tracer) -> Phase:
        spec, cluster = self.spec, self.engine
        block = max(20, round(spec["rate"] * seconds / WINDOWS))
        n_ops = block * WINDOWS
        positions = np.arange(WINDOWS) * block + rng.integers(block, size=WINDOWS)
        kinds = rng.permutation(["insert", "delete"] * (WINDOWS // 2))
        writes = dict(zip(positions.tolist(), kinds.tolist()))
        picks, ks = zipf_draws(rng, spec["pool"], n_ops)
        tally = Tally()
        read_latency = np.full(n_ops, np.nan)
        write_latency = []
        ends = np.empty(n_ops + 1)
        reads = 0
        check_s = 0.0
        clock = time.perf_counter
        ends[0] = clock()
        for i in range(n_ops):
            if tracer is not None:
                tracer.request.set(i)
            try:
                if i in writes:
                    write_latency.append(self.write(rng, writes[i]))
                else:
                    w, k = self.pool[picks[i]], int(ks[i])
                    t0 = clock()
                    result = cluster.query(w, k)
                    read_latency[i] = clock() - t0
                    tally.answer(result)
                    reads += 1
                    if reads % self.check_every == 1:
                        # Checked inline against the live mirror; the check's
                        # time is taken off the phase clock.
                        t0 = clock()
                        live = np.flatnonzero(self.alive)
                        expected = oracle.top_k(self.rows[live], live, w, k)
                        tally.failed += not checker.check(result, expected)
                        check_s += clock() - t0
            except Exception as exc:  # load-generator boundary: count, go on
                tally.fail(exc)
            ends[i + 1] = clock() - check_s
        tally.attempted = n_ops
        return Phase(tally, read_latency, ends, write_ms=np.asarray(write_latency) * 1e3)

    def extra_metrics(self, phase: Phase) -> dict:
        return {
            "cluster.write_p50_ms": pct(phase.extra["write_ms"], 50),
            "cluster.write_p90_ms": pct(phase.extra["write_ms"], 90),
        }


WORKLOADS = {
    "solo": Solo,
    "offline-batch": OfflineBatch,
    "gateway": Gateway,
    "cluster-rw": ClusterRW,
}


# ---------------------------------------------------------------------- #
# Run
# ---------------------------------------------------------------------- #


def host_facts() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", ""),
        "native": build_info()["status"],
    }


def layer_metrics(workload, plain, traced, tracer, rows, facts, before, after) -> dict:
    """Every per-layer metric; a layer the workload never enters reads 0."""
    tally = traced.tally
    delta = {key: after[key] - before[key] for key in after}
    lookups = delta["hits"] + delta["misses"]
    computed = sum(tally.real) + sum(tally.pseudo)
    metrics = {
        "gateway.queue_wait_ms.p50": 0.0,
        "gateway.resume_ms.p50": 0.0,
        "gateway.lanes_per_flush.mean": 0.0,
        "gateway.flush_ms.p50": 0.0,
        "gateway.rejected": 0.0,
        "gateway.slo_attainment": 0.0,
        "loadgen.lag_ms.p99": 0.0,
        "cluster.write_p50_ms": 0.0,
        "cluster.write_p90_ms": 0.0,
        "snapshot.save_ms": 0.0,
        "snapshot.open_ms": 0.0,
        **facts,
        **span_metrics(tracer.table(), rows),
        "cache.hit_ratio": delta["hits"] / lookups if lookups else 0.0,
        "dispatch.rows.native": delta.get("kernel_native", 0.0),
        "dispatch.rows.batch": delta.get("kernel_batch", 0.0),
        "dispatch.rows.csr": delta.get("kernel_csr", 0.0),
        "dispatch.rows.reference": delta.get("kernel_reference", 0.0),
        "native.workspace_fallbacks": delta.get("native_workspace_fallbacks", 0.0),
        "query.tuples_real.mean": mean(tally.real),
        "query.tuples_pseudo.mean": mean(tally.pseudo),
        "query.useful_ratio": sum(tally.returned) / computed if computed else 0.0,
        **workload.extra_metrics(traced),
    }
    untraced = np.median(plain.windows()["p50"])
    metrics["trace.overhead"] = float(np.median(traced.windows()["p50"]) / untraced - 1.0)
    return metrics


def run(args) -> dict:
    spec = SPECS[args.scale][args.workload]
    workdir = ROOT / ".bench_build" / "e2e" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    checker = oracle.Checker(corrupt=args.corrupt_answer)
    try:
        workload = WORKLOADS[args.workload](spec, args.seed, workdir)
        t0 = time.perf_counter()
        facts = workload.setup()
        setup_s = time.perf_counter() - t0

        plain = workload.phase(
            np.random.default_rng([args.seed, args.part, 0]), args.seconds, checker, None
        )
        tallies = [plain.tally]
        layer = {}
        if args.trace:
            tracer = Tracer()
            rows = BatchRows()
            workload.trace(tracer, rows)
            before = workload.counters()
            traced = workload.phase(
                np.random.default_rng([args.seed, args.part, 1]), args.seconds, checker, tracer
            )
            after = workload.counters()
            tracer.restore()
            tallies.append(traced.tally)
            layer = layer_metrics(workload, plain, traced, tracer, rows, facts, before, after)
            if args.spans:
                tracer.table().write_jsonl(args.spans, SPAN_FILE_LIMIT)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "part": args.part,
        "setup_s": setup_s,
        "rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "windows": plain.windows(),
        "tuples": [
            float(np.sum(plain.tally.real) + np.sum(plain.tally.pseudo)),
            len(plain.tally.real),
        ],
        "layer": layer,
        "attempted": sum(t.attempted for t in tallies),
        "failed": sum(t.failed for t in tallies),
        "checked": checker.checked,
        "mismatches": checker.mismatches,
        "error": next((t.error for t in tallies if t.error), ""),
        "host": host_facts(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--part", type=int, default=0, help="which of the run's processes")
    parser.add_argument("--seconds", type=float, default=10 / 3)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--scale", choices=sorted(SPECS), default="full")
    parser.add_argument("--spans", help="write the traced spans to this JSONL file")
    parser.add_argument(
        "--corrupt-answer", action="store_true",
        help="self-test: alter one answer so the oracle must flag it",
    )
    print(json.dumps(run(parser.parse_args(argv))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
