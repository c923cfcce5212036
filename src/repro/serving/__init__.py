"""Query serving: batching, result caching, concurrency, and metrics.

The ROADMAP's north star is a production-scale serving system; this package
is its substrate.  A :class:`QueryEngine` fronts one built index and serves
query traffic with an LRU result cache (keyed so mutations can never serve
stale answers), batched execution that amortizes per-query numpy overhead,
a thread-pool path over the frozen read-only layer structure, and a metrics
registry (latency percentiles, Definition 9 cost, hit rate, queue depth,
SLO violations).  :class:`AsyncGateway` sits in front of either engine and
coalesces concurrent single-query traffic into batch-kernel lanes (flush
at B or the window deadline, whichever first) with per-tenant fair-share
scheduling and admission control — see :mod:`repro.serving.gateway`.

Quickstart::

    from repro import DLPlusIndex, generate, random_weight_vector
    from repro.serving import QueryEngine

    relation = generate("ANT", n=20_000, d=4, seed=7)
    engine = QueryEngine(DLPlusIndex(relation).build())
    batch = [random_weight_vector(4) for _ in range(64)]
    results = engine.query_batch(batch, k=10)
    print(engine.stats()["hit_rate"], engine.stats()["latency_ms_p95"])
"""

from repro.serving.cache import ResultCache
from repro.serving.engine import QueryEngine, validate_k
from repro.serving.gateway import AsyncGateway
from repro.serving.metrics import MetricsRegistry, QueryRecord

__all__ = [
    "AsyncGateway",
    "MetricsRegistry",
    "QueryEngine",
    "QueryRecord",
    "ResultCache",
    "validate_k",
]
