"""Benchmark workloads: datasets and random query weights.

The paper's workload (§VI-A): IND/ANT data, d ∈ 2..5, n up to 500K, k up to
50, and uniformly random strictly-positive weight vectors per query.  This
reproduction runs at laptop scale by default and scales through environment
variables:

* ``REPRO_BENCH_N``       — base cardinality (default 8000)
* ``REPRO_BENCH_QUERIES`` — queries averaged per cell (default 16)
* ``REPRO_BENCH_SEED``    — workload seed (default 20120401)
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from repro.data import generate
from repro.relation import Relation, random_weight_vector

#: The suite-wide workload seed (the paper's publication date).
DEFAULT_SEED = 20120401


def _env_int(name: str, default: int) -> int:
    value = os.environ.get(name)
    return int(value) if value else default


@dataclass(frozen=True)
class BenchConfig:
    """Scale knobs for the whole benchmark suite."""

    n: int = field(default_factory=lambda: _env_int("REPRO_BENCH_N", 8000))
    queries: int = field(default_factory=lambda: _env_int("REPRO_BENCH_QUERIES", 16))
    seed: int = field(
        default_factory=lambda: _env_int("REPRO_BENCH_SEED", DEFAULT_SEED)
    )

    def scaled_n(self, d: int) -> int:
        """Cardinality adjusted for dimensionality.

        High-d anti-correlated skylines explode (the curse the paper leans
        on); halving n at d=5 keeps full builds tractable while preserving
        every qualitative trend.
        """
        return self.n // 2 if d >= 5 else self.n


def query_weights(d: int, count: int, seed: int) -> list[np.ndarray]:
    """``count`` random simplex weight vectors (the paper's query model)."""
    rng = np.random.default_rng(seed)
    return [random_weight_vector(d, rng) for _ in range(count)]


@dataclass
class Workload:
    """One dataset + its query batch."""

    distribution: str
    n: int
    d: int
    relation: Relation
    weights: list[np.ndarray]

    @classmethod
    def make(
        cls,
        distribution: str,
        n: int,
        d: int,
        queries: int,
        seed: int,
    ) -> "Workload":
        relation = generate(distribution, n, d, seed=seed)
        return cls(
            distribution=distribution,
            n=n,
            d=d,
            relation=relation,
            weights=query_weights(d, queries, seed + 1),
        )
