"""Access counters implementing the paper's cost model (Definition 9).

The cost of a top-k query is the number of tuples that are accessed and
computed by the scoring function.  :class:`AccessCounter` tracks that number,
split into *real* tuple evaluations and *pseudo* tuple evaluations (the
virtual zero-layer tuples of DG+/DL+ are scored during traversal but never
returned, so the paper's optimized variants pay for them too and we account
for them explicitly).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field


class AccessCounter:
    """Counts tuple evaluations during one top-k query.

    Attributes
    ----------
    real:
        Number of *relation* tuples scored by the query (Definition 9 cost
        for indexes without pseudo-tuples).
    pseudo:
        Number of virtual zero-layer tuples scored.  Zero for indexes that
        do not build a zero layer.
    sorted_accesses:
        Number of sorted-list position advances (only meaningful for the
        list-based machinery used by HL/HL+/TA; informational).
    """

    __slots__ = ("real", "pseudo", "sorted_accesses")

    def __init__(self, real: int = 0, pseudo: int = 0) -> None:
        self.real = real
        self.pseudo = pseudo
        self.sorted_accesses = 0

    def count_real(self, amount: int = 1) -> None:
        """Record ``amount`` evaluations of real relation tuples."""
        self.real += amount

    def count_pseudo(self, amount: int = 1) -> None:
        """Record ``amount`` evaluations of virtual (zero-layer) tuples."""
        self.pseudo += amount

    def count_sorted_access(self, amount: int = 1) -> None:
        """Record ``amount`` sorted-list accesses (list-based machinery)."""
        self.sorted_accesses += amount

    @property
    def total(self) -> int:
        """Total evaluations — the paper's cost (real plus pseudo tuples)."""
        return self.real + self.pseudo

    def merge(self, other: "AccessCounter") -> None:
        """Fold another counter's tallies into this one."""
        self.real += other.real
        self.pseudo += other.pseudo
        self.sorted_accesses += other.sorted_accesses

    def reset(self) -> None:
        """Zero all tallies."""
        self.real = 0
        self.pseudo = 0
        self.sorted_accesses = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AccessCounter(real={self.real}, pseudo={self.pseudo}, "
            f"sorted_accesses={self.sorted_accesses})"
        )


@dataclass
class BuildStats:
    """Statistics recorded while constructing an index.

    ``extra`` holds per-index details (e.g. number of fine sublayers, number
    of ∃-edges) without forcing a common schema on all index types.
    """

    algorithm: str = ""
    n: int = 0
    d: int = 0
    seconds: float = 0.0
    num_layers: int = 0
    layer_sizes: list[int] = field(default_factory=list)
    #: Per-pipeline-stage build seconds (see repro.core.build.BUILD_STAGES);
    #: empty for index types that don't run the staged pipeline.
    stage_seconds: dict[str, float] = field(default_factory=dict)
    extra: dict[str, float] = field(default_factory=dict)

    def describe(self) -> str:
        """Human-readable one-line summary."""
        return (
            f"{self.algorithm}: n={self.n} d={self.d} layers={self.num_layers} "
            f"built in {self.seconds:.3f}s"
        )


@dataclass
class QueryStats:
    """Result bundle for one instrumented top-k query."""

    algorithm: str
    k: int
    counter: AccessCounter
    seconds: float = 0.0

    @property
    def cost(self) -> int:
        """Paper cost: tuples evaluated (real + pseudo)."""
        return self.counter.total


class Stopwatch:
    """Tiny context-manager stopwatch used by build/query instrumentation."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self._start = 0.0

    def __enter__(self) -> "Stopwatch":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        self.seconds = time.perf_counter() - self._start
