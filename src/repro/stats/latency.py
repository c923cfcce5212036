"""Latency accounting for the serving layer.

The paper's cost model (Definition 9) counts tuple evaluations, which is
the right yardstick for comparing index *algorithms* — but a serving system
also answers to wall-clock SLOs.  :class:`LatencyWindow` keeps a bounded
sliding window of per-query latencies and summarizes it with the usual
operational percentiles (p50/p95/p99), so the serving metrics registry can
report both cost and time on the same query stream.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable
from itertools import repeat


def percentile(values: Iterable[float], q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation.

    Implemented locally (rather than ``np.percentile``) so the serving hot
    path never pays an array conversion for a handful of floats; matches
    numpy's default ``linear`` interpolation method.
    """
    data = sorted(values)
    if not data:
        return 0.0
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    if len(data) == 1:
        return float(data[0])
    rank = (q / 100.0) * (len(data) - 1)
    lower = int(rank)
    upper = min(lower + 1, len(data) - 1)
    fraction = rank - lower
    return float(data[lower] + (data[upper] - data[lower]) * fraction)


class LatencyWindow:
    """A bounded sliding window of latency samples (seconds).

    Not thread-safe on its own; the serving metrics registry guards it with
    its lock.
    """

    __slots__ = ("_samples", "count", "total")

    def __init__(self, window: int = 4096) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self._samples: deque[float] = deque(maxlen=window)
        #: Lifetime sample count (window-independent).
        self.count = 0
        #: Lifetime sum of all samples in seconds (window-independent).
        self.total = 0.0

    def record(self, seconds: float) -> None:
        """Add one latency sample."""
        self._samples.append(float(seconds))
        self.count += 1
        self.total += float(seconds)

    def record_many(self, seconds: float, count: int) -> None:
        """Add ``count`` equal samples (one amortized share per row)."""
        seconds = float(seconds)
        self._samples.extend(repeat(seconds, count))
        self.count += count
        self.total += seconds * count

    @property
    def mean(self) -> float:
        """Lifetime mean latency in seconds (0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def summary(self, *, scale: float = 1e3) -> dict[str, float]:
        """Windowed percentile summary; ``scale=1e3`` reports milliseconds."""
        samples = [s * scale for s in self._samples]
        return {
            "mean": self.mean * scale,
            "p50": percentile(samples, 50.0),
            "p95": percentile(samples, 95.0),
            "p99": percentile(samples, 99.0),
            "max": max(samples) if samples else 0.0,
        }
