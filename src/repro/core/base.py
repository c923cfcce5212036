"""The common top-k index interface all algorithms implement.

Every index (DL, DL+, DG, DG+, HL, HL+, Onion, scan, ...) is constructed
over a :class:`~repro.relation.Relation` and answers ``query(weights, k)``
with a :class:`TopKResult`; the per-query :class:`~repro.stats.AccessCounter`
makes the paper's Definition 9 cost directly comparable across algorithms.
"""

from __future__ import annotations

import operator
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import InvalidQueryError
from repro.relation import Relation, normalize_weights
from repro.stats import AccessCounter, BuildStats
from repro.stats.counters import Stopwatch


def as_integer(value, what: str) -> int:
    """``value`` as a plain ``int``, or
    :class:`~repro.exceptions.InvalidQueryError` naming ``what``.

    Accepts anything integral (``int``, ``np.int64``, ``2.0``); rejects
    non-integral values, which a cast would silently truncate or round,
    and strings and booleans (python or numpy), which ``float`` would
    coerce — ``"5"`` or ``True`` in a request is a caller bug, not a size.
    """
    if isinstance(value, np.bool_):
        value = bool(value)  # reported exactly like a python bool
    if isinstance(value, (str, bytes, bool)):
        raise InvalidQueryError(f"{what} must be an integer, got {value!r}")
    try:
        return operator.index(value)  # int and numpy integers
    except TypeError:
        pass
    try:
        as_float = float(value)
    except (TypeError, ValueError) as exc:
        raise InvalidQueryError(
            f"{what} must be an integer, got {value!r}"
        ) from exc
    if not as_float.is_integer():
        raise InvalidQueryError(f"{what} must be an integer, got {value!r}")
    return int(as_float)


def validate_k(k) -> int:
    """Validate a retrieval size and return it as a plain ``int``.

    Accepts anything integral (``int``, ``np.int64``, ``2.0``) and raises
    :class:`~repro.exceptions.InvalidQueryError` on non-integral values —
    ``np.asarray(k, dtype=np.int64)`` used to silently truncate ``k=2.5``
    to ``k=2`` on the batched path, so a malformed request returned two
    results instead of failing.  Shared by :meth:`TopKIndex.query`,
    :class:`~repro.storage.DiskResidentIndex`, the serving engines and the
    gateway, so every entry point enforces the same contract.  Strings
    and booleans (python or numpy) are rejected (see :func:`as_integer`).
    """
    value = as_integer(k, "retrieval size k")
    if value < 1:
        raise InvalidQueryError(f"retrieval size k must be >= 1, got {k}")
    return value


@dataclass
class TopKResult:
    """Answer of one top-k query.

    ``ids``/``scores`` are ascending by score; ``counter`` holds the
    evaluation cost (Definition 9).
    """

    ids: np.ndarray
    scores: np.ndarray
    counter: AccessCounter = field(default_factory=AccessCounter)

    @property
    def cost(self) -> int:
        """Tuples evaluated (real + pseudo) to answer this query."""
        return self.counter.total

    def __len__(self) -> int:
        return self.ids.shape[0]


class TopKIndex(ABC):
    """Base class: build once over a relation, answer many ``(w, k)`` queries."""

    #: Short algorithm name used in benchmark tables ("DL", "DG+", ...).
    name: str = "?"

    def __init__(self, relation: Relation) -> None:
        self.relation = relation
        self.build_stats = BuildStats(algorithm=self.name, n=relation.n, d=relation.d)
        self._built = False
        #: Monotone structure version: bumped by every (re)build, so result
        #: caches keyed on it (see :mod:`repro.serving`) never serve answers
        #: computed against a previous incarnation of the index.
        self.version = 0

    def build(self) -> "TopKIndex":
        """Construct the index; returns self for chaining."""
        with Stopwatch() as timer:
            self._build()
        self.build_stats.seconds = timer.seconds
        self._built = True
        self.version = getattr(self, "version", 0) + 1
        return self

    def serve(self, **engine_kwargs) -> "repro.serving.QueryEngine":  # noqa: F821
        """A caching/batching :class:`~repro.serving.QueryEngine` over this index."""
        from repro.serving import QueryEngine

        return QueryEngine(self, **engine_kwargs)

    def query(
        self,
        weights: np.ndarray,
        k: int,
        counter: AccessCounter | None = None,
    ) -> TopKResult:
        """Answer a top-k query; validates inputs and normalizes weights."""
        if not self._built:
            self.build()
        k = validate_k(k)
        w = normalize_weights(weights, self.relation.d)
        counter = counter if counter is not None else AccessCounter()
        ids, scores = self._query(w, min(k, self.relation.n), counter)
        return TopKResult(ids=ids, scores=scores, counter=counter)

    @abstractmethod
    def _build(self) -> None:
        """Algorithm-specific construction (fills build_stats fields)."""

    @abstractmethod
    def _query(
        self, weights: np.ndarray, k: int, counter: AccessCounter
    ) -> tuple[np.ndarray, np.ndarray]:
        """Algorithm-specific query; ``weights`` normalized, ``1 <= k <= n``."""
