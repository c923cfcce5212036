"""LRU result cache for top-k answers.

Real top-k workloads show heavy weight-vector locality (the same preference
vectors recur across users and sessions — the observation behind
PREFER-style materialized views), so a serving layer can answer a repeated
query without touching the index at all.

Keying
------
An entry is keyed by ``(quantized weights, k, structure version)``:

* *quantized weights* — the normalized weight vector rounded to
  ``decimals`` places (default 12) as a tuple of python floats (float
  equality makes ``-0.0`` and ``+0.0`` one key).
  Vectors that agree to that precision share an entry; at 1e-12 the
  top-k answer is insensitive to the difference except at exact score
  ties.
* *k* — the effective retrieval size (after clamping to the relation size).
* *structure version* — the fronted index's monotone ``version`` counter,
  bumped by every rebuild and by every
  :class:`~repro.core.maintenance.DynamicDualLayerIndex` insert/delete.
  A mutation therefore changes the key of *every* subsequent lookup, so a
  cached answer can never be served stale; :meth:`prune` additionally drops
  the unreachable old-version entries eagerly.

A write the owner proves changes no answer — a cluster write absorbed
beyond the materialised layers (see :mod:`repro.cluster.coordinator`) —
still bumps the version, and :meth:`rekey` then carries the current
entries to the new version instead of dropping them.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

#: Key type: (rounded weights, effective k, structure version).
CacheKey = tuple[tuple[float, ...], int, int]


class ResultCache:
    """Thread-safe LRU cache of ``(ids, scores)`` top-k answers.

    ``capacity=0`` disables caching — lookups return ``None`` without
    counting a miss and stores are dropped, so a disabled cache's stats
    stay all-zero (the serving engine uses ``capacity=0`` to benchmark
    uncached paths without polluting hit-rate dashboards).
    """

    def __init__(self, capacity: int = 1024, *, decimals: int = 12) -> None:
        if capacity < 0:
            raise ValueError(f"cache capacity must be >= 0, got {capacity}")
        if decimals < 1:
            raise ValueError(f"quantization decimals must be >= 1, got {decimals}")
        self.capacity = capacity
        self.decimals = decimals
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._entries: OrderedDict[CacheKey, tuple[np.ndarray, np.ndarray]] = (
            OrderedDict()
        )
        self._lock = threading.Lock()

    def make_key(self, weights: np.ndarray, k: int, version: int) -> CacheKey:
        """The cache key of one normalized float64 weight vector.

        The key :meth:`make_keys` gives that vector as a one-row matrix
        (rounding is elementwise, so one row rounds alike on its own),
        without the matrix pass: the serving loop's admission lookup
        builds one key per request.
        """
        return (tuple(weights.round(self.decimals).tolist()), int(k), int(version))

    def make_keys(
        self, weights_matrix: np.ndarray, ks, version: int
    ) -> list[CacheKey]:
        """The cache keys of every row of a ``(B, d)`` matrix at once.

        The one definition of the key format: the matrix is rounded to
        ``decimals`` places in one pass and read back with one
        ``tolist``; row ``i``'s values, as a tuple of python floats, are
        paired with ``int(ks[i])`` and the version.  :meth:`make_key` is
        the one-row form.
        """
        rounded = np.asarray(weights_matrix, dtype=np.float64).round(self.decimals)
        version = int(version)
        return [(tuple(row), int(k), version) for row, k in zip(rounded.tolist(), ks)]

    def get(self, key: CacheKey) -> tuple[np.ndarray, np.ndarray] | None:
        """``(ids, scores)`` copies on a hit (refreshing LRU order), else None.

        With caching disabled (``capacity=0``) the lookup short-circuits
        without touching the miss counter: a disabled cache reports
        ``hits == misses == 0``, so a 0% hit rate on a dashboard always
        means a *thrashing* cache, never a deliberately absent one.
        """
        if self.capacity == 0:
            return None
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            ids, scores = entry
            return ids.copy(), scores.copy()

    def probe(self, key: CacheKey) -> tuple[np.ndarray, np.ndarray] | None:
        """:meth:`get` without counting a miss.

        For a lookup whose miss is served, and counted, by a later
        :meth:`get` of the same key: the serving loop's admission lookup
        (:meth:`~repro.serving.engine.ServingLoop.cached_answer`).  A hit
        is counted as in :meth:`get`.  The two stay separate so the
        loop's lookup pays no extra call per row.
        """
        if self.capacity == 0:
            return None
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            ids, scores = entry
            return ids.copy(), scores.copy()

    def put(self, key: CacheKey, ids: np.ndarray, scores: np.ndarray) -> None:
        """Store an answer (``astype`` copies are taken; LRU entries
        evicted as needed)."""
        if self.capacity == 0:
            return
        with self._lock:
            self._entries[key] = (ids.astype(np.intp), scores.astype(np.float64))
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def prune(self, current_version: int) -> int:
        """Drop entries from versions other than ``current_version``.

        Version keying already makes them unreachable; pruning frees their
        memory the moment the engine observes a version change.  Returns the
        number of entries dropped.
        """
        with self._lock:
            stale = [
                key for key in self._entries if key[2] != int(current_version)
            ]
            for key in stale:
                del self._entries[key]
            return len(stale)

    def rekey(self, old_version: int, new_version: int) -> int:
        """Carry every ``old_version`` entry to ``new_version``.

        For a version bump that provably changed no answer.  One locked
        pass keeps LRU order and drops entries of any other version (they
        were unreachable already).  Returns the number of entries carried.
        """
        old, new = int(old_version), int(new_version)
        with self._lock:
            self._entries = OrderedDict(
                ((key[0], key[1], new), entry)
                for key, entry in self._entries.items()
                if key[2] == old
            )
            return len(self._entries)

    def clear(self) -> None:
        """Drop every entry (counters are preserved)."""
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict[str, int]:
        """Counter snapshot for the metrics registry."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }
