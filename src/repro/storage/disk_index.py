"""Disk-resident query execution: a layer index over a heap file.

Combines a built gated-graph index (DL/DL+/DG/DG+) with a
:class:`~repro.storage.heapfile.HeapFile`: the *structure* (gates, layer
assignment, pseudo-tuples) stays in memory — it is the index — while every
*real tuple* the traversal scores is fetched through the heap file's buffer
pool, producing genuine file reads.  This is exactly the paper's §VI-A
disk-based modification, executable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.base import validate_k
from repro.core.index import DLIndex
from repro.core.query import process_top_k
from repro.exceptions import ReproError
from repro.relation import normalize_weights
from repro.stats import AccessCounter
from repro.storage.heapfile import HeapFile


@dataclass
class DiskQueryResult:
    """Answer plus the I/O activity behind it."""

    ids: np.ndarray
    scores: np.ndarray
    tuples_evaluated: int
    file_reads: int
    buffer_hits: int


class DiskResidentIndex:
    """Query executor pairing an in-memory layer structure with a heap file.

    Parameters
    ----------
    index:
        A built gated-graph index (``DLIndex`` family) over the relation.
    heap:
        A :class:`HeapFile` written for the *same* relation (any storage
        order; layer-clustered orders minimize faults).
    """

    def __init__(self, index: DLIndex, heap: HeapFile) -> None:
        structure = getattr(index, "structure", None)
        if structure is None:
            raise ReproError(
                f"{index.name} is not a gated layer index; disk execution "
                "needs DL/DL+/DG/DG+"
            )
        if heap.d != index.relation.d:
            raise ReproError("heap file dimensionality does not match the index")
        self.index = index
        self.heap = heap

    def query(self, weights: np.ndarray, k: int) -> DiskQueryResult:
        """Answer a top-k query with all real tuple reads going to disk."""
        k = validate_k(k)
        w = normalize_weights(weights, self.index.relation.d)
        self.heap.reset_io_counters()
        counter = AccessCounter()
        ids, scores = process_top_k(
            self.index.structure,
            w,
            min(k, self.index.relation.n),
            counter,
            fetch_real=self.heap.read_tuple,
        )
        return DiskQueryResult(
            ids=ids,
            scores=scores,
            tuples_evaluated=counter.total,
            file_reads=self.heap.file_reads,
            buffer_hits=self.heap.buffer.hits,
        )
