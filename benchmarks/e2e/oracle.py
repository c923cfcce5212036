"""The benchmark's own bitwise top-k oracle.

It uses numpy alone and shares no code with the package under test, so an
edit to the serving stack cannot also move the reference it is checked
against.  Scores use the same ``einsum`` contraction the kernels document
as their scoring arithmetic, so a correct answer matches bit for bit.
Lower scores rank first; equal scores rank by ascending id.
"""

from __future__ import annotations

import numpy as np


def top_k(
    matrix: np.ndarray, ids: np.ndarray, weights: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """``(ids, scores)`` of the ``k`` best rows of ``matrix``.

    ``ids[i]`` names row ``i``.  Only rows scoring at most the k-th
    smallest score can be answers, so the full ``lexsort`` runs on those.
    """
    w = np.asarray(weights, dtype=np.float64)
    w = w / w.sum()
    scores = np.einsum("ij,j->i", matrix, w)
    k = min(int(k), scores.shape[0])
    if k < scores.shape[0]:
        kth = np.partition(scores, k - 1)[k - 1]
        rows = np.flatnonzero(scores <= kth)
    else:
        rows = np.arange(scores.shape[0])
    order = np.lexsort((ids[rows], scores[rows]))[:k]
    rows = rows[order]
    return ids[rows].astype(np.int64), scores[rows]


class Checker:
    """Counts answers compared against the oracle and the ones that differ.

    ``corrupt=True`` alters the first answer it sees, which lets the
    benchmark's self-test prove a wrong answer is caught.
    """

    def __init__(self, *, corrupt: bool = False) -> None:
        self.checked = 0
        self.mismatches = 0
        self._corrupt = corrupt

    def check(self, result, expected: tuple[np.ndarray, np.ndarray]) -> bool:
        """True when ``result`` equals ``expected`` bit for bit."""
        ids = np.asarray(result.ids, dtype=np.int64)
        if self._corrupt:
            ids = ids + 1
            self._corrupt = False
        scores = np.asarray(result.scores, dtype=np.float64)
        self.checked += 1
        same = (
            ids.tobytes() == expected[0].tobytes()
            and scores.tobytes() == expected[1].tobytes()
        )
        self.mismatches += not same
        return same
