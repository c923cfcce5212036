"""k-means from scratch (Lloyd's algorithm with k-means++ seeding).

The zero-layer construction (§V-B) clusters the first coarse layer and takes
componentwise cluster minima as pseudo-tuples.  The clustering quality only
affects *selectivity*, never correctness, so a plain, deterministic-given-seed
Lloyd's iteration is exactly what the paper needs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ReproError
from repro.geometry.scale import power_of_two_scale

#: Lloyd's iterations stop once no centroid moves by more than this squared
#: distance, measured on the points scaled to peak in [0.5, 1).
_STOP_TOL = 1e-8


@dataclass
class KMeansResult:
    """Outcome of a k-means run.

    Attributes
    ----------
    centroids:
        ``(k, d)`` final cluster centers (empty clusters removed).
    labels:
        Cluster id per input row, in ``[0, k)``.
    inertia:
        Sum of squared distances to assigned centroids.
    iterations:
        Lloyd iterations executed.
    """

    centroids: np.ndarray
    labels: np.ndarray
    inertia: float
    iterations: int

    @property
    def k(self) -> int:
        """Number of (non-empty) clusters."""
        return self.centroids.shape[0]


def kmeans(
    points: np.ndarray,
    k: int,
    *,
    seed: int | np.random.Generator | None = None,
    max_iterations: int = 100,
) -> KMeansResult:
    """Cluster ``points`` into at most ``k`` groups.

    Uses k-means++ seeding and Lloyd's iterations until centroid movement
    falls below :data:`_STOP_TOL` relative to the points' magnitude or
    ``max_iterations`` is hit, so scaling the points by a power of two
    scales the centroids and keeps the labels.  ``k`` is clamped to
    the number of distinct points; empty clusters are dropped and labels
    re-compacted, so every returned cluster is non-empty.
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    n = points.shape[0]
    if n == 0:
        raise ReproError("cannot cluster an empty point set")
    if k < 1:
        raise ReproError(f"k must be >= 1, got {k}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    k = min(k, n)

    # Squared movements scale with the square of a power-of-two rescaling.
    stop = _STOP_TOL / power_of_two_scale(points) ** 2
    centroids = _seed_plusplus(points, k, rng)
    labels = np.zeros(n, dtype=np.intp)
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        distances = _sq_distances(points, centroids)
        labels = np.argmin(distances, axis=1)
        moved = 0.0
        for c in range(centroids.shape[0]):
            members = points[labels == c]
            if members.shape[0] == 0:
                continue
            new_center = members.mean(axis=0)
            moved = max(moved, float(np.sum((new_center - centroids[c]) ** 2)))
            centroids[c] = new_center
        if moved <= stop:
            break

    # Drop empty clusters and compact labels.
    used = np.unique(labels)
    centroids = centroids[used]
    remap = {int(old): new for new, old in enumerate(used)}
    labels = np.asarray([remap[int(label)] for label in labels], dtype=np.intp)
    inertia = float(np.sum((points - centroids[labels]) ** 2))
    return KMeansResult(centroids=centroids, labels=labels, inertia=inertia, iterations=iterations)


def _seed_plusplus(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ initial centers."""
    n = points.shape[0]
    centers = [points[int(rng.integers(n))]]
    while len(centers) < k:
        dist = _sq_distances(points, np.asarray(centers)).min(axis=1)
        total = dist.sum()
        if total <= 0:
            # All remaining points coincide with a center; duplicates add
            # nothing, stop early (k is clamped to distinct points anyway).
            break
        centers.append(points[int(rng.choice(n, p=dist / total))])
    return np.asarray(centers, dtype=np.float64)


def _sq_distances(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """``(n, k)`` squared Euclidean distances."""
    return np.sum((points[:, None, :] - centers[None, :, :]) ** 2, axis=2)
