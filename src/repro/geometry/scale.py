"""Power-of-two rescaling: how the build's thresholds follow the data.

The build's geometric decisions have no scale in them (weak dominance,
convex combinations, ray exits), but their float thresholds do.  Scaling
by a power of two changes only the exponent of every value, so it is exact
and changes no comparison between data values; it only moves the data to
a fixed magnitude, where a fixed threshold acts relative to the data.
"""

from __future__ import annotations

import numpy as np

#: Exponent clamp: keeps ``2**-e`` a finite normal float, so data beyond
#: about 2**±1000 is brought only part of the way.
_MAX_EXPONENT = 1000


def power_of_two_scale(*arrays: np.ndarray) -> float:
    """``2**-e`` that brings the largest magnitude of ``arrays`` into [0.5, 1).

    ``e`` is :func:`numpy.frexp`'s exponent of that magnitude, so data that
    already peaks in [0.5, 1) gets exactly 1, and so does empty or all-zero
    input (``frexp(0)`` has exponent 0).
    """
    largest = max((float(np.max(np.abs(a))) for a in arrays if a.size), default=0.0)
    exponent = int(np.frexp(largest)[1])
    return float(np.ldexp(1.0, -max(-_MAX_EXPONENT, min(exponent, _MAX_EXPONENT))))
