"""Kernel dispatch for Algorithm 2 traversals.

Every kernel walks the same Algorithm 2 and returns bitwise-identical
answers and Definition-9 counts, so dispatch only picks the fastest
one, and :func:`select_kernel` is the only place that picks: the serving
engines take no kernel option.  The last full-scale kernel measurement
sets the order (``git show 5b80d0f:BENCH_query.json``):

* the **native** compiled kernel (``repro/core/native/`` — the C classic
  walk loaded via cffi ABI mode) wins every cell it supports at every
  batch width: one native walk per query beats the python lane-parallel
  batch kernel's best per-query cost at any measured width up to B=128
  (native 5.4-9.7x over csr, batch at most 5.0x).  Dispatch therefore
  picks it whenever :func:`native_kernel_usable` holds, and
  :meth:`~repro.serving.QueryEngine.query_batch` sends each group to it
  in one call (:func:`~repro.core.native.native_walk_lanes`);
* without a compiler, the lane-parallel **batch** kernel serves groups
  of at least :data:`AUTO_BATCH_MIN_LANES` same-k queries — it walks the
  gate graph once per *round* for all lanes and scores every lane's
  opened children in one contraction;
* single compiler-less queries run the **csr** kernel, except on small
  low-dimensional structures where the per-node **reference** kernel
  wins: pops open only a handful of children there, and the fixed cost
  of whole-slice numpy ops exceeds the python loop it replaces.

The native kernel is reached through :func:`get_jit_kernel`, which
builds the bundled C walker's ``.so`` with the host compiler on first
use and returns :func:`~repro.core.native.native_walk_lanes`.  When no
compiler is present or the build fails, dispatch logs one warning and
falls back to the python kernels permanently; serving never raises for
it.  To compare kernels, call the kernel functions directly, or set
``REPRO_NATIVE_CC=none`` to serve through the python ladder.
"""

from __future__ import annotations

from typing import Callable

from repro.core import native as _native
from repro.core.structure import LayerStructure
from repro.exceptions import KernelUnavailableError

#: Node-count threshold below which (at low d) the per-node reference
#: kernel beats the vectorized CSR kernel. Calibrated from the last
#: wall-clock report (``git show 5b80d0f:BENCH_query.json``): csr runs
#: at 0.87x/0.71x of reference (IND/ANT) at n=10k d=2 and at
#: 1.36x/0.98x at n=100k d=2; 32768 sits between the measured cells.
#: Only consulted when the native kernel is unavailable.
AUTO_SMALL_STRUCTURE_NODES = 32768

#: Dimension threshold for the small-structure exception. At d>=3 the
#: batched einsum scoring already pays off even on 10k-node structures
#: (csr 1.9–2.4x at d=4 n=10k), so only d<=2 dispatches to reference.
AUTO_SMALL_STRUCTURE_DIM = 2

#: Minimum number of same-k query lanes before the lane-parallel batch
#: kernel is dispatched on a host without the native kernel. Calibrated
#: from the batch sweep of the last wall-clock report (``git show
#: 5b80d0f:BENCH_query.json``): at B=8 the batch kernel already beats
#: per-query csr on every cell (1.36-1.80x), while B<8 round
#: overheads can lose on small cells. Never consulted when the native
#: kernel is usable — one native walk per lane beats the batch kernel's
#: per-query cost at every measured width.
AUTO_BATCH_MIN_LANES = 8

#: Dimensionality ceiling for the native kernel's bitwise contract
#: (numpy's einsum switches its float reduction tree at d=8; the C dot
#: product reproduces the d<=7 association exactly).
NATIVE_DISPATCH_MAX_DIM = _native.NATIVE_MAX_DIM

#: Node-count ceiling for the native kernel: structures at or above
#: this size use an int64 gate-state template the C walker does not
#: speak (2**30 nodes ~ 4 GiB of values alone — far beyond the
#: measured bench grid).
NATIVE_DISPATCH_MAX_NODES = 2**30 - 1

def get_jit_kernel() -> Callable:
    """Return :func:`~repro.core.native.native_walk_lanes` or raise
    :class:`KernelUnavailableError`.

    The serving engine calls it for every native group, after
    :func:`select_kernel` verified availability, and walks through the
    callable it returns.  A direct caller on a host without the C walker
    gets an error naming the remedy.  The first call builds (or loads the
    cached) C walker; a failed build is remembered by the loader, so
    later calls fail just as fast.
    """
    try:
        return _native.get_native_kernel()
    except Exception as exc:
        raise KernelUnavailableError(
            "no compiled walk kernel is available: the bundled C walker "
            "could not be built — a C toolchain (cc/gcc/clang) and cffi "
            "are required, or a cached build under the native cache dir; "
            "see repro.core.native.build_info() for the failure detail; "
            "the serving engines fall back to the python kernels"
        ) from exc


def native_kernel_usable(n_nodes: int, d: int) -> bool:
    """Can dispatch send this shape to the native kernel right now?

    Shape gates first (cheap): the bitwise contract covers
    d <= 7 and int32 gate-state structures only.  Then the build/load
    probe — which compiles on first use, logs one warning on failure,
    and is a cached boolean ever after.  Never raises.
    """
    if d > NATIVE_DISPATCH_MAX_DIM or n_nodes > NATIVE_DISPATCH_MAX_NODES:
        return False
    return _native.native_ready(warn=True)


def select_kernel(
    structure: LayerStructure | None = None,
    *,
    n_nodes: int | None = None,
    d: int | None = None,
    batch_width: int = 1,
) -> str:
    """Pick the kernel that serves one group of queries.

    Pass either a built ``structure`` or explicit ``n_nodes``/``d``
    (both required in that case). ``batch_width`` is the number of
    queries sharing one traversal opportunity (same effective k).

    Returns one of ``"native"``, ``"batch"``, ``"reference"``,
    ``"csr"``.  ``"native"`` is returned whenever the
    compiled kernel can serve the shape *now* (the probe builds on
    first use), whatever ``batch_width`` is; otherwise the python
    crossovers below apply.
    """
    if structure is not None:
        n_nodes = structure.n_nodes
        d = structure.values.shape[1]
    if n_nodes is None or d is None:
        raise ValueError("select_kernel needs a structure or both n_nodes and d")
    if native_kernel_usable(n_nodes, d):
        return "native"
    if batch_width >= AUTO_BATCH_MIN_LANES:
        return "batch"
    if n_nodes <= AUTO_SMALL_STRUCTURE_NODES and d <= AUTO_SMALL_STRUCTURE_DIM:
        return "reference"
    return "csr"
