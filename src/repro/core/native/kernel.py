"""Python wrapper for the compiled walk kernel.

The C library has one walk entry, ``repro_walk_many``: it scores the
seeds and walks a whole group of queries one after another on one
workspace, in one FFI crossing with the GIL released.
:func:`native_walk_lanes` is its one python face, answering lane by
lane, and is what :func:`repro.core.dispatch.get_jit_kernel` returns once
the native library loads; the serving engine calls it once per k-group,
one row or many.  A crossing's python work is fixed per call: shape
checks, one int64 block (per-lane ks, answer and Definition-9 counts,
answer ids) and one float64 score array, three buffer wraps with
pre-resolved types, and the workspace lock.  Each lane's answer bytes
and Definition-9 counts are bitwise those of
:func:`repro.core.query.process_top_k`.  Walks the C kernel cannot serve
bitwise (``fetch_real`` storage reads, per-access trace hooks, d > 7
where numpy's einsum switches to an unroll-by-8 reduction tree, or int64
gate-state structures) never reach it: storage-backed and traced walks
call the python kernels directly, and
:func:`repro.core.dispatch.select_kernel` sends the other shapes to them.

Load path
---------
The first load compiles or reuses the cached ``.so`` (see
:mod:`repro.core.native.build`), then runs a **bitwise self-check**:
``repro_dot`` must reproduce numpy's einsum ``"j,j->"`` bits exactly
for every supported dimensionality on a battery of random vectors.  A
platform whose einsum uses a different float association (or a build
that slipped FMA contraction in) fails the check and is refused — the
fallback ladder treats it exactly like a failed build, so a
wrong-bits library can never serve a query.
"""

from __future__ import annotations

import logging
import threading

import numpy as np

from repro.core.native.build import CDEF, build_library, library_path
# ``seed_scores`` stays a module attribute (the walk scores seeds in C):
# benchmarks/e2e/workloads.py traces it here by name.
from repro.core.query import _einsum, seed_scores, selector_seeds  # noqa: F401
from repro.core.structure import LayerStructure
from repro.exceptions import IndexCapacityError, NativeBuildError

logger = logging.getLogger(__name__)

#: Highest dimensionality the C dot product reproduces bitwise (numpy's
#: pairwise einsum reduction switches association at d=8).
NATIVE_MAX_DIM = 7

_ffi = None
_lib = None
# The "double[]"/"int64_t[]" ctypes, resolved at load so a buffer wrap
# skips the type-string lookup.
_doubles = None
_int64s = None
_status = "unattempted"  # unattempted | built | cached | failed
_detail = ""
_load_lock = threading.Lock()
_warned = False


def _fail(detail: str) -> None:
    global _status, _detail
    _status = "failed"
    _detail = detail
    raise NativeBuildError(detail)


def _self_check(ffi, lib) -> None:
    """Refuse the library unless its dot product matches einsum bitwise."""
    rng = np.random.default_rng(20120401)
    for d in range(1, NATIVE_MAX_DIM + 1):
        vals = rng.standard_normal((64, d))
        wts = rng.dirichlet(np.ones(d))
        w_ptr = ffi.cast("double *", wts.ctypes.data)
        expect = _einsum("ij,j->i", vals, wts)
        for i in range(vals.shape[0]):
            got = lib.repro_dot(
                ffi.cast("double *", vals[i].ctypes.data), w_ptr, d
            )
            if np.float64(got).tobytes() != expect[i].tobytes():
                _fail(
                    f"native kernel failed the bitwise scoring self-check at "
                    f"d={d}: this platform's einsum reduction order differs "
                    f"from the compiled dot product; refusing the library"
                )


def _load():
    """Build/open the library once per process; raise on any failure."""
    global _ffi, _lib, _status, _doubles, _int64s
    if _lib is not None:
        return _lib
    with _load_lock:
        if _lib is not None:
            return _lib
        if _status == "failed":
            raise NativeBuildError(_detail)
        if np.dtype(np.intp).itemsize != 8:
            _fail("native kernel requires a 64-bit platform (np.intp != int64)")
        try:
            import cffi
        except ImportError:
            _fail("cffi is not installed; the native kernel cannot load")
        try:
            path, was_cached = build_library()
        except NativeBuildError as exc:
            _fail(str(exc))
        ffi = cffi.FFI()
        ffi.cdef(CDEF)
        try:
            lib = ffi.dlopen(str(path))
        except OSError as exc:
            _fail(f"could not dlopen native kernel {path}: {exc}")
        _self_check(ffi, lib)
        _doubles = ffi.typeof("double[]")
        _int64s = ffi.typeof("int64_t[]")
        _ffi = ffi
        _lib = lib
        _status = "cached" if was_cached else "built"
        return _lib


def native_ready(warn: bool = False) -> bool:
    """True when the compiled kernel is loadable; never raises.

    ``warn=True`` (the dispatch path) logs the failure detail
    once per process, then stays silent — build failure means one
    warning and a permanent fallback, not a per-query error stream.
    """
    global _warned
    try:
        _load()
        return True
    except Exception as exc:  # NativeBuildError or anything cffi raised
        if warn and not _warned:
            _warned = True
            logger.warning(
                "native walk kernel unavailable — queries will be served "
                "via the python kernels (%s)", exc
            )
        return False


def build_info() -> dict:
    """Build/load outcome for observability: status, detail, cache path."""
    return {
        "status": _status,
        "detail": _detail,
        "path": str(library_path()),
    }


def _reset_for_tests() -> None:
    """Forget all load state (test helper — not part of the public API)."""
    global _ffi, _lib, _status, _detail, _warned
    with _load_lock:
        _ffi = None
        _lib = None
        _status = "unattempted"
        _detail = ""
        _warned = False


def native_supported(structure: LayerStructure) -> bool:
    """Can the C kernel serve this structure bitwise?"""
    return (
        1 <= structure.values.shape[1] <= NATIVE_MAX_DIM
        and structure.gate_state_template().dtype == np.int32
        and np.dtype(np.intp).itemsize == 8
    )


def _i64(array: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(array, dtype=np.int64)


class _Prepared:
    """Per-structure buffers and the C context struct that points at them.

    Built once per structure (template identity) and reused by every
    call: the context holds the structure arrays, the static seeds and
    the workspace scratch, so a call passes one pointer instead of
    re-marshalling each.
    """

    __slots__ = ("template", "arrays", "ctx")

    def __init__(self, structure: LayerStructure) -> None:
        if not native_supported(structure):
            raise ValueError(
                "structure is outside the native kernel's bitwise contract "
                "(see native_supported)"
            )
        ffi = _ffi
        template = structure.gate_state_template()
        n = structure.n_nodes
        self.template = template
        values = np.ascontiguousarray(structure.values, dtype=np.float64)
        f_indptr = _i64(structure.forall_indptr)
        f_indices = _i64(structure.forall_indices)
        e_indptr = _i64(structure.exists_indptr)
        e_indices = _i64(structure.exists_indices)
        static_seeds = _i64(structure.static_seeds)
        state = template.copy()
        dirty = np.zeros(n, dtype=np.uint8)
        touched = np.empty(n, dtype=np.int64)
        heap_scores = np.empty(n, dtype=np.float64)
        heap_ids = np.empty(n, dtype=np.int64)
        opened = np.empty(n, dtype=np.int64)
        # Keep every backing array referenced for as long as the context
        # points at it — cffi casts do not own the memory.
        self.arrays = (
            values, f_indptr, f_indices, e_indptr, e_indices, static_seeds,
            template, state, dirty, touched, heap_scores, heap_ids, opened,
        )
        ctx = ffi.new("repro_walk_ctx *")
        ctx.n_nodes = n
        ctx.n_real = structure.n_real
        ctx.d = values.shape[1]
        ctx.values = ffi.cast("double *", values.ctypes.data)
        ctx.f_indptr = ffi.cast("int64_t *", f_indptr.ctypes.data)
        ctx.f_indices = ffi.cast("int64_t *", f_indices.ctypes.data)
        ctx.e_indptr = ffi.cast("int64_t *", e_indptr.ctypes.data)
        ctx.e_indices = ffi.cast("int64_t *", e_indices.ctypes.data)
        ctx.exists_offset = n + 1
        ctx.static_seeds = ffi.cast("int64_t *", static_seeds.ctypes.data)
        ctx.n_static_seeds = static_seeds.shape[0]
        ctx.state = ffi.cast("int32_t *", state.ctypes.data)
        ctx.template_state = ffi.cast("int32_t *", template.ctypes.data)
        ctx.dirty = ffi.cast("uint8_t *", dirty.ctypes.data)
        ctx.touched = ffi.cast("int64_t *", touched.ctypes.data)
        ctx.heap_scores = ffi.cast("double *", heap_scores.ctypes.data)
        ctx.heap_ids = ffi.cast("int64_t *", heap_ids.ctypes.data)
        ctx.opened = ffi.cast("int64_t *", opened.ctypes.data)
        self.ctx = ctx


class NativeWorkspace:
    """Reusable native-kernel scratch, following :class:`QueryWorkspace`.

    Checkout is non-blocking: a call that finds the workspace busy
    falls back to freshly allocated buffers (counted in
    :attr:`fallbacks`; the serving engine surfaces both counters).  One
    :func:`native_walk_lanes` call is one checkout however many lanes it
    walks.  The C kernel restores the gate-state array to template state
    after every lane, so the buffers need no python-side reset between
    calls.  Buffers are keyed by gate-state-template *identity*, so a
    rebuilt structure transparently re-primes fresh state.
    """

    __slots__ = ("_lock", "_prepared", "_stats_lock", "checkouts", "fallbacks")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._prepared: _Prepared | None = None
        self._stats_lock = threading.Lock()
        #: Calls served from the shared buffers (lock acquired).
        self.checkouts = 0
        #: Calls that found the workspace busy and allocated privately.
        self.fallbacks = 0

    def _checkout(self, structure: LayerStructure) -> _Prepared:
        prepared = self._prepared
        if (
            prepared is None
            or prepared.template is not structure.gate_state_template()
        ):
            prepared = _Prepared(structure)
            self._prepared = prepared
        self.checkouts += 1
        return prepared

    def _invalidate(self) -> None:
        self._prepared = None

    def _count_fallback(self) -> None:
        with self._stats_lock:
            self.fallbacks += 1


def native_walk_lanes(
    structure: LayerStructure,
    weights_matrix: np.ndarray,
    ks,
    *,
    workspace: NativeWorkspace | None = None,
) -> list[tuple[np.ndarray, np.ndarray, int, int]]:
    """Walk every row of ``weights_matrix`` in one ``repro_walk_many`` call.

    ``weights_matrix`` is a ``(B, d)`` matrix of normalized weight
    vectors and ``ks`` a scalar or length-B retrieval size.  The C side
    scores the seeds, walks the lanes one after another on one workspace
    checkout and runs with the GIL released.  Returns one ``(ids,
    scores, real, pseudo)`` per row: the lane's answer as views of the
    call's fresh buffers and its Definition-9 counts as python ints —
    bitwise what :func:`~repro.core.query.process_top_k` returns for that
    lane alone.

    The python work is fixed per call, not per lane: a few shape checks,
    two allocations (one int64 block holding the ks, answer counts,
    real/pseudo counts and answer ids in the layout ``walker.c``
    defines, and one float64 score array), three buffer wraps and the
    workspace lock; the block is read back with one ``tolist`` and two
    slices per lane.

    A structure with a seed selector gets each lane's entry nodes from
    :func:`~repro.core.query.selector_seeds`, range-checked before C
    reads them; static seeds live in the prepared context.  The structure
    must satisfy :func:`native_supported`.
    """
    lib = _load()
    ffi = _ffi
    d = structure.values.shape[1]
    weights = np.ascontiguousarray(weights_matrix, dtype=np.float64)
    if weights.ndim != 2 or weights.shape[1] != d:
        raise ValueError(
            f"weights_matrix must have shape (B, {d}), got {weights.shape}"
        )
    n_lanes = weights.shape[0]
    if isinstance(ks, (int, np.integer)):
        k_max = int(ks)
    else:
        ks = np.asarray(ks, dtype=np.int64)
        if ks.ndim and ks.shape != (n_lanes,):
            raise ValueError(f"need one k per lane, got shape {ks.shape}")
        k_max = int(ks.max()) if ks.size else 0
    if not structure.complete and k_max > structure.num_coarse_layers:
        raise IndexCapacityError(
            f"index was built with only {structure.num_coarse_layers} coarse "
            f"layers; top-{k_max} requires at least k layers"
        )
    if structure.seed_selector is None:
        indptr_ptr = ids_ptr = ffi.NULL
    else:
        seeds = [selector_seeds(structure, w) for w in weights]
        seed_indptr = np.zeros(n_lanes + 1, dtype=np.int64)
        np.cumsum([len(lane) for lane in seeds], out=seed_indptr[1:])
        seed_ids = _i64(np.concatenate(seeds)) if n_lanes else seed_indptr[:0]
        if seed_ids.size and (
            seed_ids.min() < 0 or seed_ids.max() >= structure.n_nodes
        ):
            raise ValueError("seed ids must lie in [0, n_nodes)")
        indptr_ptr = ffi.from_buffer(_int64s, seed_indptr)
        ids_ptr = ffi.from_buffer(_int64s, seed_ids)

    stride = max(min(k_max, structure.n_real), 0)
    block = np.empty(n_lanes * (4 + stride), dtype=np.int64)
    block[:n_lanes] = ks
    scores = np.empty(n_lanes * stride, dtype=np.float64)

    ws_acquired = workspace is not None and workspace._lock.acquire(
        blocking=False
    )
    if workspace is not None and not ws_acquired:
        workspace._count_fallback()
    try:
        # A warm workspace's context was checked against native_supported
        # when it was prepared, so the check runs once per structure.
        if ws_acquired:
            prepared = workspace._checkout(structure)
        else:
            prepared = _Prepared(structure)
        try:
            # from_buffer checks contiguity and keeps the array alive for
            # the call (several times cheaper than casting .ctypes.data).
            lib.repro_walk_many(
                prepared.ctx, n_lanes,
                ffi.from_buffer(_doubles, weights), indptr_ptr, ids_ptr,
                stride, ffi.from_buffer(_int64s, block),
                ffi.from_buffer(_doubles, scores),
            )
        except BaseException:
            if ws_acquired:
                workspace._invalidate()
            raise
    finally:
        if ws_acquired:
            workspace._lock.release()

    head = block[n_lanes : 4 * n_lanes].tolist()
    lanes = []
    at = 4 * n_lanes
    for lane in range(n_lanes):
        n = head[lane]
        start = lane * stride
        lanes.append((
            block[at + start : at + start + n],
            scores[start : start + n],
            head[n_lanes + 2 * lane],
            head[n_lanes + 2 * lane + 1],
        ))
    return lanes


def get_native_kernel():
    """Load the library and return :func:`native_walk_lanes` (or raise)."""
    _load()
    return native_walk_lanes
