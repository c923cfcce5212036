"""Python wrapper for the compiled solo-walk kernel.

:func:`native_process_top_k` honours the
:func:`repro.core.query.process_top_k` signature and its bitwise
contract — same answer bytes, same Definition-9 counts — and is what
:func:`repro.core.dispatch.get_jit_kernel` returns once the native
library loads.  Queries the C kernel cannot serve bitwise
(``fetch_real`` storage reads, per-access trace hooks, d > 7 where
numpy's einsum switches to an unroll-by-8 reduction tree, or int64
gate-state structures) delegate to the python kernel transparently.

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
from repro.core.query import process_top_k, seed_scores, _einsum
from repro.core.structure import LayerStructure
from repro.exceptions import IndexCapacityError, NativeBuildError

logger = logging.getLogger(__name__)

#: Highest dimensionality the C dot product reproduces bitwise (numpy's
#: pairwise einsum reduction switches association at d=8).
NATIVE_MAX_DIM = 7

_ffi = None
_lib = None
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
    global _ffi, _lib, _status
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
        _ffi = ffi
        _lib = lib
        _status = "cached" if was_cached else "built"
        return _lib


def native_ready(warn: bool = False) -> bool:
    """True when the compiled kernel is loadable; never raises.

    ``warn=True`` (the ``auto`` dispatch path) logs the failure detail
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
                "native walk kernel unavailable — kernel='auto' will serve "
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
    out = np.ascontiguousarray(array, dtype=np.int64)
    return out


class _Prepared:
    """Per-structure buffers and cached cffi pointers (template-keyed)."""

    __slots__ = (
        "template", "n_nodes", "n_real", "d", "arrays", "ptrs",
        "state", "dirty", "touched", "heap_scores", "heap_ids",
        "opened", "kth", "counts", "prune_arrays", "prune_ptrs",
        "n_sub_rows", "n_block_rows", "pruned_sub",
    )

    def __init__(self, structure: LayerStructure) -> None:
        ffi = _ffi
        template = structure.gate_state_template()
        n = structure.n_nodes
        self.template = template
        self.n_nodes = n
        self.n_real = structure.n_real
        self.d = structure.values.shape[1]
        values = np.ascontiguousarray(structure.values, dtype=np.float64)
        f_indptr = _i64(structure.forall_indptr)
        f_indices = _i64(structure.forall_indices)
        e_indptr = _i64(structure.exists_indptr)
        e_indices = _i64(structure.exists_indices)
        self.state = template.copy()
        self.dirty = np.zeros(n, dtype=np.uint8)
        self.touched = np.empty(n, dtype=np.int64)
        self.heap_scores = np.empty(n, dtype=np.float64)
        self.heap_ids = np.empty(n, dtype=np.int64)
        self.opened = np.empty(n, dtype=np.int64)
        self.kth = np.empty(max(n, 1), dtype=np.float64)
        self.counts = np.zeros(2, dtype=np.int64)
        # Keep every backing array referenced for as long as its pointer
        # lives — cffi casts do not own the memory.
        self.arrays = (values, f_indptr, f_indices, e_indptr, e_indices)
        self.ptrs = {
            "values": ffi.cast("double *", values.ctypes.data),
            "f_indptr": ffi.cast("int64_t *", f_indptr.ctypes.data),
            "f_indices": ffi.cast("int64_t *", f_indices.ctypes.data),
            "e_indptr": ffi.cast("int64_t *", e_indptr.ctypes.data),
            "e_indices": ffi.cast("int64_t *", e_indices.ctypes.data),
            "state": ffi.cast("int32_t *", self.state.ctypes.data),
            "template": ffi.cast("int32_t *", template.ctypes.data),
            "dirty": ffi.cast("uint8_t *", self.dirty.ctypes.data),
            "touched": ffi.cast("int64_t *", self.touched.ctypes.data),
            "heap_scores": ffi.cast("double *", self.heap_scores.ctypes.data),
            "heap_ids": ffi.cast("int64_t *", self.heap_ids.ctypes.data),
            "opened": ffi.cast("int64_t *", self.opened.ctypes.data),
            "kth": ffi.cast("double *", self.kth.ctypes.data),
            "counts": ffi.cast("int64_t *", self.counts.ctypes.data),
        }
        self.prune_arrays = None
        self.prune_ptrs = None
        self.n_sub_rows = 0
        self.n_block_rows = 0
        self.pruned_sub = None

    def prune_pointers(self, structure: LayerStructure) -> dict:
        """Lazily gather + pin the bound tables (cached on the structure)."""
        if self.prune_ptrs is None:
            ffi = _ffi
            block_of, block_mins = structure.layer_bound_table()
            sub_of, sub_mins = structure.sublayer_bound_table()
            block_of = _i64(block_of)
            block_mins = np.ascontiguousarray(block_mins, dtype=np.float64)
            sub_of = _i64(sub_of)
            sub_mins = np.ascontiguousarray(sub_mins, dtype=np.float64)
            self.n_block_rows = block_mins.shape[0]
            self.n_sub_rows = sub_mins.shape[0]
            self.pruned_sub = np.zeros(self.n_sub_rows, dtype=np.uint8)
            self.prune_arrays = (block_of, block_mins, sub_of, sub_mins)
            self.prune_ptrs = {
                "sub_of": ffi.cast("int64_t *", sub_of.ctypes.data),
                "sub_mins": ffi.cast("double *", sub_mins.ctypes.data),
                "block_of": ffi.cast("int64_t *", block_of.ctypes.data),
                "block_mins": ffi.cast("double *", block_mins.ctypes.data),
                "pruned_sub": ffi.cast(
                    "uint8_t *", self.pruned_sub.ctypes.data
                ),
            }
        return self.prune_ptrs


class NativeWorkspace:
    """Reusable native-kernel scratch, following :class:`QueryWorkspace`.

    Checkout is non-blocking: a query that finds the workspace busy
    falls back to freshly allocated buffers (counted in
    :attr:`fallbacks`; the serving engine surfaces both counters).  The
    C kernel restores the gate-state array to template state before it
    returns, so the buffers need no python-side reset between queries.
    Buffers are keyed by gate-state-template *identity*, so a rebuilt
    structure transparently re-primes fresh state.
    """

    __slots__ = ("_lock", "_prepared", "_stats_lock", "checkouts", "fallbacks")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._prepared: _Prepared | None = None
        self._stats_lock = threading.Lock()
        #: Queries served from the shared buffers (lock acquired).
        self.checkouts = 0
        #: Queries that found the workspace busy and allocated privately.
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


def native_process_top_k(
    structure: LayerStructure,
    weights: np.ndarray,
    k: int,
    counter,
    fetch_real=None,
    seeds=None,
    prune: bool = False,
    workspace: NativeWorkspace | None = None,
):
    """Compiled :func:`~repro.core.query.process_top_k` — same contract.

    Answers, heap order, and Definition-9 counts are bitwise identical
    to the python kernels; modes the C walk cannot observe faithfully
    (``fetch_real``, trace hooks, d > NATIVE_MAX_DIM, int64 gate state)
    delegate to :func:`process_top_k` unchanged.
    """
    trace_hook = getattr(counter, "count_real_tuple", None)
    if (
        fetch_real is not None
        or trace_hook is not None
        or not native_supported(structure)
    ):
        return process_top_k(
            structure, weights, k, counter,
            fetch_real=fetch_real, seeds=seeds, prune=prune,
        )
    lib = _load()
    ffi = _ffi
    if not structure.complete and k > structure.num_coarse_layers:
        raise IndexCapacityError(
            f"index was built with only {structure.num_coarse_layers} coarse "
            f"layers; top-{k} requires at least k layers"
        )

    w = np.ascontiguousarray(weights, dtype=np.float64)
    if seeds is None:
        seed_ids, seed_sc = seed_scores(structure, w)
    else:
        seed_ids, seed_sc = seeds
    seed_ids = _i64(seed_ids)
    seed_sc = np.ascontiguousarray(seed_sc, dtype=np.float64)

    ws_acquired = workspace is not None and workspace._lock.acquire(
        blocking=False
    )
    if workspace is not None and not ws_acquired:
        workspace._count_fallback()
    try:
        if ws_acquired:
            prepared = workspace._checkout(structure)
        else:
            prepared = _Prepared(structure)
        ptrs = prepared.ptrs
        if prune:
            pp = prepared.prune_pointers(structure)
        else:
            null = ffi.NULL
            pp = {
                "sub_of": null, "sub_mins": null,
                "block_of": null, "block_mins": null, "pruned_sub": null,
            }
        cap = max(min(int(k), prepared.n_real), 0)
        out_ids = np.empty(cap, dtype=np.intp)
        out_scores = np.empty(cap, dtype=np.float64)
        try:
            n_ans = lib.repro_solo_walk(
                prepared.n_nodes, prepared.n_real, prepared.d,
                ptrs["values"],
                ptrs["f_indptr"], ptrs["f_indices"],
                ptrs["e_indptr"], ptrs["e_indices"],
                structure.n_nodes + 1,
                ffi.cast("double *", w.ctypes.data), int(k),
                ffi.cast("int64_t *", seed_ids.ctypes.data),
                ffi.cast("double *", seed_sc.ctypes.data),
                seed_ids.shape[0],
                ptrs["state"], ptrs["template"],
                ptrs["dirty"], ptrs["touched"],
                ptrs["heap_scores"], ptrs["heap_ids"],
                ptrs["opened"],
                ptrs["kth"],
                1 if prune else 0,
                pp["sub_of"], pp["sub_mins"], prepared.n_sub_rows,
                pp["block_of"], pp["block_mins"], prepared.n_block_rows,
                pp["pruned_sub"],
                ffi.cast("int64_t *", out_ids.ctypes.data),
                ffi.cast("double *", out_scores.ctypes.data),
                ptrs["counts"],
            )
        except BaseException:
            if ws_acquired:
                workspace._invalidate()
            raise
        counter.count_real(int(prepared.counts[0]))
        counter.count_pseudo(int(prepared.counts[1]))
        return out_ids[:n_ans], out_scores[:n_ans]
    finally:
        if ws_acquired:
            workspace._lock.release()


def get_native_kernel():
    """Load the library and return the kernel callable (or raise)."""
    _load()
    return native_process_top_k
