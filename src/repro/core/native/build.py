"""Build-or-first-use compilation of the native walk kernel.

The kernel is plain C (``walker.c``) loaded through **cffi ABI mode**:
no ``Python.h``, no build-time extension machinery — just a shared
object produced by whatever C compiler the host has (``cc``/``gcc``/
``clang``, or ``$REPRO_NATIVE_CC``) and opened with ``ffi.dlopen``.
That keeps the compiled path *toolchain-only*: environments without a
compiler (or without cffi) simply never build it, and every caller
above falls back to the pure-python kernels.

The ``.so`` is cached under a version-keyed directory::

    $REPRO_NATIVE_CACHE | ~/.cache/repro-native / v{N}-{source-hash}-{machine}

so a source edit or a :data:`NATIVE_KERNEL_VERSION` bump changes the
key and triggers a rebuild — a stale library can never be loaded
against new source.  Compilation writes to a temp file and
``os.replace``\\ s it into place, so concurrent builders race benignly.
"""

from __future__ import annotations

import hashlib
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from repro.exceptions import NativeBuildError

#: Bump to invalidate every cached build (ABI or semantic change in
#: walker.c that the source hash alone would not capture, e.g. a
#: changed compile flag).
NATIVE_KERNEL_VERSION = 1

#: Compile flags. ``-ffp-contract=off`` is load-bearing: an FMA-fused
#: dot product produces different result bits and breaks the kernel's
#: bitwise-identity contract (the loader's self-check would refuse it).
CFLAGS = ("-O3", "-fPIC", "-shared", "-fno-fast-math", "-ffp-contract=off")

SOURCE_PATH = Path(__file__).with_name("walker.c")

#: C declarations for ``ffi.cdef`` — must match walker.c exactly.
CDEF = """
double repro_dot(const double *v, const double *w, int64_t d);
typedef struct {
    int64_t n_nodes, n_real, d;
    const double *values;
    const int64_t *f_indptr, *f_indices;
    const int64_t *e_indptr, *e_indices;
    int32_t exists_offset;
    const int64_t *static_seeds;
    int64_t n_static_seeds;
    int32_t *state;
    const int32_t *template_state;
    uint8_t *dirty;
    int64_t *touched;
    double *heap_scores;
    int64_t *heap_ids;
    int64_t *opened;
    double *kth;
    const int64_t *sub_of;
    const double *sub_mins;
    int64_t n_sub_rows;
    const int64_t *block_of;
    const double *block_mins;
    int64_t n_block_rows;
    uint8_t *pruned_sub;
} repro_walk_ctx;
void repro_walk_many(
    const repro_walk_ctx *ctx, int32_t prune,
    int64_t n_lanes, const double *weights, const int64_t *ks,
    const int64_t *seed_indptr, const int64_t *seed_ids,
    int64_t out_stride, int64_t *out_ids, double *out_scores,
    int64_t *out_n, int64_t *out_counts);
"""


def find_compiler() -> str | None:
    """Path of the C compiler to use, or ``None`` when the host has none.

    ``$REPRO_NATIVE_CC`` overrides discovery (set it to ``none`` to
    simulate a compiler-less host — the CI fallback job does exactly
    that); otherwise the first of ``cc``/``gcc``/``clang`` on PATH wins.
    """
    override = os.environ.get("REPRO_NATIVE_CC")
    if override is not None:
        if override.strip().lower() in ("", "none"):
            return None
        return override
    for name in ("cc", "gcc", "clang"):
        found = shutil.which(name)
        if found:
            return found
    return None


def source_digest() -> str:
    """Content hash of walker.c (part of the cache key)."""
    return hashlib.sha256(SOURCE_PATH.read_bytes()).hexdigest()[:16]


def cache_dir() -> Path:
    """Version-keyed directory holding the compiled library."""
    base = os.environ.get("REPRO_NATIVE_CACHE")
    if base:
        root = Path(base)
    else:
        xdg = os.environ.get("XDG_CACHE_HOME")
        root = Path(xdg) if xdg else Path.home() / ".cache"
        root = root / "repro-native"
    key = f"v{NATIVE_KERNEL_VERSION}-{source_digest()}-{platform.machine()}"
    return root / key


def library_path() -> Path:
    suffix = ".dll" if sys.platform == "win32" else ".so"
    return cache_dir() / f"repro_walker{suffix}"


def build_library(force: bool = False) -> tuple[Path, bool]:
    """Compile (or reuse) the native library; ``(path, was_cached)``.

    Raises :class:`~repro.exceptions.NativeBuildError` when no compiler
    is available or the compile fails — callers on the ``auto`` path
    catch it and fall back; the explicit ``kernel="native"`` path
    surfaces it as :class:`~repro.exceptions.KernelUnavailableError`.
    """
    target = library_path()
    if target.exists() and not force:
        return target, True
    compiler = find_compiler()
    if compiler is None:
        raise NativeBuildError(
            "no C compiler found (set $REPRO_NATIVE_CC or install one of "
            "cc/gcc/clang); the native kernel cannot be built"
        )
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        suffix=target.suffix, prefix="repro_walker_", dir=target.parent
    )
    os.close(fd)
    cmd = [compiler, *CFLAGS, "-o", tmp_name, str(SOURCE_PATH)]
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=120
        )
    except (OSError, subprocess.TimeoutExpired) as exc:
        os.unlink(tmp_name)
        raise NativeBuildError(
            f"native kernel build could not run {compiler!r}: {exc}"
        ) from exc
    if proc.returncode != 0:
        os.unlink(tmp_name)
        detail = (proc.stderr or proc.stdout or "").strip()[-500:]
        raise NativeBuildError(
            f"native kernel build failed (exit {proc.returncode}, "
            f"compiler {compiler!r}): {detail}"
        )
    os.replace(tmp_name, target)  # atomic: concurrent builders race benignly
    return target, False
