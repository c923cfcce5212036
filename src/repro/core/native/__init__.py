"""Native compiled walk kernel (cffi ABI mode + host C compiler).

Public surface:

* :func:`get_native_kernel` — build/load the library and return the
  ``process_top_k``-compatible callable (raises
  :class:`~repro.exceptions.NativeBuildError` when it cannot).
* :func:`native_walk_many` — one FFI crossing for a whole group of
  queries (the serving engine's ``query_batch`` path); the kernel
  callable above is its one-lane call.
* :func:`native_ready` — non-raising availability probe used by the
  ``auto`` dispatch path (one logged warning on failure, then silence).
* :func:`build_info` — build outcome (``built``/``cached``/``failed``/
  ``unattempted``) for ``engine.stats()`` and operators.
* :class:`NativeWorkspace` — reusable per-structure scratch, the native
  analogue of :class:`~repro.core.query.QueryWorkspace`.
* :data:`NATIVE_KERNEL_VERSION` — bump to invalidate cached builds.
"""

from repro.core.native.build import (
    NATIVE_KERNEL_VERSION,
    build_library,
    cache_dir,
    find_compiler,
    library_path,
)
from repro.core.native.kernel import (
    NATIVE_MAX_DIM,
    NativeWorkspace,
    build_info,
    get_native_kernel,
    native_process_top_k,
    native_ready,
    native_supported,
    native_walk_many,
)

__all__ = [
    "NATIVE_KERNEL_VERSION",
    "NATIVE_MAX_DIM",
    "NativeWorkspace",
    "build_info",
    "build_library",
    "cache_dir",
    "find_compiler",
    "get_native_kernel",
    "library_path",
    "native_process_top_k",
    "native_ready",
    "native_supported",
    "native_walk_many",
]
