"""Shared fixtures for the test suite."""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

from repro.core.query import process_top_k, process_top_k_batch, process_top_k_reference
from repro.data import generate
from repro.data.hotels import HOTEL_NAMES, toy_hotels
from repro.exceptions import NativeBuildError
from repro.stats import AccessCounter


@pytest.fixture(scope="session")
def toy():
    """The paper's Fig. 1 toy hotel relation."""
    return toy_hotels()


@pytest.fixture(scope="session")
def toy_ids():
    """Name → tuple id mapping for the toy hotels."""
    return {name: i for i, name in enumerate(HOTEL_NAMES)}


@pytest.fixture()
def rng():
    """A deterministic random generator per test."""
    return np.random.default_rng(1234)


@pytest.fixture(scope="session", params=["IND", "ANT"])
def small_relation(request):
    """A small relation of each benchmark distribution (d=3)."""
    return generate(request.param, 250, 3, seed=9)


@contextlib.contextmanager
def native_state_isolated():
    """Snapshot + clear every module-global the native load path mutates,
    so a block can simulate a fresh process; restores the real state after."""
    from repro.core.native import kernel as nk

    snapshot = (nk._ffi, nk._lib, nk._status, nk._detail, nk._warned)
    nk._reset_for_tests()
    try:
        yield nk
    finally:
        nk._ffi, nk._lib, nk._status, nk._detail, nk._warned = snapshot


@contextlib.contextmanager
def python_kernels():
    """The native loader as on a host whose C build fails, for a block:
    dispatch then serves every query through the python kernels."""

    def broken_build(force=False):
        raise NativeBuildError("simulated compile explosion")

    with native_state_isolated() as nk, pytest.MonkeyPatch.context() as mp:
        mp.setattr(nk, "build_library", broken_build)
        yield nk


@pytest.fixture
def isolated_native_state():
    with native_state_isolated() as nk:
        yield nk


@pytest.fixture
def broken_native_build():
    """The native loader as on a host whose C build fails."""
    with python_kernels() as nk:
        yield nk


def names_of(ids) -> set[str]:
    """Toy-hotel names for a collection of ids (test helper)."""
    return {HOTEL_NAMES[int(i)] for i in ids}


def served_kernels() -> list[str]:
    """Every walk kernel that can serve on this host (test helper)."""
    kernels = ["reference", "csr", "batch"]
    try:
        from repro.core.native import native_ready
    except ImportError:
        return kernels
    return kernels + (["native"] if native_ready() else [])


#: ``(d, rows)`` of a cache-miss group that ``select_kernel`` sends to each
#: kernel on a structure of a few hundred tuples: native whenever it
#: loads; with the build masked (:func:`python_kernels`), batch from
#: eight rows, reference for a d=2 solo group and csr for a d=3 one.
KERNEL_ROUTES = {
    "native": (3, 1),
    "csr": (3, 1),
    "reference": (2, 1),
    "batch": (3, 8),
}


@pytest.fixture(params=served_kernels())
def served_kernel(request):
    """Each servable kernel's name; the python ones with the native build
    masked, so the engine's dispatch reaches them by shape
    (:data:`KERNEL_ROUTES`)."""
    if request.param == "native":
        yield request.param
    else:
        with python_kernels():
            yield request.param


def walk_with(kernel: str, structure, weights, ks) -> list[tuple]:
    """Every row of a normalized ``(B, d)`` weight matrix walked by one
    named kernel, called directly: one ``(ids, scores, real, pseudo)`` per
    row (test helper)."""
    weights = np.asarray(weights, dtype=np.float64)
    ks = np.broadcast_to(np.asarray(ks), (weights.shape[0],)).tolist()
    if kernel == "native":
        from repro.core.native import native_walk_lanes

        return native_walk_lanes(structure, weights, ks)
    counters = [AccessCounter() for _ in ks]
    if kernel == "batch":
        outputs = process_top_k_batch(structure, weights, ks, counters)
    else:
        solo = {"csr": process_top_k, "reference": process_top_k_reference}[kernel]
        outputs = [
            solo(structure, w, k, counter)
            for w, k, counter in zip(weights, ks, counters)
        ]
    return [
        (ids, scores, counter.real, counter.pseudo)
        for (ids, scores), counter in zip(outputs, counters)
    ]
