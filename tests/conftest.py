"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import generate
from repro.data.hotels import HOTEL_NAMES, toy_hotels
from repro.exceptions import NativeBuildError


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


@pytest.fixture
def isolated_native_state():
    """Snapshot + clear every module-global the native load path mutates,
    so a test can simulate a fresh process; restores the real state after."""
    from repro.core.native import kernel as nk

    snapshot = (nk._ffi, nk._lib, nk._status, nk._detail, nk._warned)
    nk._reset_for_tests()
    yield nk
    nk._ffi, nk._lib, nk._status, nk._detail, nk._warned = snapshot


@pytest.fixture
def broken_native_build(isolated_native_state, monkeypatch):
    """The native loader as on a host whose C build fails."""

    def broken_build(force=False):
        raise NativeBuildError("simulated compile explosion")

    monkeypatch.setattr(isolated_native_state, "build_library", broken_build)
    return isolated_native_state


def names_of(ids) -> set[str]:
    """Toy-hotel names for a collection of ids (test helper)."""
    return {HOTEL_NAMES[int(i)] for i in ids}


def served_kernels() -> list[str]:
    """Every ``QueryEngine`` kernel that can serve on this host (test helper)."""
    kernels = ["reference", "csr", "batch"]
    try:
        from repro.core.native import native_ready
    except ImportError:
        return kernels
    return kernels + (["native"] if native_ready() else [])
