"""Kernel dispatch: pin the decision on both sides of each threshold.

The native compiled kernel, when loadable, wins every cell it supports
at every batch width, so ``select_kernel`` consults availability first.  The python
crossover tests below therefore run under the ``no_native`` fixture,
which simulates a host without a C toolchain — that is exactly the
environment whose dispatch decisions they pin.
"""

import pytest

from repro.core import DLIndex
from repro.core import dispatch
from repro.core.dispatch import (
    AUTO_BATCH_MIN_LANES,
    AUTO_SMALL_STRUCTURE_DIM,
    AUTO_SMALL_STRUCTURE_NODES,
    NATIVE_DISPATCH_MAX_DIM,
    NATIVE_DISPATCH_MAX_NODES,
    select_kernel,
)
from repro.data import generate


@pytest.fixture
def no_native(monkeypatch):
    """Dispatch as on a host where the native kernel cannot load."""
    monkeypatch.setattr(dispatch, "native_kernel_usable", lambda n, d: False)


@pytest.fixture
def native_available(monkeypatch):
    """Dispatch as on a host where the native kernel is loadable for
    every shape inside its contract, without actually building it."""
    monkeypatch.setattr(
        dispatch,
        "native_kernel_usable",
        lambda n, d: d <= NATIVE_DISPATCH_MAX_DIM
        and n <= NATIVE_DISPATCH_MAX_NODES,
    )


def test_small_structure_dispatches_reference_both_sides(no_native):
    """At d=2 the reference kernel wins below the node threshold and the
    CSR kernel wins above it — pin the decision one node either side."""
    at = select_kernel(n_nodes=AUTO_SMALL_STRUCTURE_NODES, d=2)
    above = select_kernel(n_nodes=AUTO_SMALL_STRUCTURE_NODES + 1, d=2)
    assert at == "reference"
    assert above == "csr"


def test_dimension_threshold_both_sides(no_native):
    """The small-structure exception only applies at d<=2: a 10k-node d=3
    structure already pays off the vectorized einsum."""
    small_n = AUTO_SMALL_STRUCTURE_NODES // 2
    assert select_kernel(n_nodes=small_n, d=AUTO_SMALL_STRUCTURE_DIM) == "reference"
    assert select_kernel(n_nodes=small_n, d=AUTO_SMALL_STRUCTURE_DIM + 1) == "csr"


def test_batch_width_threshold_both_sides(no_native):
    """batch_width >= AUTO_BATCH_MIN_LANES dispatches the lane-parallel
    kernel regardless of structure size; one lane fewer falls back to the
    single-query decision."""
    kw = dict(n_nodes=1000, d=2)
    assert select_kernel(batch_width=AUTO_BATCH_MIN_LANES, **kw) == "batch"
    assert select_kernel(batch_width=AUTO_BATCH_MIN_LANES - 1, **kw) == "reference"
    kw = dict(n_nodes=10**6, d=4)
    assert select_kernel(batch_width=AUTO_BATCH_MIN_LANES, **kw) == "batch"
    assert select_kernel(batch_width=AUTO_BATCH_MIN_LANES - 1, **kw) == "csr"


def test_structure_argument_supplies_shape(no_native):
    relation = generate("IND", 200, 3, seed=3)
    structure = DLIndex(relation).build().structure
    assert select_kernel(structure) == "csr"  # d=3 > small-structure dim
    assert select_kernel(structure, batch_width=AUTO_BATCH_MIN_LANES) == "batch"
    assert select_kernel(structure) == select_kernel(
        n_nodes=structure.n_nodes, d=structure.values.shape[1]
    )
    small = DLIndex(generate("IND", 200, 2, seed=4)).build().structure
    assert select_kernel(small) == "reference"


def test_missing_shape_rejected():
    with pytest.raises(ValueError):
        select_kernel()
    with pytest.raises(ValueError):
        select_kernel(n_nodes=100)
    with pytest.raises(ValueError):
        select_kernel(d=2)


def test_valid_kernels_registry(no_native):
    """select_kernel, the one chooser, only ever names the python kernels
    when the native one cannot load."""
    for n in (100, AUTO_SMALL_STRUCTURE_NODES + 1):
        for d in (2, 4):
            for width in (1, AUTO_BATCH_MIN_LANES):
                picked = select_kernel(n_nodes=n, d=d, batch_width=width)
                assert picked in {"reference", "csr", "batch"}


def test_native_wins_every_solo_cell_when_available(native_available):
    """With the compiled walker loadable, availability is the only
    crossover: every in-contract shape dispatches native, regardless of
    the python reference/csr thresholds."""
    for n in (100, AUTO_SMALL_STRUCTURE_NODES, 10**6):
        for d in (2, 4, NATIVE_DISPATCH_MAX_DIM):
            assert select_kernel(n_nodes=n, d=d) == "native"


def test_native_first_at_every_batch_width(native_available):
    """Native wins at every batch width: one native walk per lane beats
    the lane-parallel batch kernel, which only serves compiler-less
    hosts (see test_batch_width_threshold_both_sides)."""
    for n, d in ((1000, 2), (10**6, 4)):
        for width in (1, AUTO_BATCH_MIN_LANES, 128):
            assert select_kernel(n_nodes=n, d=d, batch_width=width) == "native"


def test_native_shape_gates(native_available):
    """Shapes outside the bitwise contract fall back to the python
    crossovers even when the library is loadable."""
    assert select_kernel(n_nodes=10**5, d=NATIVE_DISPATCH_MAX_DIM) == "native"
    assert select_kernel(n_nodes=10**5, d=NATIVE_DISPATCH_MAX_DIM + 1) == "csr"
    assert select_kernel(n_nodes=NATIVE_DISPATCH_MAX_NODES, d=4) == "native"
    assert select_kernel(n_nodes=NATIVE_DISPATCH_MAX_NODES + 1, d=4) == "csr"


def test_dispatch_dim_ceiling_mirrors_native_contract():
    """NATIVE_DISPATCH_MAX_DIM is a mirror of the kernel's own ceiling —
    pin them equal so neither can drift alone."""
    from repro.core.native import NATIVE_MAX_DIM

    assert NATIVE_DISPATCH_MAX_DIM == NATIVE_MAX_DIM


def test_native_kernel_usable_gates_shape_before_probe(monkeypatch):
    """The shape gates reject out-of-contract shapes without ever
    probing the build; in-contract shapes consult native_ready."""
    probes = []

    def fake_ready(warn=False):
        probes.append(warn)
        return False

    import repro.core.native as native_mod

    monkeypatch.setattr(native_mod, "native_ready", fake_ready)
    assert not dispatch.native_kernel_usable(1000, NATIVE_DISPATCH_MAX_DIM + 1)
    assert not dispatch.native_kernel_usable(NATIVE_DISPATCH_MAX_NODES + 1, 4)
    assert probes == []  # shape gates never reached the probe
    assert not dispatch.native_kernel_usable(1000, 4)
    assert probes == [True]  # auto path probes with warn=True


def test_jit_slot_guarded(broken_native_build):
    """get_jit_kernel raises KernelUnavailableError naming the remedy
    when the native loader cannot build the C walker, and keeps failing
    fast on later calls; auto dispatch falls back to the python kernels."""
    from repro.core.dispatch import get_jit_kernel
    from repro.exceptions import KernelUnavailableError, NativeBuildError

    for _ in range(2):
        with pytest.raises(
            KernelUnavailableError, match="no compiled walk kernel"
        ) as info:
            get_jit_kernel()
        assert isinstance(info.value.__cause__, NativeBuildError)
    assert "C toolchain" in str(info.value)
    assert broken_native_build.build_info()["status"] == "failed"
    for width in (1, AUTO_BATCH_MIN_LANES):
        assert select_kernel(n_nodes=10**6, d=4, batch_width=width) != "native"


def test_jit_kernel_is_the_native_walker():
    """On a host where the C walker loads, get_jit_kernel hands back the
    one native entry, the lane walker the engine crosses through — there
    is no other compiled walker."""
    from repro.core.native import native_ready, native_walk_lanes

    if not native_ready():
        pytest.skip("native kernel not buildable on this host")
    assert dispatch.get_jit_kernel() is native_walk_lanes
