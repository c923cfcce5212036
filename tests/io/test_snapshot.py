"""The mmap snapshot format: round-trips, corruption, cross-process sharing."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import DLIndex, DLPlusIndex
from repro.core.query import process_top_k, process_top_k_reference
from repro.data import generate, toy_hotels
from repro.exceptions import SerializationError
from repro.io import open_snapshot, save_snapshot, snapshot_nbytes
from repro.io.snapshot import (
    _STRUCTURE_BLOBS,
    DATA_NAME,
    MANIFEST_NAME,
    SnapshotIndex,
    read_manifest,
)
from repro.stats import AccessCounter
from tests.conftest import served_kernels, walk_with


def assert_same_answers(structure_a, structure_b, d, *, queries=8, seed=0):
    rng = np.random.default_rng(seed)
    for _ in range(queries):
        w = rng.dirichlet(np.ones(d))
        k = int(rng.integers(1, 21))
        ids_a, scores_a = process_top_k_reference(structure_a, w, k, AccessCounter())
        ids_b, scores_b = process_top_k(structure_b, w, k, AccessCounter())
        assert np.array_equal(ids_a, ids_b)
        assert scores_a.tobytes() == scores_b.tobytes()


@pytest.mark.parametrize("index_class", [DLIndex, DLPlusIndex], ids=["DL", "DL+"])
def test_snapshot_roundtrip_bitwise(index_class, tmp_path):
    relation = generate("IND", 300, 3, seed=4)
    index = index_class(relation).build()
    snap = open_snapshot(save_snapshot(index, tmp_path / "snap"))
    assert isinstance(snap, SnapshotIndex)
    assert snap.algorithm == index.name
    assert snap.name == f"snapshot[{index.name}]"
    np.testing.assert_array_equal(snap.relation.matrix, relation.matrix)
    assert snap.relation.schema.attributes == relation.schema.attributes
    assert_same_answers(index.structure, snap.structure, 3)


def test_snapshot_roundtrip_2d_weight_range_selector(tmp_path):
    """The 2-D chain selector is rebuilt from its chain arrays."""
    index = DLPlusIndex(toy_hotels()).build()
    snap = open_snapshot(save_snapshot(index, tmp_path / "snap"))
    assert snap.structure.seed_selector is not None
    assert_same_answers(index.structure, snap.structure, 2)
    # the reconstructed selector picks the same seeds
    rng = np.random.default_rng(1)
    for _ in range(6):
        w = rng.dirichlet(np.ones(2))
        np.testing.assert_array_equal(
            index.structure.seed_selector(w), snap.structure.seed_selector(w)
        )


def test_snapshot_arrays_are_readonly_mmap_views(tmp_path):
    index = DLIndex(generate("IND", 120, 2, seed=6)).build()
    snap = open_snapshot(save_snapshot(index, tmp_path / "snap"))
    assert not snap.structure.values.flags.writeable
    assert not snap.relation.matrix.flags.writeable
    with pytest.raises((ValueError, OSError)):
        snap.structure.values[0, 0] = 0.5


def test_snapshot_mmap_false_copies(tmp_path):
    index = DLIndex(generate("ANT", 120, 2, seed=7)).build()
    root = save_snapshot(index, tmp_path / "snap")
    snap = open_snapshot(root, mmap=False)
    assert_same_answers(index.structure, snap.structure, 2)


def test_save_unbuilt_index_builds_first(tmp_path):
    index = DLIndex(generate("IND", 80, 2, seed=3))
    save_snapshot(index, tmp_path / "snap")
    assert index._built


def test_resnapshot_over_own_directory_is_noop(tmp_path):
    """Re-snapshotting an open snapshot onto itself must not truncate the
    data file its arrays are mapped from."""
    index = DLIndex(generate("IND", 100, 2, seed=5)).build()
    root = save_snapshot(index, tmp_path / "snap")
    snap = open_snapshot(root)
    before = (root / DATA_NAME).stat().st_size
    assert save_snapshot(snap, root) == root
    assert (root / DATA_NAME).stat().st_size == before
    assert_same_answers(index.structure, snap.structure, 2)


def test_snapshot_nbytes_and_manifest(tmp_path):
    index = DLIndex(generate("IND", 100, 2, seed=5)).build()
    root = save_snapshot(index, tmp_path / "snap")
    manifest = read_manifest(root)
    assert manifest["n_real"] == 100
    assert manifest["d"] == 2
    on_disk = (root / MANIFEST_NAME).stat().st_size + (root / DATA_NAME).stat().st_size
    assert snapshot_nbytes(root) == on_disk
    # every array starts 64-byte aligned inside the data file
    for entry in manifest["arrays"].values():
        assert entry["offset"] % 64 == 0


def test_snapshot_rejects_index_without_structure(tmp_path):
    class Fake:
        _built = True
        structure = None

    with pytest.raises(SerializationError):
        save_snapshot(Fake(), tmp_path / "snap")


# --------------------------------------------------------------------- #
# Corruption taxonomy: every broken snapshot raises SerializationError,
# never SIGBUS / silent garbage.
# --------------------------------------------------------------------- #


@pytest.fixture()
def snapshot_dir(tmp_path):
    index = DLPlusIndex(generate("IND", 150, 3, seed=12)).build()
    return save_snapshot(index, tmp_path / "snap")


def _copy(snapshot_dir, tmp_path, name):
    clone = tmp_path / name
    shutil.copytree(snapshot_dir, clone)
    return clone


def _edit_manifest(root, mutate):
    manifest = json.loads((root / MANIFEST_NAME).read_text())
    mutate(manifest)
    (root / MANIFEST_NAME).write_text(json.dumps(manifest))


def test_open_missing_directory(tmp_path):
    with pytest.raises(SerializationError):
        open_snapshot(tmp_path / "nope")


def test_open_missing_manifest(snapshot_dir, tmp_path):
    root = _copy(snapshot_dir, tmp_path, "c")
    (root / MANIFEST_NAME).unlink()
    with pytest.raises(SerializationError):
        open_snapshot(root)


def test_open_corrupt_manifest_json(snapshot_dir, tmp_path):
    root = _copy(snapshot_dir, tmp_path, "c")
    (root / MANIFEST_NAME).write_text("{truncated")
    with pytest.raises(SerializationError):
        open_snapshot(root)


def test_open_wrong_magic(snapshot_dir, tmp_path):
    root = _copy(snapshot_dir, tmp_path, "c")
    _edit_manifest(root, lambda m: m.update(magic="other-format"))
    with pytest.raises(SerializationError):
        open_snapshot(root)


def test_open_future_version(snapshot_dir, tmp_path):
    root = _copy(snapshot_dir, tmp_path, "c")
    _edit_manifest(root, lambda m: m.update(version=999))
    with pytest.raises(SerializationError):
        open_snapshot(root)


def test_open_missing_data_file(snapshot_dir, tmp_path):
    root = _copy(snapshot_dir, tmp_path, "c")
    (root / DATA_NAME).unlink()
    with pytest.raises(SerializationError):
        open_snapshot(root)


def test_open_truncated_data_file(snapshot_dir, tmp_path):
    root = _copy(snapshot_dir, tmp_path, "c")
    payload = (root / DATA_NAME).read_bytes()
    (root / DATA_NAME).write_bytes(payload[: len(payload) // 3])
    with pytest.raises(SerializationError, match="outside"):
        open_snapshot(root)


def test_open_missing_array_entry(snapshot_dir, tmp_path):
    root = _copy(snapshot_dir, tmp_path, "c")
    _edit_manifest(root, lambda m: m["arrays"].pop("forall_indptr"))
    with pytest.raises(SerializationError, match="missing array"):
        open_snapshot(root)


def test_open_inconsistent_dtype_entry(snapshot_dir, tmp_path):
    """A dtype that disagrees with the recorded extent is caught before
    any view exists."""
    root = _copy(snapshot_dir, tmp_path, "c")
    _edit_manifest(root, lambda m: m["arrays"]["values"].update(dtype="<f4"))
    with pytest.raises(SerializationError):
        open_snapshot(root)


def test_open_bogus_dtype_string(snapshot_dir, tmp_path):
    root = _copy(snapshot_dir, tmp_path, "c")
    _edit_manifest(root, lambda m: m["arrays"]["values"].update(dtype="not-a-dtype"))
    with pytest.raises(SerializationError, match="malformed"):
        open_snapshot(root)


def test_open_node_count_mismatch(snapshot_dir, tmp_path):
    root = _copy(snapshot_dir, tmp_path, "c")
    _edit_manifest(root, lambda m: m.update(n_nodes=m["n_nodes"] + 1))
    with pytest.raises(SerializationError, match="nodes"):
        open_snapshot(root)


def test_open_unknown_seed_selector(snapshot_dir, tmp_path):
    root = _copy(snapshot_dir, tmp_path, "c")
    _edit_manifest(root, lambda m: m.update(seed_selector={"type": "quantum"}))
    with pytest.raises(SerializationError, match="seed selector"):
        open_snapshot(root)


def test_partial_snapshot_without_manifest_rejected(snapshot_dir, tmp_path):
    """save_snapshot writes the manifest last; a directory with only a data
    file (a crashed save) must be rejected, not half-opened."""
    root = tmp_path / "partial"
    root.mkdir()
    shutil.copy(snapshot_dir / DATA_NAME, root / DATA_NAME)
    with pytest.raises(SerializationError):
        open_snapshot(root)


# --------------------------------------------------------------------- #
# Structural checks: a correctly sized snapshot whose id arrays point
# outside their targets is rejected at open, before any kernel reads it.
# --------------------------------------------------------------------- #


@pytest.fixture()
def chain_snapshot_dir(tmp_path):
    """A 2-D DL+ snapshot: the one shape that carries ``chain_ids``."""
    index = DLPlusIndex(generate("IND", 150, 2, seed=12)).build()
    return save_snapshot(index, tmp_path / "chain")


def _id_range(manifest, name):
    """``[low, high)``: the values ``name`` may hold in this snapshot."""
    arrays = manifest["arrays"]
    if name.endswith("_indptr"):
        return 0, arrays[name.replace("indptr", "indices")]["shape"][0] + 1
    if name == "chain_ids":
        return 0, manifest["n_real"]
    return 0, manifest["n_nodes"]


def _poke(root, name, position, value):
    """Overwrite one element of blob ``name`` inside the data file."""
    entry = read_manifest(root)["arrays"][name]
    blob = np.memmap(
        root / DATA_NAME,
        dtype=np.dtype(entry["dtype"]),
        mode="r+",
        offset=entry["offset"],
        shape=tuple(entry["shape"]),
    )
    blob.reshape(-1)[position] = value
    blob.flush()
    del blob


_ID_BLOB_NAMES = (
    "forall_indptr",
    "forall_indices",
    "exists_indptr",
    "exists_indices",
    "static_seeds",
    "chain_ids",
)


@pytest.mark.parametrize("side", ["past-the-end", "negative"])
@pytest.mark.parametrize("name", _ID_BLOB_NAMES)
def test_open_rejects_out_of_range_ids(
    name, side, snapshot_dir, chain_snapshot_dir, tmp_path
):
    source = chain_snapshot_dir if name == "chain_ids" else snapshot_dir
    root = _copy(source, tmp_path, "c")
    manifest = read_manifest(root)
    low, high = _id_range(manifest, name)
    length = manifest["arrays"][name]["shape"][0]
    assert length > 0, f"fixture snapshot has an empty {name}"
    _poke(root, name, length // 2, high if side == "past-the-end" else low - 1)
    with pytest.raises(SerializationError, match=name):
        open_snapshot(root)


@pytest.mark.parametrize(
    "field", ["n_real", "num_coarse_layers", "complete", "algorithm", "attributes"]
)
def test_open_rejects_missing_manifest_field(field, snapshot_dir, tmp_path):
    root = _copy(snapshot_dir, tmp_path, "c")
    _edit_manifest(root, lambda m: m.pop(field))
    with pytest.raises(SerializationError, match=field):
        open_snapshot(root)


def test_open_rejects_chain_points_out_of_order(chain_snapshot_dir, tmp_path):
    root = _copy(chain_snapshot_dir, tmp_path, "c")
    _poke(root, "chain_points", 0, 5.0)  # first x now beyond every other
    with pytest.raises(SerializationError, match="chain_points"):
        open_snapshot(root)


def test_open_rejects_repeated_static_seed(tmp_path):
    """Every occurrence of a seed is pushed, so repeats could overflow the
    native walker's heap."""
    index = DLPlusIndex(generate("IND", 300, 4, seed=3)).build()
    root = save_snapshot(index, tmp_path / "snap")
    seeds = read_manifest(root)["arrays"]["static_seeds"]
    assert seeds["shape"][0] >= 2
    _poke(root, "static_seeds", 1, int(index.structure.static_seeds[0]))
    with pytest.raises(SerializationError, match="static_seeds"):
        open_snapshot(root)


def test_open_rejects_gate_count_disagreeing_with_edges(snapshot_dir, tmp_path):
    root = _copy(snapshot_dir, tmp_path, "c")
    counts = open_snapshot(snapshot_dir).structure.forall_parent_count
    _poke(root, "forall_parent_count", 0, int(counts[0]) + 1)
    with pytest.raises(SerializationError, match="forall_parent_count"):
        open_snapshot(root)


def test_open_rejects_exists_flag_disagreeing_with_edges(snapshot_dir, tmp_path):
    root = _copy(snapshot_dir, tmp_path, "c")
    gated = open_snapshot(snapshot_dir).structure.exists_gated
    _poke(root, "exists_gated", 0, not bool(gated[0]))
    with pytest.raises(SerializationError, match="exists_gated"):
        open_snapshot(root)


def test_open_rejects_short_per_node_array(snapshot_dir, tmp_path):
    """A per-node array one entry short would let a kernel read past it."""
    root = _copy(snapshot_dir, tmp_path, "c")

    def shorten(manifest):
        entry = manifest["arrays"]["coarse_levels"]
        entry["shape"] = [entry["shape"][0] - 1]
        entry["nbytes"] -= np.dtype(entry["dtype"]).itemsize

    _edit_manifest(root, shorten)
    with pytest.raises(SerializationError, match="coarse_levels"):
        open_snapshot(root)


@pytest.mark.parametrize("kernel", served_kernels())
def test_open_rejects_a_nan_value_every_kernel_would_drop(kernel, tmp_path):
    """A NaN in a value row used to open cleanly; every kernel then left
    its tuple out of the answer ([121, 50, 275] here) with no error."""
    index = DLPlusIndex(generate("IND", 300, 3, seed=0)).build()
    root = save_snapshot(index, tmp_path / "snap")
    w = np.array([[0.3, 0.3, 0.4]])
    [(ids, *_)] = walk_with(kernel, open_snapshot(root).structure, w, 3)
    np.testing.assert_array_equal(ids, [259, 121, 50])

    _poke(root, "values", 259 * 3, np.nan)
    with pytest.raises(SerializationError, match="values"):
        open_snapshot(root)


def test_open_rejects_an_infinite_pseudo_value(snapshot_dir, tmp_path):
    root = _copy(snapshot_dir, tmp_path, "c")
    rows, d = read_manifest(root)["arrays"]["values"]["shape"]
    assert rows > read_manifest(root)["n_real"], "fixture has no pseudo tuples"
    _poke(root, "values", rows * d - 1, np.inf)
    with pytest.raises(SerializationError, match="values"):
        open_snapshot(root)


_SEED_FLIP_CHILD = """
import sys
import numpy as np
from repro.exceptions import SerializationError
from repro.io import open_snapshot
from repro.serving import QueryEngine

try:
    snap = open_snapshot(sys.argv[1])
except SerializationError as exc:
    print("rejected:", exc)
else:
    engine = QueryEngine(snap, cache_size=0)
    engine.query(np.array([0.2, 0.5, 0.3]), 10)
    print("served")
"""


def test_flipped_static_seed_is_rejected_before_the_native_walk(tmp_path):
    """One static seed set to 10,000,000 in an otherwise valid snapshot
    used to open cleanly and crash the native walker (SIGSEGV).  The
    child process opens it and, if it opens, queries natively; a crash
    fails this test instead of killing the test run."""
    index = DLPlusIndex(generate("IND", 2000, 3, seed=1)).build()
    root = save_snapshot(index, tmp_path / "snap")
    _poke(root, "static_seeds", 0, 10_000_000)

    env = dict(os.environ)
    src = Path(__file__).resolve().parents[2] / "src"
    env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", _SEED_FLIP_CHILD, str(root)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, (proc.returncode, proc.stderr[-2000:])
    assert "rejected:" in proc.stdout and "static_seeds" in proc.stdout


# --------------------------------------------------------------------- #
# Cross-process: a second interpreter opens the snapshot and answers the
# query grid byte-identically with the exact platform dtypes.
# --------------------------------------------------------------------- #

_CHILD_SOURCE = """
import json, sys
import numpy as np
from repro.io import open_snapshot
from repro.core.query import process_top_k
from repro.stats import AccessCounter

snap = open_snapshot(sys.argv[1])
d = snap.relation.d
rng = np.random.default_rng(int(sys.argv[2]))
cells = []
for _ in range(int(sys.argv[3])):
    w = rng.dirichlet(np.ones(d))
    k = int(rng.integers(1, 21))
    ids, scores = process_top_k(snap.structure, w, k, AccessCounter())
    cells.append({
        "ids": [int(i) for i in ids],
        "score_hex": scores.tobytes().hex(),
        "ids_dtype": ids.dtype.str,
        "scores_dtype": scores.dtype.str,
    })
print(json.dumps(cells))
"""


def test_second_process_answers_bitwise(tmp_path):
    index = DLPlusIndex(generate("ANT", 250, 3, seed=21)).build()
    root = save_snapshot(index, tmp_path / "snap")

    env = dict(os.environ)
    src = Path(__file__).resolve().parents[2] / "src"
    env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD_SOURCE, str(root), "21", "10"],
        capture_output=True,
        text=True,
        check=True,
        env=env,
    )
    child_cells = json.loads(proc.stdout)

    rng = np.random.default_rng(21)
    for cell in child_cells:
        w = rng.dirichlet(np.ones(3))
        k = int(rng.integers(1, 21))
        ids, scores = process_top_k_reference(
            index.structure, w, k, AccessCounter()
        )
        assert cell["ids"] == [int(i) for i in ids]
        assert cell["score_hex"] == scores.tobytes().hex()
        assert cell["ids_dtype"] == np.dtype(np.intp).str
        assert cell["scores_dtype"] == np.dtype(np.float64).str


def test_fresh_snapshot_is_v3_without_bound_blobs(snapshot_dir):
    """Fresh snapshots are format v3: the structure arrays only."""
    from repro.io.snapshot import SNAPSHOT_VERSION

    manifest = read_manifest(snapshot_dir)
    assert manifest["version"] == SNAPSHOT_VERSION == 3
    assert not [name for name in manifest["arrays"] if name.startswith("bound_")]


# --------------------------------------------------------------------- #
# Older formats: committed v1 and v2 snapshots of one tiny DL+ index
# (IND d=3 n=60, seed 29, max_layers=4), written by the v2 writer; the
# v1 copy is its manifest downgraded to version 1 without the sublayer
# entries.  Both carry bound_* blobs, which the reader ignores.
# --------------------------------------------------------------------- #

_FIXTURES = Path(__file__).with_name("fixtures")


def _fixture_index():
    return DLPlusIndex(generate("IND", 60, 3, seed=29), max_layers=4).build()


def _assert_old_snapshot_answers_bitwise(root):
    from repro.relation import normalize_weights
    from repro.serving import QueryEngine

    snap = open_snapshot(root)
    assert not [name for name in vars(snap.structure) if "bound" in name]
    index = _fixture_index()
    for name in _STRUCTURE_BLOBS:
        fresh = np.asarray(getattr(index.structure, name))
        assert np.asarray(getattr(snap.structure, name)).tobytes() == fresh.tobytes()
    rng = np.random.default_rng(5)
    weights = rng.dirichlet(np.ones(3), size=12)
    ks = rng.integers(1, 5, size=12)
    normalized = np.stack([normalize_weights(w, 3) for w in weights])
    for kernel in served_kernels():
        old = walk_with(kernel, snap.structure, normalized, ks)
        new = walk_with(kernel, index.structure, normalized, ks)
        for row, (a, b) in enumerate(zip(old, new)):
            assert a[0].tobytes() == b[0].tobytes(), (kernel, row)
            assert a[1].tobytes() == b[1].tobytes(), (kernel, row)
            assert a[2:] == b[2:], (kernel, row)
    # The engine over the snapshot, scalar and batched, answers alike.
    old, new = QueryEngine(snap, cache_size=0), QueryEngine(index, cache_size=0)
    batch = old.query_batch(weights, ks)
    for row, (w, k) in enumerate(zip(weights, ks.tolist())):
        a, b = old.query(w, k), new.query(w, k)
        assert a.ids.tobytes() == b.ids.tobytes(), row
        assert a.scores.tobytes() == b.scores.tobytes(), row
        assert a.cost == b.cost, row
        assert batch[row].ids.tobytes() == b.ids.tobytes(), row
        assert batch[row].scores.tobytes() == b.scores.tobytes(), row


@pytest.mark.parametrize("version", [1, 2])
def test_committed_old_snapshots_carry_bound_blobs(version):
    manifest = read_manifest(_FIXTURES / f"snapshot_v{version}")
    assert manifest["version"] == version
    bound = sorted(name for name in manifest["arrays"] if name.startswith("bound_"))
    expected = ["bound_block_mins", "bound_block_of"]
    if version == 2:
        expected += ["bound_sublayer_mins", "bound_sublayer_of"]
    assert bound == sorted(expected)


def test_v1_snapshot_opens_bitwise_identically():
    """The committed v1 snapshot opens and answers bitwise like a fresh
    build under every kernel, scalar and batched."""
    _assert_old_snapshot_answers_bitwise(_FIXTURES / "snapshot_v1")


def test_v2_snapshot_opens_bitwise_identically():
    """The committed v2 snapshot opens and answers bitwise like a fresh
    build under every kernel, scalar and batched."""
    _assert_old_snapshot_answers_bitwise(_FIXTURES / "snapshot_v2")


@pytest.mark.parametrize("version", [1, 2])
def test_corrupt_bound_blobs_of_old_snapshots_are_ignored(version, tmp_path):
    """No kernel reads a v1/v2 snapshot's bound tables any more, so the
    reader never maps them: ids far out of range, NaN minima and even a
    bound entry pointing past the end of data.bin change nothing."""
    root = tmp_path / "old"
    shutil.copytree(_FIXTURES / f"snapshot_v{version}", root)
    manifest = read_manifest(root)
    for name in manifest["arrays"]:
        if name.endswith("_of"):
            _poke(root, name, 0, 10_000_000)
        elif name.startswith("bound_"):
            _poke(root, name, 0, np.nan)

    def push_past_end(manifest):
        manifest["arrays"]["bound_block_mins"]["offset"] = 1 << 40

    _edit_manifest(root, push_past_end)
    _assert_old_snapshot_answers_bitwise(root)
