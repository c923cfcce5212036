"""Relation and index persistence (indexes persist as snapshots)."""

import io
import json
import zipfile

import numpy as np
import pytest

from repro.baselines import DGPlusIndex
from repro.core import DLIndex, DLPlusIndex
from repro.data import generate, toy_hotels
from repro.exceptions import SerializationError
from repro.io import load_relation, open_snapshot, save_relation, save_snapshot
from repro.io.snapshot import MANIFEST_NAME


def test_relation_roundtrip(tmp_path):
    relation = generate("ANT", 100, 3, seed=1)
    path = tmp_path / "rel.npz"
    save_relation(relation, path)
    loaded = load_relation(path)
    np.testing.assert_array_equal(loaded.matrix, relation.matrix)
    assert loaded.schema.attributes == relation.schema.attributes


def test_relation_bad_file(tmp_path):
    path = tmp_path / "junk.npz"
    path.write_bytes(b"not an npz")
    with pytest.raises(SerializationError):
        load_relation(path)


@pytest.mark.parametrize("cls", [DLIndex, DLPlusIndex, DGPlusIndex])
def test_index_roundtrip_same_answers(cls, tmp_path, rng):
    relation = generate("IND", 150, 3, seed=2)
    index = cls(relation).build()
    loaded = open_snapshot(save_snapshot(index, tmp_path / "index.snapshot"))
    assert loaded.algorithm == index.name
    for _ in range(3):
        w = rng.dirichlet(np.ones(3))
        a = index.query(w, 5)
        b = loaded.query(w, 5)
        np.testing.assert_array_equal(a.ids, b.ids)
        assert a.cost == b.cost


def test_index_roundtrip_2d_chain_zero_layer(tmp_path):
    """The 2-D DL+ seed selector must survive a snapshot."""
    index = DLPlusIndex(toy_hotels()).build()
    loaded = open_snapshot(save_snapshot(index, tmp_path / "chain.snapshot"))
    result = loaded.query(np.array([0.5, 0.5]), 1)
    assert result.cost == 1


def test_save_unbuilt_index_builds_first(tmp_path):
    index = DLIndex(generate("IND", 50, 2, seed=3))
    save_snapshot(index, tmp_path / "i.snapshot")
    assert index._built


def test_index_bad_file(tmp_path):
    """A file where a snapshot directory belongs is rejected."""
    path = tmp_path / "junk.snapshot"
    path.write_bytes(b"garbage")
    with pytest.raises(SerializationError):
        open_snapshot(path)


def test_index_wrong_payload(tmp_path):
    """A manifest that names another format is rejected."""
    root = save_snapshot(DLIndex(generate("IND", 50, 2, seed=3)), tmp_path / "wrong")
    manifest = json.loads((root / MANIFEST_NAME).read_text())
    manifest["magic"] = "other"
    (root / MANIFEST_NAME).write_text(json.dumps(manifest))
    with pytest.raises(SerializationError, match="not a repro"):
        open_snapshot(root)


@pytest.mark.parametrize("cls", [DLIndex, DLPlusIndex])
def test_csr_structure_roundtrip_exact(cls, tmp_path, rng):
    """Regression: save/open must preserve every CSR field of the frozen
    structure byte-for-byte, with exact dtypes — the vectorized kernel's
    fancy indexing silently degrades (or breaks on 32-bit indptr math) if a
    round-trip ever widens/narrows them."""
    relation = generate("ANT", 200, 3, seed=8)
    index = cls(relation).build()
    structure = index.structure
    loaded = open_snapshot(save_snapshot(index, tmp_path / "csr.snapshot"))
    restored = loaded.structure

    for name in (
        "forall_indptr",
        "forall_indices",
        "exists_indptr",
        "exists_indices",
    ):
        original = getattr(structure, name)
        copy = getattr(restored, name)
        assert copy.dtype == np.intp, f"{name} lost its np.intp dtype"
        assert copy.tobytes() == original.tobytes(), f"{name} changed bytes"
    for name in ("coarse_levels", "fine_levels"):
        original = getattr(structure, name)
        copy = getattr(restored, name)
        assert copy.dtype == original.dtype == np.int64
        np.testing.assert_array_equal(copy, original)
    # The layer-level views over those arrays still agree per node.
    for node in (0, 1, structure.n_real - 1):
        assert restored.coarse_of.get(node) == structure.coarse_of.get(node)
        assert restored.fine_of.get(node) == structure.fine_of.get(node)

    # The fused gate-state template is built from the mapped arrays on
    # first use, identically (same dtype, same values).
    template = structure.gate_state_template()
    assert restored._gate_state is None
    rebuilt = restored.gate_state_template()
    assert rebuilt.dtype == template.dtype
    np.testing.assert_array_equal(rebuilt, template)

    # And the opened index answers bitwise-identically.
    for _ in range(3):
        w = rng.dirichlet(np.ones(3))
        a = index.query(w, 12)
        b = loaded.query(w, 12)
        np.testing.assert_array_equal(a.ids, b.ids)
        assert a.scores.tobytes() == b.scores.tobytes()
        assert (a.counter.real, a.counter.pseudo) == (b.counter.real, b.counter.pseudo)


def test_relation_roundtrip_without_suffix(tmp_path):
    """Regression: np.savez_compressed silently appends ``.npz``, so a
    suffix-less path used to save to ``rel.npz`` but load from ``rel`` and
    raise.  Both sides now normalize to the same on-disk name."""
    relation = generate("COR", 80, 3, seed=4)
    path = tmp_path / "rel"  # no .npz suffix
    save_relation(relation, path)
    assert not path.exists()
    assert path.with_name("rel.npz").exists()
    loaded = load_relation(path)
    np.testing.assert_array_equal(loaded.matrix, relation.matrix)
    assert loaded.schema.attributes == relation.schema.attributes


def test_relation_roundtrip_foreign_suffix(tmp_path):
    """A non-.npz suffix gets the same normalization (save and load agree)."""
    relation = generate("IND", 60, 2, seed=5)
    path = tmp_path / "rel.dat"
    save_relation(relation, path)
    loaded = load_relation(path)
    np.testing.assert_array_equal(loaded.matrix, relation.matrix)


def test_relation_stores_names_without_objects(tmp_path):
    """Attribute names are a unicode array, so the file opens without
    pickle."""
    relation = generate("IND", 20, 2, seed=9)
    path = tmp_path / "rel.npz"
    save_relation(relation, path)
    with np.load(path, allow_pickle=False) as data:
        assert data["attributes"].dtype.kind == "U"


def _npy_with_pickle(pickled: bytes) -> bytes:
    """An ``.npy`` object-array entry whose payload is ``pickled``."""
    buffer = io.BytesIO()
    header = {"descr": "|O", "fortran_order": False, "shape": (1,)}
    np.lib.format.write_array_header_1_0(buffer, header)
    return buffer.getvalue() + pickled


def test_relation_with_pickled_names_raises_without_running_code(tmp_path):
    """A crafted ``attributes`` entry that calls ``open(marker, "w")`` when
    unpickled must be refused before it is unpickled."""
    marker = tmp_path / "PWNED"
    payload = f"cbuiltins\nopen\n(V{marker}\nVw\ntR.".encode()
    matrix = io.BytesIO()
    np.save(matrix, np.full((3, 2), 0.5))
    path = tmp_path / "crafted.npz"
    with zipfile.ZipFile(path, "w") as archive:
        archive.writestr("matrix.npy", matrix.getvalue())
        archive.writestr("attributes.npy", _npy_with_pickle(payload))
    with pytest.raises(SerializationError):
        load_relation(path)
    assert not marker.exists()
