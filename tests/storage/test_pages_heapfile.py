"""Slotted pages, the file-backed heap, and disk-resident execution."""

import numpy as np
import pytest

from repro.core import DLIndex, DLPlusIndex
from repro.data import generate
from repro.exceptions import InvalidQueryError, ReproError
from repro.relation import top_k_bruteforce
from repro.storage import (
    DiskResidentIndex,
    HeapFile,
    SlottedPage,
    layer_clustered_placement,
)
from repro.storage.pages import DEFAULT_PAGE_SIZE


# --------------------------------------------------------------------- #
# SlottedPage
# --------------------------------------------------------------------- #

def test_page_roundtrip(rng):
    page = SlottedPage(d=3)
    rows = rng.random((10, 3))
    for i, row in enumerate(rows):
        page.append(100 + i, row)
    restored = SlottedPage.from_bytes(page.to_bytes())
    assert restored.count == 10
    assert restored.tuple_ids == page.tuple_ids
    np.testing.assert_allclose(np.vstack(restored.values), rows)


def test_page_capacity_and_full():
    page = SlottedPage(d=2, page_size=256)
    capacity = page.capacity
    assert capacity == (256 - 8) // (8 + 16)
    for i in range(capacity):
        page.append(i, np.array([0.1, 0.2]))
    assert page.full
    with pytest.raises(ReproError, match="full"):
        page.append(99, np.array([0.1, 0.2]))


def test_page_lookup():
    page = SlottedPage(d=2)
    page.append(7, np.array([0.3, 0.4]))
    np.testing.assert_allclose(page.lookup(7), [0.3, 0.4])
    assert page.lookup(8) is None


def test_page_serialized_size_is_exact():
    page = SlottedPage(d=4)
    assert len(page.to_bytes()) == DEFAULT_PAGE_SIZE


def test_page_validation():
    with pytest.raises(ReproError):
        SlottedPage(d=0)
    with pytest.raises(ReproError):
        SlottedPage(d=100, page_size=64)
    page = SlottedPage(d=2)
    with pytest.raises(ReproError):
        page.append(0, np.array([0.1, 0.2, 0.3]))
    with pytest.raises(ReproError, match="bad magic"):
        SlottedPage.from_bytes(b"\x00" * DEFAULT_PAGE_SIZE)
    with pytest.raises(ReproError, match="bytes"):
        SlottedPage.from_bytes(b"\x00" * 10)


# --------------------------------------------------------------------- #
# HeapFile
# --------------------------------------------------------------------- #

@pytest.fixture()
def heap_setup(tmp_path, rng):
    relation = generate("IND", 300, 3, seed=7)
    heap = HeapFile.write(
        relation, tmp_path / "rel.heap", page_size=512, buffer_capacity=4
    )
    return relation, heap


def test_heapfile_reads_back_every_tuple(heap_setup):
    relation, heap = heap_setup
    for tuple_id in range(0, relation.n, 17):
        np.testing.assert_allclose(
            heap.read_tuple(tuple_id), relation.tuple(tuple_id)
        )


def test_heapfile_counts_real_reads(heap_setup):
    relation, heap = heap_setup
    heap.reset_io_counters()
    heap.read_tuple(0)
    assert heap.file_reads == 1
    heap.read_tuple(0)  # same page: buffer hit
    assert heap.file_reads == 1
    assert heap.buffer.hits == 1


def test_heapfile_file_exists_with_expected_size(heap_setup, tmp_path):
    relation, heap = heap_setup
    assert heap.path.stat().st_size == heap.num_pages * 512


def test_heapfile_unknown_tuple(heap_setup):
    _, heap = heap_setup
    with pytest.raises(ReproError, match="not in this heap"):
        heap.read_tuple(10_000)


def test_heapfile_bad_storage_order(tmp_path):
    relation = generate("IND", 10, 2, seed=1)
    with pytest.raises(ReproError, match="storage order"):
        HeapFile.write(relation, tmp_path / "x.heap", np.array([0, 1]))


# --------------------------------------------------------------------- #
# Disk-resident execution
# --------------------------------------------------------------------- #

def test_disk_resident_query_matches_memory(tmp_path, rng):
    relation = generate("ANT", 400, 3, seed=9)
    index = DLIndex(relation).build()
    heap = HeapFile.write(relation, tmp_path / "r.heap", buffer_capacity=8)
    disk = DiskResidentIndex(index, heap)
    for trial in range(5):
        w = np.clip(rng.dirichlet(np.ones(3)), 1e-6, None)
        result = disk.query(w, 10)
        _, ref = top_k_bruteforce(relation.matrix, w / w.sum(), 10)
        np.testing.assert_allclose(result.scores, ref, atol=1e-12)
        # Every scored tuple came through the buffer: reads + hits add up.
        assert result.file_reads + result.buffer_hits >= result.tuples_evaluated
        if trial == 0:
            assert result.file_reads >= 1  # cold buffer must touch the file
        assert result.tuples_evaluated >= 10


def test_clustered_heap_needs_fewer_reads(tmp_path, rng):
    relation = generate("ANT", 800, 3, seed=10)
    index = DLIndex(relation).build()
    sequence = [
        sublayer
        for sublayers in index.blueprint.fine_layers
        for sublayer in sublayers
    ]
    heap_row = HeapFile.write(
        relation, tmp_path / "row.heap", page_size=512, buffer_capacity=4
    )
    heap_clustered = HeapFile.write(
        relation,
        tmp_path / "clu.heap",
        layer_clustered_placement(sequence, relation.n),
        page_size=512,
        buffer_capacity=4,
    )
    reads_row = reads_clustered = 0
    for _ in range(8):
        w = np.clip(rng.dirichlet(np.ones(3)), 1e-6, None)
        reads_row += DiskResidentIndex(index, heap_row).query(w, 10).file_reads
        reads_clustered += (
            DiskResidentIndex(index, heap_clustered).query(w, 10).file_reads
        )
    assert reads_clustered < reads_row


def test_disk_resident_rejects_mismatches(tmp_path):
    relation = generate("IND", 50, 2, seed=2)
    other = generate("IND", 50, 3, seed=2)
    index = DLIndex(relation).build()
    heap3 = HeapFile.write(other, tmp_path / "o.heap")
    with pytest.raises(ReproError, match="dimensionality"):
        DiskResidentIndex(index, heap3)
    from repro.baselines import ScanIndex

    scan = ScanIndex(relation).build()
    heap2 = HeapFile.write(relation, tmp_path / "r.heap")
    with pytest.raises(ReproError, match="gated layer"):
        DiskResidentIndex(scan, heap2)


def test_disk_resident_with_zero_layer(tmp_path):
    relation = generate("IND", 300, 3, seed=11)
    index = DLPlusIndex(relation).build()
    heap = HeapFile.write(relation, tmp_path / "z.heap")
    result = DiskResidentIndex(index, heap).query(np.ones(3) / 3, 5)
    _, ref = top_k_bruteforce(relation.matrix, np.ones(3) / 3, 5)
    np.testing.assert_allclose(result.scores, ref, atol=1e-12)


@pytest.mark.parametrize(
    "k, served",
    [
        (2.5, False),
        (True, False),
        (np.True_, False),
        (np.int64(3), True),
        (3.0, True),
    ],
    ids=["2.5", "True", "np.True_", "np.int64", "3.0"],
)
def test_disk_resident_query_parses_k(tmp_path, k, served):
    """Disk execution parses k like every other entry point."""
    relation = generate("IND", 60, 2, seed=3)
    index = DLIndex(relation).build()
    heap = HeapFile.write(relation, tmp_path / "k.heap", buffer_capacity=4)
    disk = DiskResidentIndex(index, heap)
    w = np.array([0.3, 0.7])
    if not served:
        with pytest.raises(InvalidQueryError, match="must be an integer"):
            disk.query(w, k)
        return
    result = disk.query(w, k)
    expected = index.query(w, 3)
    assert result.ids.tobytes() == expected.ids.tobytes()
    assert result.scores.tobytes() == expected.scores.tobytes()
