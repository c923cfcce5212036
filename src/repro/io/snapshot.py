"""Zero-copy mmap snapshots of built indexes (the memory-tiered format).

The CSR freeze reduced every index to a handful of flat numpy arrays; a
*snapshot* persists exactly those arrays back-to-back in one raw data
file, next to a small JSON manifest recording each array's byte offset::

    snapshot/
      MANIFEST.json    magic, version, scalars, {offset, nbytes,
                       dtype, shape} per array
      data.bin         all arrays, each starting 64-byte aligned

:func:`open_snapshot` maps ``data.bin`` **once** with ``mmap`` and carves
the arrays out as views at their manifest offsets: opening costs one file
handle plus one JSON parse regardless of ``n`` — no per-array header
reads, no deserialization — and **N processes serving the same snapshot
share one page-cache copy of the index**.  Per-process RSS stays flat as
workers are added, and restart/failover is an ``open()`` instead of a
rebuild.  Every offset is padded to a 64-byte boundary so mmap'd rows
stay aligned for vector loads (the mapping itself is page-aligned).

Seed selectors are stored as arrays, not objects.  Static seeds are an
array; the only stateful selector the builders install — the 2-D
weight-range binary search — is reconstructed from its two chain arrays
(breakpoints are recomputed deterministically).  Unknown selector types
are rejected at save time.

The data file holds raw numbers only (no pickled objects anywhere), so
a corrupt or malicious snapshot can fail loudly but cannot execute code.
:func:`open_snapshot` checks everything a kernel reads before any kernel
sees it, and raises :class:`~repro.exceptions.SerializationError` naming
the offending array: every manifest offset and extent lies inside the
mapped file (a truncated ``data.bin`` raises instead of SIGBUS-ing on
first touch), every per-node array has one entry per node, each CSR row
pointer runs monotonically from 0 to its index array's length, every node
id, seed and chain id is in range, no static seed repeats, the gate
counts agree with the edges, and every value is finite.  The native walker
never bounds-checks a node id, so these checks are what keep a crafted
snapshot from reading outside its arrays.  They do not detect an in-range
value flipped to another in-range value; such a snapshot opens and may
answer wrongly.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.core.base import TopKIndex
from repro.core.structure import LayerStructure
from repro.core.zero_layer import PartitionSeedSelector
from repro.exceptions import GeometryError, SerializationError
from repro.geometry.weight_ranges import WeightRangePartition
from repro.relation import Relation, Schema

#: Format marker stored in every snapshot manifest.
SNAPSHOT_MAGIC = "repro-snapshot"
#: Bumped on any layout change; readers reject newer majors.
#: v1: structure arrays + a block bound table (``bound_block_*``).
#: v2: adds a sublayer bound table (``bound_sublayer_*``).
#: v3: structure arrays only.  No kernel reads the bound tables any
#: more, so a v1/v2 file opens with its ``bound_*`` blobs ignored:
#: never mapped, never read.
SNAPSHOT_VERSION = 3
#: Format versions this reader opens (newer versions are rejected).
SNAPSHOT_COMPAT_VERSIONS = (1, 2, 3)
#: Manifest filename inside the snapshot directory.
MANIFEST_NAME = "MANIFEST.json"
#: Data filename inside the snapshot directory (all arrays, one file).
DATA_NAME = "data.bin"
#: Array starts are padded to this boundary inside the data file.
_ALIGN = 64

#: LayerStructure attribute -> blob name for the plain array fields.
_STRUCTURE_BLOBS = (
    "values",
    "forall_parent_count",
    "forall_indptr",
    "forall_indices",
    "exists_gated",
    "exists_indptr",
    "exists_indices",
    "static_seeds",
    "coarse_levels",
    "fine_levels",
)
#: Blobs holding node or row ids, cast to ``np.intp`` at open.
_ID_BLOBS = (
    "forall_indptr",
    "forall_indices",
    "exists_indptr",
    "exists_indices",
    "static_seeds",
    "chain_ids",
)


class SnapshotIndex(TopKIndex):
    """A built index backed by an mmap'd snapshot directory.

    Behaves exactly like the index it was saved from — same
    :class:`~repro.core.structure.LayerStructure` arrays (byte-identical),
    same kernels, same bitwise answers — but its arrays are read-only views
    into the page cache rather than private heap copies.
    """

    name = "snapshot"

    def __init__(
        self,
        relation: Relation,
        structure: LayerStructure,
        *,
        algorithm: str,
        path: str | Path,
    ) -> None:
        super().__init__(relation)
        self.structure = structure
        self.algorithm = algorithm
        self.path = Path(path)
        self.name = f"snapshot[{algorithm}]"
        self.build_stats.algorithm = self.name
        self._built = True
        self.version = 1

    def _build(self) -> None:
        """Snapshots are frozen; (re)build is a no-op."""

    def _query(self, weights, k, counter):
        from repro.core.query import process_top_k

        return process_top_k(self.structure, weights, k, counter)


def _seed_selector_spec(structure: LayerStructure) -> tuple[dict, dict]:
    """``(manifest_entry, extra_blobs)`` describing the seed selector."""
    selector = structure.seed_selector
    if selector is None:
        return {"type": "static"}, {}
    if isinstance(selector, PartitionSeedSelector):
        partition = selector.partition
        return (
            {"type": "weight_range"},
            {
                "chain_points": np.asarray(partition.chain_points, dtype=np.float64),
                "chain_ids": np.asarray(partition.chain_ids, dtype=np.intp),
            },
        )
    raise SerializationError(
        f"cannot snapshot index with seed selector {type(selector).__name__}: "
        "only static seeds and the 2-D weight-range selector have a "
        "snapshot representation"
    )


def save_snapshot(index: TopKIndex, path: str | Path) -> Path:
    """Write a built index as an mmap-openable snapshot directory.

    ``index`` must expose a frozen :class:`LayerStructure` (DL/DL+ and the
    gate-graph baselines all do); it is built first if needed.  Returns the
    snapshot directory path.  Overwrites an existing snapshot at ``path``
    atomically enough for our purposes (manifest is written last, so a
    partial snapshot has no manifest and is rejected by the opener).
    """
    if not index._built:
        index.build()
    if isinstance(index, SnapshotIndex):
        root = Path(path)
        if root.resolve() == index.path.resolve():
            # Re-snapshotting an open snapshot over itself would truncate
            # the very blobs its arrays are mapped from; it is also a
            # no-op — the directory already holds these bytes.
            return root
    structure = getattr(index, "structure", None)
    if not isinstance(structure, LayerStructure):
        raise SerializationError(
            f"{type(index).__name__} does not expose a LayerStructure; "
            "only gate-graph indexes can be snapshotted"
        )
    selector_entry, selector_blobs = _seed_selector_spec(structure)

    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    stale = root / MANIFEST_NAME
    if stale.exists():
        stale.unlink()  # invalidate any previous snapshot before rewriting

    blobs: dict[str, np.ndarray] = {
        name: np.asarray(getattr(structure, name)) for name in _STRUCTURE_BLOBS
    }
    blobs.update(selector_blobs)

    arrays = {}
    with (root / DATA_NAME).open("wb") as handle:
        for name, array in blobs.items():
            array = np.ascontiguousarray(array)
            pad = (-handle.tell()) % _ALIGN
            if pad:
                handle.write(b"\x00" * pad)
            arrays[name] = {
                "offset": handle.tell(),
                "nbytes": int(array.nbytes),
                "dtype": array.dtype.str,
                "shape": list(array.shape),
            }
            handle.write(array.tobytes())

    manifest = {
        "magic": SNAPSHOT_MAGIC,
        "version": SNAPSHOT_VERSION,
        "algorithm": getattr(index, "algorithm", None) or index.name,
        "attributes": list(index.relation.schema.attributes),
        "n_real": int(structure.n_real),
        "n_nodes": int(structure.n_nodes),
        "d": int(index.relation.d),
        "num_coarse_layers": int(structure.num_coarse_layers),
        "complete": bool(structure.complete),
        "seed_selector": selector_entry,
        "arrays": arrays,
    }
    with (root / MANIFEST_NAME).open("w") as handle:
        json.dump(manifest, handle, indent=1, sort_keys=True)
    return root


def read_manifest(path: str | Path) -> dict:
    """Parse and validate a snapshot directory's manifest."""
    root = Path(path)
    manifest_path = root / MANIFEST_NAME
    try:
        with manifest_path.open("r") as handle:
            manifest = json.load(handle)
    except OSError as exc:
        raise SerializationError(
            f"cannot open snapshot at {root}: {exc}"
        ) from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SerializationError(
            f"snapshot manifest at {manifest_path} is corrupt: {exc}"
        ) from exc
    if not isinstance(manifest, dict) or manifest.get("magic") != SNAPSHOT_MAGIC:
        raise SerializationError(f"{root} is not a repro snapshot")
    if manifest.get("version") not in SNAPSHOT_COMPAT_VERSIONS:
        raise SerializationError(
            f"snapshot {root} has format version {manifest.get('version')!r}; "
            f"this reader supports versions {SNAPSHOT_COMPAT_VERSIONS}"
        )
    if not isinstance(manifest.get("arrays"), dict):
        raise SerializationError(f"snapshot {root} manifest lacks an array table")
    return manifest


def _map_data(root: Path, *, mmap: bool) -> np.ndarray:
    """Open the snapshot data file as one flat byte buffer (mapped or read)."""
    data_path = root / DATA_NAME
    try:
        if mmap:
            buffer = np.memmap(data_path, dtype=np.uint8, mode="r")
        else:
            buffer = np.fromfile(data_path, dtype=np.uint8)
            buffer.setflags(write=False)
    except (OSError, ValueError) as exc:
        raise SerializationError(
            f"snapshot data file {data_path} is unreadable: {exc}"
        ) from exc
    return buffer


def _carve_blob(
    root: Path, manifest: dict, buffer: np.ndarray, name: str
) -> np.ndarray:
    """A zero-copy view of one array inside the mapped data buffer.

    Offsets and extents come from an untrusted manifest, so everything is
    bounds- and consistency-checked *before* the view exists: a lying or
    truncated snapshot raises here, not mid-query.
    """
    entry = manifest["arrays"].get(name)
    if entry is None:
        raise SerializationError(f"snapshot {root} is missing array {name!r}")
    try:
        offset = int(entry["offset"])
        nbytes = int(entry["nbytes"])
        dtype = np.dtype(str(entry["dtype"]))
        shape = tuple(int(dim) for dim in entry["shape"])
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(
            f"snapshot {root}: array entry {name!r} is malformed: {exc}"
        ) from exc
    expected = dtype.itemsize * int(np.prod(shape, dtype=np.int64))
    if nbytes != expected:
        raise SerializationError(
            f"snapshot {root}: array {name!r} declares {nbytes} bytes but "
            f"dtype {dtype.str} x shape {list(shape)} needs {expected}"
        )
    if offset < 0 or offset % dtype.itemsize or offset + nbytes > buffer.size:
        raise SerializationError(
            f"snapshot {root}: array {name!r} at [{offset}, {offset + nbytes}) "
            f"falls outside the {buffer.size}-byte data file (truncated "
            "snapshot?)"
        )
    return np.asarray(buffer[offset : offset + nbytes]).view(dtype).reshape(shape)


def _as_index_dtype(array: np.ndarray) -> np.ndarray:
    """Cast id arrays to the platform ``np.intp`` (copying only off-platform)."""
    if array.dtype == np.intp:
        return array
    return array.astype(np.intp)


def _check_arrays(root: Path, arrays: dict[str, np.ndarray], n_real: int) -> None:
    """Reject arrays that would send a kernel outside its buffers.

    ``arrays`` holds the carved blobs, id arrays already cast to
    ``np.intp``.  The walkers index ``values`` and the gate state by the
    ids these arrays hold, without checking them, so every id must name a
    row that exists, and every value must be finite.
    """

    def fail(name: str, problem: str) -> None:
        raise SerializationError(f"snapshot {root}: array {name!r} {problem}")

    def check_range(name: str, low: int, high: int) -> None:
        array = arrays[name]
        if array.size and (array.min() < low or array.max() >= high):
            fail(name, f"holds ids outside [{low}, {high})")

    values = arrays["values"]
    if values.ndim != 2:
        fail("values", f"has shape {list(values.shape)}, not (nodes, d)")
    n_nodes = values.shape[0]
    if not 0 <= n_real <= n_nodes:
        fail("values", f"holds {n_nodes} nodes; n_real={n_real} is out of range")
    # A NaN compares false against every score, so the walkers would
    # silently drop its tuple from every answer.
    if not np.isfinite(values).all():
        fail("values", "holds a value that is not finite")
    per_node = ("forall_parent_count", "exists_gated", "coarse_levels", "fine_levels")
    for name in per_node:
        if arrays[name].shape != (n_nodes,):
            fail(name, f"has shape {list(arrays[name].shape)}, not [{n_nodes}]")
    if arrays["exists_gated"].dtype != np.bool_:
        fail("exists_gated", f"has dtype {arrays['exists_gated'].dtype}, not bool")
    for name in ("forall_indices", "exists_indices", "static_seeds"):
        if arrays[name].ndim != 1:
            fail(name, "is not a vector")
    for kind in ("forall", "exists"):
        indptr, indices = arrays[f"{kind}_indptr"], arrays[f"{kind}_indices"]
        if (
            indptr.shape != (n_nodes + 1,)
            or indptr[0] != 0
            or indptr[-1] != indices.shape[0]
            or np.any(indptr[1:] < indptr[:-1])
        ):
            fail(
                f"{kind}_indptr",
                f"is not a non-decreasing [{n_nodes + 1}] row pointer from 0 "
                f"to {indices.shape[0]}",
            )
        check_range(f"{kind}_indices", 0, n_nodes)
    check_range("static_seeds", 0, n_nodes)
    # Each seed is pushed once per occurrence: repeats could overflow the
    # walker's n_nodes-slot heap.
    if np.unique(arrays["static_seeds"]).size != arrays["static_seeds"].size:
        fail("static_seeds", "repeats a seed")
    if "chain_ids" in arrays:
        check_range("chain_ids", 0, n_real)
    # The gate state counts down from these: they must match the edges.
    counts = np.bincount(arrays["forall_indices"], minlength=n_nodes)
    if not np.array_equal(counts, arrays["forall_parent_count"]):
        fail("forall_parent_count", "disagrees with forall_indices")
    gated = np.bincount(arrays["exists_indices"], minlength=n_nodes) > 0
    if not np.array_equal(gated, arrays["exists_gated"]):
        fail("exists_gated", "disagrees with exists_indices")


def open_snapshot(path: str | Path, *, mmap: bool = True) -> SnapshotIndex:
    """Open a snapshot directory as a ready-to-query :class:`SnapshotIndex`.

    With ``mmap=True`` (the default) the data file is mapped once and
    every array is a read-only view at its manifest offset — no bytes are
    copied at open time, and pages are faulted in lazily as queries touch
    them.  ``mmap=False`` reads the data file into private memory (useful
    when the snapshot will be replaced while open).  The structure is
    checked before it is returned (see the module docstring): ``values``,
    the id arrays and gate counts are each read once.  The ``bound_*``
    blobs a v1 or v2 snapshot carries are ignored.
    """
    root = Path(path)
    manifest = read_manifest(root)
    try:
        n_real = int(manifest["n_real"])
        n_nodes = int(manifest["n_nodes"])
        num_coarse_layers = int(manifest["num_coarse_layers"])
        complete = bool(manifest["complete"])
        algorithm = str(manifest["algorithm"])
        attributes = tuple(str(a) for a in manifest["attributes"])
        selector_type = (manifest.get("seed_selector") or {"type": "static"})["type"]
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(
            f"snapshot {root}: manifest field missing or malformed: {exc!r}"
        ) from exc
    buffer = _map_data(root, mmap=mmap)

    names = _STRUCTURE_BLOBS
    if selector_type == "weight_range":
        names += ("chain_points", "chain_ids")
    elif selector_type != "static":
        raise SerializationError(
            f"snapshot {root} names unknown seed selector {selector_type!r}"
        )
    arrays = {name: _carve_blob(root, manifest, buffer, name) for name in names}
    for name in _ID_BLOBS:
        if name in arrays:
            arrays[name] = _as_index_dtype(arrays[name])
    _check_arrays(root, arrays, n_real)

    if selector_type == "weight_range":
        # Chain arrays are tiny: materialize them and rebuild the partition
        # (breakpoints recompute deterministically from the points).
        try:
            partition = WeightRangePartition(
                np.array(arrays["chain_points"]), np.array(arrays["chain_ids"])
            )
        except GeometryError as exc:
            raise SerializationError(
                f"snapshot {root}: array 'chain_points' is not a convex chain: {exc}"
            ) from exc
        seed_selector = PartitionSeedSelector(partition)
    else:
        seed_selector = None

    values = arrays["values"]
    structure = LayerStructure(
        **{name: arrays[name] for name in _STRUCTURE_BLOBS},
        n_real=n_real,
        seed_selector=seed_selector,
        num_coarse_layers=num_coarse_layers,
        complete=complete,
    )
    if structure.n_nodes != n_nodes:
        raise SerializationError(
            f"snapshot {root}: values blob holds {structure.n_nodes} nodes, "
            f"manifest says {n_nodes}"
        )

    # The relation is a zero-copy view of the real rows of the mapped
    # values blob.  The trusted constructor skips the normal constructor's
    # finiteness and domain scans: _check_arrays has already scanned values.
    relation = Relation.wrap_unchecked(values[:n_real], Schema(attributes))
    return SnapshotIndex(
        relation,
        structure,
        algorithm=algorithm,
        path=root,
    )


def snapshot_nbytes(path: str | Path) -> int:
    """Total on-disk size of a snapshot directory (manifest + data file)."""
    root = Path(path)
    read_manifest(root)  # reject non-snapshots before reporting a size
    return (
        (root / MANIFEST_NAME).stat().st_size + (root / DATA_NAME).stat().st_size
    )


__all__ = [
    "DATA_NAME",
    "MANIFEST_NAME",
    "SNAPSHOT_MAGIC",
    "SNAPSHOT_COMPAT_VERSIONS",
    "SNAPSHOT_VERSION",
    "SnapshotIndex",
    "open_snapshot",
    "read_manifest",
    "save_snapshot",
    "snapshot_nbytes",
]
