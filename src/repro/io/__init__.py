"""Persistence: relations to npz, built indexes to mmap snapshots."""

from repro.io.serialize import load_relation, save_relation
from repro.io.snapshot import (
    SNAPSHOT_MAGIC,
    SNAPSHOT_VERSION,
    SnapshotIndex,
    open_snapshot,
    read_manifest,
    save_snapshot,
    snapshot_nbytes,
)

__all__ = [
    "SNAPSHOT_MAGIC",
    "SNAPSHOT_VERSION",
    "SnapshotIndex",
    "load_relation",
    "open_snapshot",
    "read_manifest",
    "save_relation",
    "snapshot_nbytes",
    "save_snapshot",
]
