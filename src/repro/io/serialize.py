"""Saving and loading relations.

A relation round-trips through ``.npz``: the matrix plus the attribute
names as a unicode array.  Built indexes persist as mmap snapshots
(:mod:`repro.io.snapshot`).  Neither format holds pickled objects, and
:func:`load_relation` opens with ``allow_pickle=False``, so a crafted file
can fail to load but cannot run code.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.exceptions import SerializationError
from repro.relation import Relation, Schema


def _npz_path(path: str | Path) -> Path:
    """Normalize a relation path to its on-disk ``.npz`` name.

    ``np.savez_compressed("foo")`` silently writes ``foo.npz``; before this
    normalization a suffix-less save/load round-trip through the *same*
    path string raised :class:`SerializationError` because the loader
    looked for ``foo``.  Appending the suffix on both sides keeps the two
    functions pointing at the same file whatever the caller passes.
    """
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_name(path.name + ".npz")
    return path


def save_relation(relation: Relation, path: str | Path) -> None:
    """Write a relation to ``.npz`` (values + attribute names)."""
    path = _npz_path(path)
    np.savez_compressed(
        path,
        matrix=relation.matrix,
        attributes=np.asarray(relation.schema.attributes, dtype=np.str_),
    )


def load_relation(path: str | Path) -> Relation:
    """Read a relation written by :func:`save_relation`.

    Files whose ``attributes`` entry is an object array (the format before
    names were stored as unicode) raise :class:`SerializationError`;
    regenerate them.
    """
    path = _npz_path(path)
    try:
        with np.load(path, allow_pickle=False) as data:
            matrix = data["matrix"]
            attributes = tuple(str(a) for a in data["attributes"])
    except (OSError, KeyError, ValueError) as exc:
        raise SerializationError(f"cannot load relation from {path}: {exc}") from exc
    return Relation(matrix, Schema(attributes), check_domain=False)
