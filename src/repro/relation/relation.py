"""The Relation: a dense, id-addressed tuple store over numpy.

All indexes in this library are built over a :class:`Relation`.  Tuples are
addressed by stable integer ids (row positions of the original matrix), so an
index can hand back ids and the caller can recover full tuples, regardless of
how the index shuffled or partitioned rows internally.
"""

from __future__ import annotations

import csv
from collections.abc import Iterable, Sequence
from pathlib import Path

import numpy as np

from repro.exceptions import EmptyRelationError, SchemaError
from repro.relation.schema import Schema


class Relation:
    """An immutable relation ``R`` of ``n`` tuples over ``d`` attributes.

    Parameters
    ----------
    values:
        Array-like of shape ``(n, d)``.  Copied and stored as float64.
    schema:
        Attribute names; generated (``a0..``) when omitted.
    check_domain:
        When true (default), values must lie in ``[0, 1]`` — the paper's
        normalized-domain assumption.  Use :meth:`from_raw` to min-max
        normalize arbitrary data first.
    """

    def __init__(
        self,
        values: np.ndarray | Sequence[Sequence[float]],
        schema: Schema | None = None,
        *,
        check_domain: bool = True,
    ) -> None:
        matrix = np.asarray(values, dtype=np.float64)
        if matrix.ndim != 2:
            raise SchemaError(f"relation values must be 2-D, got shape {matrix.shape}")
        if matrix.shape[1] < 1:
            raise SchemaError("relation needs at least one attribute column")
        if not np.all(np.isfinite(matrix)):
            raise SchemaError("relation values must be finite")
        if schema is None:
            schema = Schema.anonymous(matrix.shape[1])
        elif schema.d != matrix.shape[1]:
            raise SchemaError(
                f"schema has {schema.d} attributes but values have "
                f"{matrix.shape[1]} columns"
            )
        if check_domain and matrix.size and (matrix.min() < 0.0 or matrix.max() > 1.0):
            raise SchemaError(
                "attribute values must lie in [0, 1]; normalize first "
                "(see Relation.from_raw)"
            )
        self._matrix = matrix
        self._matrix.setflags(write=False)
        self._schema = schema

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def wrap_unchecked(cls, matrix: np.ndarray, schema: Schema) -> "Relation":
        """Wrap an already-validated float64 matrix without copying it.

        Trusted constructor for deserializers: the mmap snapshot opener
        checks that every value is finite before it wraps them, so this
        skips the normal constructor's finiteness and domain scans.
        Only the O(1) shape/dtype invariants are checked.  The matrix is
        marked read-only; callers must not mutate it afterwards.
        """
        matrix = np.asarray(matrix)
        if matrix.ndim != 2 or matrix.shape[1] < 1:
            raise SchemaError(
                f"relation values must be 2-D with >= 1 column, got shape "
                f"{matrix.shape}"
            )
        if matrix.dtype != np.float64:
            raise SchemaError(
                f"wrap_unchecked requires float64 values, got {matrix.dtype}"
            )
        if schema.d != matrix.shape[1]:
            raise SchemaError(
                f"schema has {schema.d} attributes but values have "
                f"{matrix.shape[1]} columns"
            )
        relation = cls.__new__(cls)
        if matrix.flags.writeable:
            matrix.setflags(write=False)
        relation._matrix = matrix
        relation._schema = schema
        return relation

    @classmethod
    def from_raw(
        cls, values: np.ndarray | Sequence[Sequence[float]], schema: Schema | None = None
    ) -> "Relation":
        """Build a relation from arbitrary finite data, min-max normalized.

        Columns with a constant value map to 0.0 (they cannot influence a
        normalized linear score anyway).
        """
        matrix = np.asarray(values, dtype=np.float64)
        if matrix.ndim != 2:
            raise SchemaError(f"relation values must be 2-D, got shape {matrix.shape}")
        if not np.all(np.isfinite(matrix)):
            raise SchemaError("relation values must be finite")
        if matrix.size == 0:
            return cls(matrix, schema, check_domain=False)
        lo = matrix.min(axis=0)
        hi = matrix.max(axis=0)
        span = hi - lo
        safe_span = np.where(span > 0, span, 1.0)
        normalized = (matrix - lo) / safe_span
        normalized[:, span == 0] = 0.0
        return cls(normalized, schema)

    @classmethod
    def from_csv(
        cls,
        path: str | Path,
        *,
        normalize: bool = False,
        delimiter: str = ",",
    ) -> "Relation":
        """Load a relation from a CSV file with a header row of attribute names."""
        path = Path(path)
        with path.open(newline="") as handle:
            reader = csv.reader(handle, delimiter=delimiter)
            try:
                header = next(reader)
            except StopIteration:
                raise SchemaError(f"{path}: empty CSV file") from None
            rows = [[float(cell) for cell in row] for row in reader if row]
        schema = Schema(tuple(name.strip() for name in header))
        if normalize:
            return cls.from_raw(rows, schema)
        return cls(np.asarray(rows, dtype=np.float64).reshape(-1, schema.d), schema)

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #

    @property
    def matrix(self) -> np.ndarray:
        """The read-only ``(n, d)`` value matrix."""
        return self._matrix

    @property
    def schema(self) -> Schema:
        """Attribute names."""
        return self._schema

    @property
    def n(self) -> int:
        """Cardinality."""
        return self._matrix.shape[0]

    @property
    def d(self) -> int:
        """Dimensionality."""
        return self._matrix.shape[1]

    @property
    def ids(self) -> np.ndarray:
        """All tuple ids, ``0..n-1``."""
        return np.arange(self.n, dtype=np.intp)

    def tuple(self, tuple_id: int) -> np.ndarray:
        """The value vector of one tuple."""
        return self._matrix[tuple_id]

    def take(self, tuple_ids: Iterable[int] | np.ndarray) -> np.ndarray:
        """Value rows for a set of tuple ids, shape ``(len(ids), d)``."""
        return self._matrix[np.asarray(tuple_ids, dtype=np.intp)]

    def column(self, attribute: str) -> np.ndarray:
        """One attribute column by name."""
        return self._matrix[:, self._schema.index_of(attribute)]

    def require_nonempty(self, operation: str = "operation") -> None:
        """Raise :class:`EmptyRelationError` when the relation has no tuples."""
        if self.n == 0:
            raise EmptyRelationError(f"{operation} requires a non-empty relation")

    # ------------------------------------------------------------------ #
    # Persistence / misc
    # ------------------------------------------------------------------ #

    def to_csv(self, path: str | Path, *, delimiter: str = ",") -> None:
        """Write the relation (with a header row) to a CSV file."""
        path = Path(path)
        with path.open("w", newline="") as handle:
            writer = csv.writer(handle, delimiter=delimiter)
            writer.writerow(self._schema.attributes)
            writer.writerows(self._matrix.tolist())

    def subset(self, tuple_ids: Iterable[int] | np.ndarray) -> "Relation":
        """A new relation containing only ``tuple_ids`` (ids are re-based)."""
        return Relation(self.take(tuple_ids).copy(), self._schema, check_domain=False)

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Relation(n={self.n}, d={self.d}, attributes={self._schema.attributes})"
