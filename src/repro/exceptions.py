"""Exception hierarchy for the repro library.

Every error raised intentionally by this package derives from
:class:`ReproError`, so callers can catch library failures with a single
``except`` clause without swallowing unrelated bugs.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SchemaError(ReproError):
    """A relation/schema constraint was violated (bad shapes, names, domains)."""


class EmptyRelationError(ReproError):
    """An operation that requires at least one tuple received an empty relation."""


class InvalidWeightError(ReproError):
    """A scoring-function weight vector violates the paper's assumptions.

    Weights must be strictly positive, finite, and of the relation's
    dimensionality (they are normalized to sum to one internally).
    """


class InvalidQueryError(ReproError):
    """A top-k query is malformed (e.g. non-positive k)."""


class IndexConstructionError(ReproError):
    """The layered index could not be built (internal invariant violated)."""


class IndexCapacityError(ReproError):
    """A query exceeds what a bounded index can answer.

    Raised when an index was built with ``max_layers`` and a query requires
    more layers than were materialized.
    """


class GeometryError(ReproError):
    """A computational-geometry primitive failed on degenerate input."""


class SQLParseError(ReproError):
    """The mini SQL front-end could not parse a query string."""


class SerializationError(ReproError):
    """An index or relation could not be saved or loaded."""


class ShardFailedError(ReproError):
    """A cluster shard is unreachable (injected or real failure).

    Raised by a failed shard's query paths; the cluster coordinator
    catches it to retry on a replica or to degrade to a flagged partial
    result (see :mod:`repro.cluster`).
    """


class GatewayOverloadError(ReproError):
    """The serving gateway fast-rejected a request at admission.

    Raised *before* the request is queued — either the bounded pending
    queue is full or the in-flight cap is reached — so overload surfaces
    to the caller immediately (load shedding) instead of growing an
    unbounded backlog whose tail latencies blow every SLO.
    """


class GatewayClosedError(ReproError):
    """A request arrived at a gateway that has been shut down."""


class KernelUnavailableError(ReproError):
    """A requested kernel cannot run in this environment.

    Raised by :func:`repro.core.dispatch.get_jit_kernel` when no compiled
    walk kernel is available — the bundled C walker could not be built
    (no C toolchain, or the build failed).  Dispatch never selects an
    unavailable kernel, so serving never sees it.
    """


class NativeBuildError(ReproError):
    """The bundled C walk kernel could not be compiled or loaded.

    Raised by :mod:`repro.core.native` when no C compiler is found, the
    compile fails, cffi is absent, or the built library fails its
    load-time bitwise scoring self-check.  Dispatch catches it (one
    logged warning, permanent fallback to the python kernels);
    :func:`repro.core.dispatch.get_jit_kernel` surfaces it as
    :class:`KernelUnavailableError`.
    """
