"""In-memory span recorder for the traced benchmark run.

The benchmark installs timing wrappers around the public functions of each
layer (see ``workloads.trace_engine`` and ``workloads.trace_cluster``); no
source under ``src/`` changes.
A span records its name, start and end (``perf_counter_ns``), the span that
caused it and the request it served.  Parents come from a context variable,
so nesting is followed within a thread and within an asyncio task; work
handed to another thread starts a new root.

Spans are appended as six int64 fields to one flat ``array``: a single
``extend`` call is atomic under the interpreter lock, so the gateway's
executor thread and the event loop can record concurrently without a lock.
"""

from __future__ import annotations

import contextvars
import itertools
import json
import time
from array import array

import numpy as np

#: Fields of one span, in storage order.
FIELDS = ("id", "name", "start_ns", "end_ns", "parent", "request")


class Tracer:
    """Collects spans and patches layer functions with timing wrappers."""

    def __init__(self) -> None:
        self._flat = array("q")
        self._ids = itertools.count()
        self._names: dict[str, int] = {}
        self._current = contextvars.ContextVar("span", default=-1)
        #: Request id stamped on every span opened while it is set.
        self.request = contextvars.ContextVar("request", default=-1)
        self._patches: list[tuple[object, str, object, bool]] = []

    def _name_id(self, name: str) -> int:
        return self._names.setdefault(name, len(self._names))

    def wrap(self, fn, name: str, *, after=None):
        """``fn`` timed as span ``name``.

        ``after(span_id, start_ns, end_ns, result)`` runs once the span is
        recorded, for callers that attribute results to spans.
        """
        name_id = self._name_id(name)
        flat, ids, current, request = self._flat, self._ids, self._current, self.request
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            span_id = next(ids)
            parent = current.get()
            token = current.set(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                current.reset(token)
                flat.extend((span_id, name_id, start, end, parent, request.get()))
            if after is not None:
                after(span_id, start, end, result)
            return result

        return traced

    def record(self, name: str, start_ns: int, end_ns: int, request: int) -> None:
        """Add a root span measured by the caller (e.g. an async request)."""
        self._flat.extend(
            (next(self._ids), self._name_id(name), start_ns, end_ns, -1, request)
        )

    def patch(self, owner, attr: str, name: str, *, after=None) -> None:
        """Replace ``owner.attr`` with its traced form until :meth:`restore`."""
        self.replace(owner, attr, self.wrap(getattr(owner, attr), name, after=after))

    def replace(self, owner, attr: str, value) -> None:
        """Set ``owner.attr`` to ``value`` until :meth:`restore`."""
        own = attr in vars(owner)
        self._patches.append((owner, attr, vars(owner).get(attr), own))
        setattr(owner, attr, value)

    def restore(self) -> None:
        """Undo every :meth:`patch`, newest first."""
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def __len__(self) -> int:
        return len(self._flat) // len(FIELDS)

    def table(self) -> "SpanTable":
        return SpanTable(self._flat, {v: k for k, v in self._names.items()})


class SpanTable:
    """Column view of recorded spans with derived self time."""

    def __init__(self, flat: array, names: dict[int, str]) -> None:
        rows = np.frombuffer(flat, dtype=np.int64).reshape(-1, len(FIELDS)).copy()
        self.names = names
        self.id, self.name, self.start, self.end, self.parent, self.request = rows.T
        self.duration = self.end - self.start
        size = int(self.id.max()) + 1 if self.id.size else 0
        has_parent = self.parent >= 0
        child_ns = np.bincount(
            self.parent[has_parent], weights=self.duration[has_parent], minlength=size
        )
        #: Duration minus the time its children cover (children of one
        #: span run one after another on its thread, so they never overlap).
        self.self_ns = self.duration - child_ns[self.id].astype(np.int64)
        self._by_name = {v: k for k, v in names.items()}

    def mask(self, *names: str) -> np.ndarray:
        ids = [self._by_name[n] for n in names if n in self._by_name]
        return np.isin(self.name, ids)

    def child_counts(self, parent_mask: np.ndarray, child_name: str) -> np.ndarray:
        """Per selected parent, how many ``child_name`` spans it caused."""
        size = int(self.id.max()) + 1 if self.id.size else 0
        child = self.mask(child_name) & (self.parent >= 0)
        counts = np.bincount(self.parent[child], minlength=size)
        return counts[self.id[parent_mask]]

    def write_jsonl(self, path, limit: int) -> int:
        """Write spans with id < ``limit`` (so every parent is kept); count."""
        keep = np.flatnonzero(self.id < limit)
        keep = keep[np.argsort(self.id[keep], kind="stable")]
        with open(path, "w") as handle:
            for row in keep:
                handle.write(
                    json.dumps(
                        {
                            "id": int(self.id[row]),
                            "name": self.names[int(self.name[row])],
                            "start_ns": int(self.start[row]),
                            "end_ns": int(self.end[row]),
                            "parent": int(self.parent[row]),
                            "request": int(self.request[row]),
                        }
                    )
                    + "\n"
                )
        return int(keep.size)
