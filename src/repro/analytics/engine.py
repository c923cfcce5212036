"""The dual-direction analytics facade over serving engines.

:class:`AnalyticsEngine` fronts either a single-node
:class:`~repro.serving.QueryEngine` or a sharded
:class:`~repro.cluster.ClusterEngine` and answers the dual of the serving
question — not "which tuples win under w?" but "for which w does this
tuple win, and why doesn't it win for mine?":

* :meth:`reverse_topk` — monochromatic reverse top-k (exact interval
  region in d=2, certified volume bounds for d>2);
* :meth:`bichromatic` — which workload vectors' top-k contains the
  target, most of them resolved by walk-free screens;
* :meth:`why_not` — rank, k-th score gap, and the minimal L1/L∞ weight
  perturbation that promotes the target (HiGHS LP; exact in d=2 via the
  interval region);
* :meth:`what_if` — re-rank under a hypothetical weight change or tuple
  edit without mutating the index.

Serving invariants carried over: every entry point validates ``k``
through the shared :func:`~repro.serving.engine.validate_k` and weights
through :func:`~repro.relation.normalize_weights` (malformed inputs fail
at the boundary); *raw* weights are forwarded to the fronted engines so
normalization happens exactly once (normalizing twice shifts scores by an
ulp and breaks bitwise agreement); walks go through the fronted engine's
``query_batch``, so they reuse its kernel dispatch, workspaces and result
cache.

Candidate sets come from the layer containment theorem: a tuple of coarse
layer ``j`` sits atop a chain of ``j`` dominators, so every top-k answer
lives in coarse layers ``0..k-1`` — beater counts restricted to those
layers decide top-k membership exactly (see
:class:`~repro.analytics.reverse.BichromaticScreen`).  On a cluster the
candidate set is the union of the per-shard layer prefixes (a global
top-k member is a local top-k member of its shard), and why-not ranks
compose exactly as per-shard beater-count sums.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analytics.reverse import (
    BichromaticResult,
    BichromaticScreen,
    CertifiedRegion,
    MonochromaticRegion,
    certified_region,
    monochromatic_region_2d,
)
from repro.analytics.whatif import TupleEdit, WhatIfReport, what_if_edit
from repro.analytics.whynot import WhyNotReport, minimal_promotion
from repro.core.query import score_rows
from repro.exceptions import (
    IndexCapacityError,
    InvalidQueryError,
    InvalidWeightError,
)
from repro.relation import normalize_weights
from repro.serving.engine import validate_k

__all__ = ["AnalyticsEngine"]


def _validate_tuple_id(tuple_id, n: int) -> int:
    """Validate a target tuple id (same strictness as ``validate_k``)."""
    if isinstance(tuple_id, (str, bytes, bool)):
        raise InvalidQueryError(
            f"target tuple id must be an integer, got {tuple_id!r}"
        )
    try:
        as_float = float(tuple_id)
    except (TypeError, ValueError) as exc:
        raise InvalidQueryError(
            f"target tuple id must be an integer, got {tuple_id!r}"
        ) from exc
    if not as_float.is_integer():
        raise InvalidQueryError(
            f"target tuple id must be an integer, got {tuple_id!r}"
        )
    value = int(as_float)
    if not 0 <= value < n:
        raise InvalidQueryError(
            f"target tuple id {value} outside the relation (n={n})"
        )
    return value


@dataclass
class _Snapshot:
    """Version-pinned view of the fronted engine's data and placements."""

    version: int
    matrix: np.ndarray  #: (n_ids, d) rows; deleted ids hold +inf
    levels: np.ndarray | None  #: coarse layer per id (-1 unplaced), or None
    num_coarse: int
    complete: bool


class AnalyticsEngine:
    """Reverse top-k / why-not / what-if over one serving engine."""

    def __init__(self, engine) -> None:
        self._engine = engine
        self._is_cluster = hasattr(engine, "shards")
        self._snap: _Snapshot | None = None

    # ------------------------------------------------------------------ #
    # Introspection / plumbing
    # ------------------------------------------------------------------ #

    @property
    def engine(self):
        """The fronted serving engine (QueryEngine or ClusterEngine)."""
        return self._engine

    @property
    def d(self) -> int:
        return self._engine.d

    @property
    def n(self) -> int:
        """Number of tuple *ids* (live rows; cluster ids are global)."""
        return self._snapshot().matrix.shape[0]

    def _snapshot(self) -> _Snapshot:
        version = int(getattr(self._engine, "version", 0))
        if self._snap is not None and self._snap.version == version:
            return self._snap
        if self._is_cluster:
            self._snap = self._gather_cluster(version)
        else:
            self._snap = self._gather_single(version)
        return self._snap

    def _gather_single(self, version: int) -> _Snapshot:
        index = self._engine.index
        relation = getattr(index, "relation", None)
        if relation is None:
            raise InvalidQueryError(
                f"{type(index).__name__} exposes no relation; analytics "
                "needs the tuple values"
            )
        matrix = np.asarray(relation.matrix, dtype=np.float64)
        structure = getattr(index, "structure", None)
        if structure is None:
            return _Snapshot(version, matrix, None, 0, True)
        levels = np.asarray(
            structure.coarse_levels[: structure.n_real], dtype=np.int64
        )
        return _Snapshot(
            version,
            matrix,
            levels,
            int(structure.num_coarse_layers),
            bool(structure.complete),
        )

    def _gather_cluster(self, version: int) -> _Snapshot:
        shards = self._engine.shards
        size = 0
        for shard in shards:
            if shard.global_ids.shape[0]:
                size = max(size, int(shard.global_ids[-1]) + 1)
        d = self._engine.d
        # Deleted ids keep +inf rows: they can never beat a finite target
        # under strictly positive weights and are excluded from candidate
        # sets (their shard placement is gone with them).
        matrix = np.full((size, d), np.inf, dtype=np.float64)
        levels = np.full(size, -1, dtype=np.int64)
        num_coarse = np.iinfo(np.int64).max
        complete = True
        have_levels = True
        for shard in shards:
            matrix[shard.global_ids] = shard.relation.matrix
            structure = getattr(shard.engine.index, "structure", None)
            if structure is None:
                have_levels = False
                continue
            # Placements follow the ids the structure was built with.  An
            # absorbed write leaves them unchanged: its insert stays -1
            # (unplaced), and a built id past ``size`` is an absorbed
            # delete, which was unplaced too.
            built = shard.built_ids
            inside = built < size
            levels[built[inside]] = structure.coarse_levels[
                : structure.n_real
            ][inside]
            num_coarse = min(num_coarse, int(structure.num_coarse_layers))
            complete = complete and bool(structure.complete)
        if not have_levels:
            return _Snapshot(version, matrix, None, 0, True)
        return _Snapshot(version, matrix, levels, num_coarse, complete)

    def _candidates(self, snap: _Snapshot, k_eff: int) -> np.ndarray:
        """Real rows that any top-``k_eff`` answer can contain."""
        if snap.levels is None:
            live = np.isfinite(snap.matrix).all(axis=1)
            return np.nonzero(live)[0].astype(np.intp)
        if not snap.complete and snap.num_coarse < k_eff:
            raise IndexCapacityError(
                f"analytics over a bounded index: k={k_eff} but only "
                f"{snap.num_coarse} coarse layers are materialized"
            )
        mask = (snap.levels >= 0) & (snap.levels < k_eff)
        return np.nonzero(mask)[0].astype(np.intp)

    def _resolve_target(
        self, snap: _Snapshot, tuple_id, values
    ) -> tuple[np.ndarray, int, bool]:
        """``(target_values, target_id, is_real)`` with boundary validation."""
        if values is not None:
            if tuple_id is not None:
                raise InvalidQueryError(
                    "pass either a target tuple_id or hypothetical values, "
                    "not both"
                )
            vals = np.asarray(values, dtype=np.float64)
            if vals.shape != (self.d,):
                raise InvalidQueryError(
                    f"hypothetical target needs {self.d} values, got shape "
                    f"{vals.shape}"
                )
            if not np.all(np.isfinite(vals)):
                raise InvalidQueryError("hypothetical target values must be finite")
            # A hypothetical tuple competes with the next id: it loses
            # every score tie (Definition 1 id tie-break).
            return vals, snap.matrix.shape[0], False
        tid = _validate_tuple_id(tuple_id, snap.matrix.shape[0])
        row = snap.matrix[tid]
        if not np.all(np.isfinite(row)):
            raise InvalidQueryError(f"target tuple {tid} has been deleted")
        return np.array(row, dtype=np.float64), tid, True

    def _validate_workload(self, weights_matrix) -> tuple[np.ndarray, np.ndarray]:
        """``(raw, normalized)`` workload rows, validated up front."""
        raw = np.asarray(weights_matrix, dtype=np.float64)
        if raw.ndim == 1:
            raw = raw[None, :]
        if raw.ndim != 2:
            raise InvalidWeightError(
                f"workload must be a 2-D weight matrix, got shape {raw.shape}"
            )
        if raw.shape[0] == 0:
            raise InvalidWeightError("workload is empty")
        normalized = np.vstack(
            [normalize_weights(raw[i], self.d) for i in range(raw.shape[0])]
        )
        return raw, normalized

    def _beaters(self, snap: _Snapshot, weights: np.ndarray, f_t: float, tid: int):
        """``(count, per_shard)`` of tuples beating ``(f_t, tid)`` under w."""
        if self._is_cluster:
            per_shard = {
                shard.shard_id: shard.beater_count(weights, f_t, tid)
                for shard in self._engine.shards
            }
            return sum(per_shard.values()), per_shard
        matrix = snap.matrix
        rows = np.arange(matrix.shape[0], dtype=np.intp)
        scores = score_rows(matrix, rows, weights)
        beats = (scores < f_t) | ((scores == f_t) & (rows < tid))
        return int(np.count_nonzero(beats)), {}

    # ------------------------------------------------------------------ #
    # Monochromatic reverse top-k
    # ------------------------------------------------------------------ #

    def reverse_topk(
        self,
        tuple_id=None,
        k: int = 10,
        *,
        values=None,
        max_depth: int = 12,
        max_cells: int = 2048,
    ) -> MonochromaticRegion | CertifiedRegion:
        """The weight-space region where the target ranks in the top-k.

        d=2 returns an exact :class:`MonochromaticRegion` (interval
        union); d>2 a :class:`CertifiedRegion` with sound volume bounds.
        The target is an existing ``tuple_id`` or hypothetical ``values``.
        """
        k = validate_k(k)
        snap = self._snapshot()
        t_vals, t_id, is_real = self._resolve_target(snap, tuple_id, values)
        pool = snap.matrix.shape[0] + (0 if is_real else 1)
        k_eff = min(k, pool)
        cand = self._candidates(snap, k_eff)
        if self.d == 2:
            return monochromatic_region_2d(snap.matrix, cand, t_vals, t_id, k_eff)
        return certified_region(
            snap.matrix,
            cand,
            t_vals,
            t_id,
            k_eff,
            max_depth=max_depth,
            max_cells=max_cells,
        )

    # ------------------------------------------------------------------ #
    # Bichromatic reverse top-k
    # ------------------------------------------------------------------ #

    def bichromatic(
        self,
        weights_matrix,
        k: int,
        tuple_id=None,
        *,
        values=None,
    ) -> BichromaticResult:
        """Which workload vectors' top-k contains the target.

        Resolution order per vector: weight-independent certificates
        (target too deep / ``k`` covers everything), walk-free zonemap
        screens, then one ``engine.query_batch`` walk for the remainder
        (native when the compiler is present) —
        ``result.resolved_without_walk`` reports how much never walked.
        Raw workload rows are forwarded to the fronted engine, which
        normalizes exactly once (the cluster invariant), so walk answers
        are bitwise identical to direct ``engine.query`` calls.
        """
        k = validate_k(k)
        raw, normalized = self._validate_workload(weights_matrix)
        snap = self._snapshot()
        t_vals, t_id, is_real = self._resolve_target(snap, tuple_id, values)
        m = raw.shape[0]
        pool = snap.matrix.shape[0] + (0 if is_real else 1)
        k_eff = min(k, pool)

        members = np.zeros(m, dtype=bool)
        resolution = ["static"] * m
        if k_eff >= pool:
            members[:] = True  # k covers the whole pool: everyone is in
            return BichromaticResult(t_id, k, members, resolution)
        if is_real and snap.levels is not None:
            self._candidates(snap, k_eff)  # capacity check
            level = int(snap.levels[t_id])
            if level < 0 or level >= k_eff:
                # Layer containment: a tuple of coarse layer j has j
                # dominators, so it never enters a top-k with k <= j.
                return BichromaticResult(t_id, k, members, resolution)

        cand = self._candidates(snap, k_eff)
        screen = BichromaticScreen(snap.matrix, cand, t_vals, t_id, k_eff)
        unresolved: list[int] = []
        for i in range(m):
            verdict = screen.resolve(normalized[i])
            if verdict is None:
                unresolved.append(i)
            else:
                members[i] = verdict
                resolution[i] = "screen"
        if unresolved:
            if is_real:
                results = self._engine.query_batch(raw[unresolved], k)
                for i, result in zip(unresolved, results):
                    members[i] = bool(np.isin(t_id, result.ids))
                    resolution[i] = "walk"
            else:
                # The kernel cannot walk a tuple that is not in the index;
                # the candidate-set count is still exact and walk-free.
                for i in unresolved:
                    members[i] = screen.exact(normalized[i])
                    resolution[i] = "count"
        return BichromaticResult(t_id, k, members, resolution)

    # ------------------------------------------------------------------ #
    # Why-not
    # ------------------------------------------------------------------ #

    def why_not(self, weights, tuple_id, k: int, *, norm: str = "l1") -> WhyNotReport:
        """Rank, k-th gap, and the minimal promoting weight perturbation.

        On a cluster the rank composes from per-shard beater counts
        (exactly — see :meth:`repro.cluster.shard.Shard.beater_count`);
        the k-th score comes from a real engine query, so the report is
        bitwise consistent with what serving returns for the same raw
        weights.  In d=2 the perturbation is exact (nearest point of the
        interval region); otherwise it is the HiGHS LP upper bound,
        verified by re-ranking before it is reported feasible.
        """
        k = validate_k(k)
        raw = np.asarray(weights, dtype=np.float64)
        w = normalize_weights(raw, self.d)
        snap = self._snapshot()
        t_vals, t_id, _ = self._resolve_target(snap, tuple_id, None)
        k_eff = min(k, snap.matrix.shape[0])

        f_t = float(
            score_rows(t_vals[None, :], np.asarray([0], dtype=np.intp), w)[0]
        )
        beaters, per_shard = self._beaters(snap, w, f_t, t_id)
        rank = beaters + 1
        answer = self._engine.query(raw, k)  # raw: engine normalizes once
        kth = float(answer.scores[-1])
        in_top_k = bool(np.isin(t_id, answer.ids))
        report = WhyNotReport(
            target_id=t_id,
            k=k,
            weights=w,
            rank=rank,
            score=f_t,
            kth_score=kth,
            gap=f_t - kth,
            in_top_k=in_top_k,
            norm=norm,
            feasible=in_top_k,
            certificate="already-in-top-k" if in_top_k else "lp-infeasible",
            shard_beaters=per_shard,
        )
        if in_top_k:
            return report
        cand = self._candidates(snap, k_eff)
        candidates: list[np.ndarray] = []
        delta, certificate = minimal_promotion(
            snap.matrix, cand, t_vals, t_id, k_eff, w, norm=norm
        )
        report.certificate = certificate
        if delta is not None:
            # LP tolerance can leave the verified rank one off; tiny
            # outward scalings restore strictness without moving the norm.
            candidates.extend(delta * scale for scale in (1.0, 1.0 + 1e-9, 1.0 + 1e-6))
        if self.d == 2:
            exact = self._exact_2d_delta(snap, cand, t_vals, t_id, k_eff, w)
            if exact is not None:
                candidates.append(exact)
        best = self._verify_deltas(snap, t_vals, t_id, k_eff, w, norm, candidates)
        if best is None and self.d > 2 and certificate != "dominated-out":
            # The LP path failed — either no solution for the chosen
            # support, or a Δ the exact recount rejected.  Mine the
            # certified reverse top-k region instead: IN-cell centroids
            # are guaranteed witnesses; uncertain-cell centroids are
            # merely plausible, but every candidate is verified by the
            # exact recount, so trying them costs one einsum each and
            # rescues razor-thin regions the bisection cannot certify.
            region = certified_region(
                snap.matrix, cand, t_vals, t_id, k_eff,
                max_depth=14, max_cells=4096,
            )
            fallback = []
            floor = 1e-9
            for cell in region.cells:
                if cell.status == "out":
                    continue
                # Centroid plus vertices: bisection drives uncertain-cell
                # vertices toward the membership boundary, so they land
                # inside slivers the centroid misses.  Clip to keep the
                # candidates strictly positive.
                points = np.vstack([cell.vertices.mean(axis=0), cell.vertices])
                points = np.clip(points, floor, None)
                fallback.extend(p / p.sum() - w for p in points)
            best = self._verify_deltas(
                snap, t_vals, t_id, k_eff, w, norm, fallback
            )
        if best is not None:
            size, delta, achieved = best
            report.feasible = True
            report.certificate = "promoted"
            report.perturbation = delta
            report.perturbed_weights = w + delta
            report.perturbation_norm = size
            report.achieved_rank = achieved
        elif report.certificate == "promoted":
            # The LP claimed a promotion the exact recount rejected:
            # never report an unverified Δ as feasible.
            report.certificate = "lp-infeasible"
        return report

    def _verify_deltas(
        self,
        snap: _Snapshot,
        t_vals: np.ndarray,
        t_id: int,
        k_eff: int,
        w: np.ndarray,
        norm: str,
        candidates: list[np.ndarray],
    ) -> tuple[float, np.ndarray, int] | None:
        """Smallest candidate Δ whose exact beater recount promotes t."""
        best: tuple[float, np.ndarray, int] | None = None
        for cand_delta in candidates:
            perturbed = w + cand_delta
            if np.any(perturbed <= 0):
                continue
            w2 = normalize_weights(perturbed, self.d)
            f2 = float(
                score_rows(t_vals[None, :], np.asarray([0], dtype=np.intp), w2)[0]
            )
            count2, _ = self._beaters(snap, w2, f2, t_id)
            if count2 + 1 > k_eff:
                continue
            size = (
                float(np.abs(cand_delta).sum())
                if norm == "l1"
                else float(np.abs(cand_delta).max())
            )
            if best is None or size < best[0]:
                best = (size, cand_delta, count2 + 1)
        return best

    def _exact_2d_delta(
        self,
        snap: _Snapshot,
        cand: np.ndarray,
        t_vals: np.ndarray,
        t_id: int,
        k_eff: int,
        w: np.ndarray,
    ) -> np.ndarray | None:
        """Exact d=2 minimal perturbation from the interval region."""
        region = monochromatic_region_2d(snap.matrix, cand, t_vals, t_id, k_eff)
        best: float | None = None
        for lo, hi in region.intervals:
            # Nudge off the interval boundary: the endpoints are exact
            # score ties where the id tie-break can still exclude t.
            inset = min(1e-9, (hi - lo) / 4)
            lo_in, hi_in = lo + inset, hi - inset
            w1 = min(max(float(w[0]), lo_in), hi_in)
            if best is None or abs(w1 - w[0]) < abs(best - w[0]):
                best = w1
        if best is None:
            return None
        shift = best - float(w[0])
        return np.asarray([shift, -shift], dtype=np.float64)

    # ------------------------------------------------------------------ #
    # What-if
    # ------------------------------------------------------------------ #

    def what_if(
        self,
        weights,
        k: int,
        *,
        edit: TupleEdit | None = None,
        new_weights=None,
    ) -> WhatIfReport:
        """Re-rank under a hypothetical change, index untouched.

        Exactly one of ``edit`` (a :class:`TupleEdit`) or ``new_weights``
        must be given.  Both paths serve through the fronted engine, so
        they reuse its kernel dispatch, workspaces and result cache.
        """
        k = validate_k(k)
        raw = np.asarray(weights, dtype=np.float64)
        w = normalize_weights(raw, self.d)
        if (edit is None) == (new_weights is None):
            raise InvalidQueryError(
                "what-if takes exactly one of edit= or new_weights="
            )
        if new_weights is not None:
            raw_after = np.asarray(new_weights, dtype=np.float64)
            normalize_weights(raw_after, self.d)  # boundary validation
            before = self._engine.query(raw, k)
            after = self._engine.query(raw_after, k)
            return WhatIfReport(
                k=k,
                change="weights",
                before_ids=before.ids,
                before_scores=before.scores,
                after_ids=after.ids,
                after_scores=after.scores,
            )
        snap = self._snapshot()
        if edit.kind in ("update", "delete"):
            _validate_tuple_id(edit.tuple_id, snap.matrix.shape[0])
        if edit.values is not None:
            vals = np.asarray(edit.values, dtype=np.float64)
            if vals.shape != (self.d,) or not np.all(np.isfinite(vals)):
                raise InvalidQueryError(
                    f"edit values must be {self.d} finite attributes"
                )
        before_ids, before_scores, after_ids, after_scores = what_if_edit(
            self._engine, snap.matrix, raw, w, k, edit
        )
        return WhatIfReport(
            k=k,
            change=edit.kind,
            before_ids=before_ids,
            before_scores=before_scores,
            after_ids=after_ids,
            after_scores=after_scores,
        )
