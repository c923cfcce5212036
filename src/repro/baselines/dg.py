"""DG and DG+ (Zou & Chen, "Dominant Graph" [5]).

DG is exactly the dual-resolution machinery with fine sublayers disabled:
skyline coarse layers, ∀-dominance gates between adjacent layers, complete
access to the first layer.  DG+ adds the flat clustered pseudo-tuple zero
layer of [5] (no fine sublayers inside the zero layer — that refinement is
DL+'s).  Sharing the builder/engine with DL is what the paper's Theorem 5
cost comparison assumes: identical coarse structure, DL only adds ∃-gates.
"""

from __future__ import annotations

from repro.core.index import DLIndex, DLPlusIndex
from repro.relation import Relation


class DGIndex(DLIndex):
    """Dominant graph: coarse skyline layers + ∀-dominance gating only."""

    name = "DG"
    _fine_sublayers = False


class DGPlusIndex(DLPlusIndex):
    """DG with the flat clustered zero layer of [5]."""

    name = "DG+"
    _fine_sublayers = False

    def __init__(
        self,
        relation: Relation,
        *,
        max_layers: int | None = None,
        skyline_algorithm: str = "blocked",
        clusters: int | None = None,
        seed: int = 0,
    ) -> None:
        # DG+ always uses clustered pseudo-tuples (also in 2-D); the
        # weight-range chain is DL+'s 2-D refinement.
        super().__init__(
            relation,
            max_layers=max_layers,
            skyline_algorithm=skyline_algorithm,
            clusters=clusters,
            zero_layer="clusters",
            seed=seed,
        )
