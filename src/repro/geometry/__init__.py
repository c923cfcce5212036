"""Computational-geometry substrate.

Provides everything the dual-resolution layer needs from geometry:

* a from-scratch 2-D lower-left convex chain (:mod:`repro.geometry.hull2d`);
* d-dimensional convex hulls via QHull (:mod:`repro.geometry.hull` — the
  paper itself uses QHull [22]; scipy wraps the same library) with robust
  degeneracy fallbacks;
* convex-skyline extraction (Definition 4) in any dimension
  (:mod:`repro.geometry.convex_skyline`);
* lower-facet enumeration, the facets being the paper's minimal
  ∃-dominance sets (:mod:`repro.geometry.facets`);
* convex-combination dominance feasibility — the exact geometric test behind
  ``EDS`` membership (:mod:`repro.geometry.feasibility`);
* the §V-A weight-range partition of the 2-D simplex
  (:mod:`repro.geometry.weight_ranges`);
* the exact power-of-two rescaling that makes the build's float
  thresholds relative to the data (:mod:`repro.geometry.scale`).
"""

from repro.geometry.hull2d import lower_left_chain, skyline_2d
from repro.geometry.hull import HullResult, convex_hull
from repro.geometry.convex_skyline import convex_skyline
from repro.geometry.facets import lower_facets
from repro.geometry.feasibility import convex_combination_dominates
from repro.geometry.weight_ranges import WeightRangePartition

__all__ = [
    "lower_left_chain",
    "skyline_2d",
    "HullResult",
    "convex_hull",
    "convex_skyline",
    "lower_facets",
    "convex_combination_dominates",
    "WeightRangePartition",
]
