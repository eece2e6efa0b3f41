"""Farthest-point map dynamics on centrally symmetric convex polyhedra."""

from .surface import (ConeSurface, SurfacePoint, build_from_gluing,
                      build_from_vertices)
from .geodesics import distance, lunes, minimizers
from .oracle import oracle_distance, oracle_distance_field
from .star_unfold import StarUnfolding, unfold
from .farthest import evaluate_f, good_triples
from .dynamics import certify_limit, iterate, periodicity_scan
from .cutlocus import build_regions, cut_locus, region_isometries
from .curves import (build_rational_map, hyperbola_form, limit_line_solve,
                     trace_curves)

__version__ = "0.1.0"

__all__ = [
    "ConeSurface", "SurfacePoint", "build_from_vertices",
    "build_from_gluing", "distance", "minimizers", "lunes",
    "oracle_distance", "oracle_distance_field", "StarUnfolding", "unfold",
    "evaluate_f", "good_triples", "iterate", "certify_limit",
    "periodicity_scan", "cut_locus", "build_regions", "region_isometries",
    "build_rational_map", "trace_curves", "hyperbola_form",
    "limit_line_solve",
]
