"""Correctness checks run after the timed part of each workload.

Every check tests a property the method must have (the paper's
statements, Gauss-Bonnet, the K-2 bound, straight limit lines on the
octahedron) or compares against a separate computation: the exact
geodesic engine, or the brute-force subdivided-mesh oracle, whose
resolution is its mesh edge. No check compares against stored output.
Each function returns a list of problems; an empty list means the
output passed.
"""

import math

import numpy as np

from farmap.curves import (LIMIT, MULTI_VALUED, NEITHER,
                           check_rational_representation)
from farmap.farthest import evaluate_f
from farmap.geodesics import distance
from farmap.oracle import oracle_distance_field
from farmap.star_unfold import unfold

ALL_LABELS = {LIMIT, MULTI_VALUED, NEITHER}
MESH_EDGES = 2.0          # oracle agreement, in subdivided mesh edges


def check_oracle(surface, p, radius, level, unfolding=None):
    """The oracle from phi(p) peaks at `radius` within two mesh edges, and
    its argmax lies within two mesh edges of a farthest point of phi(p).

    Branches closer than the oracle's own noise cannot be told apart by
    an argmax, so the farthest points are listed with a tie width of two
    mesh edges, as in acceptance criterion 2. The list comes from the
    default star unfolding (`unfolding`, or a fresh one), since `unfold`
    would also pick its cut paths among near-ties of that width."""
    src = surface.antipode(p)
    fld = oracle_distance_field(surface, src, level)
    top, mesh = fld.max_value(), fld.mesh_edge
    bad = []
    if abs(top - radius) > MESH_EDGES * mesh:
        bad.append(f"oracle max {top} vs radius {radius}")
    if unfolding is None:
        unfolding = unfold(surface, src)
    wide = evaluate_f(surface, p, eps_tie=MESH_EDGES * mesh,
                      unfolding=unfolding)
    amax = fld.argmax_point()
    off = min(distance(surface, amax, fp.point) for fp in wide.points)
    if off > MESH_EDGES * mesh:
        bad.append(f"oracle argmax {off / mesh:.2f} mesh edges from every "
                   "farthest point")
    return bad


def check_farthest_from_antipode(surface, p, radius):
    """p is a farthest point of phi(p): the exact geodesic distance from
    phi(p) to p equals the radius, within the fixed-point tolerance."""
    d = distance(surface, surface.antipode(p), p)
    if abs(d - radius) > 1e-6 * surface.diameter:
        return [f"distance {d} from the antipode, radius {radius}"]
    return []


# -- orbits ----------------------------------------------------------------

def check_orbit(surface, orbit, level):
    """One orbit record parsed from the `farmap orbit` output files.

    Statement 3: the orbit converges; statement 1: no periodic hits;
    statement 2: the limit is a fixed point whose minimizer count to its
    antipode is even and >= 4 off the cone points. The limit must lie at
    the certified radius from its antipode, and the oracle must confirm
    that radius as the maximum.
    """
    diam = surface.diameter
    bad = []
    if orbit["status"] != "converged":
        return [f"orbit {orbit['orbit']} did not converge"]
    if orbit["periodic_hits"] != 0:
        bad.append(f"{orbit['periodic_hits']} periodic hits")
    if not orbit["fixed_point_residual"] < 1e-6 * diam:
        bad.append(f"fixed-point residual {orbit['fixed_point_residual']}")
    count = orbit["minimizer_count"]
    if not orbit["on_cone_point"] and (count < 4 or count % 2):
        bad.append(f"minimizer count {count}")
    p = orbit["limit"]
    bad += check_farthest_from_antipode(surface, p, orbit["radius"])
    bad += check_oracle(surface, p, orbit["radius"], level)
    return bad


# -- farthest-point evaluation ---------------------------------------------

def check_surface(surface):
    gap = abs(sum(surface.deficits()) - 4 * math.pi)
    return [f"deficits miss 4pi by {gap}"] if gap > 1e-7 else []


def check_evaluation(surface, result):
    """At most K-2 good triples, and every returned farthest point lies at
    the exact geodesic distance `radius` from the source phi(p)."""
    bad = []
    bound = surface.n_cone_points - 2
    if len(result.good) > bound:
        bad.append(f"{len(result.good)} good triples > K-2 = {bound}")
    if not result.points:
        bad.append("no farthest point returned")
    tol = 100 * surface.eps_geom
    for fp in result.points:
        d = distance(surface, result.source, fp.point)
        if abs(d - result.radius) > tol:
            bad.append(f"farthest point at distance {d}, radius "
                       f"{result.radius}")
    return bad


# -- curves ----------------------------------------------------------------

def line_deviation(polyline):
    """Largest distance of a polyline's points from its best-fit line."""
    pts = np.asarray(polyline, dtype=float)
    centered = pts - pts.mean(axis=0)
    normal = np.linalg.svd(centered)[2][1]
    return float(np.abs(centered @ normal).max())


def limit_samples(region, curves):
    """One surface point per limit curve: the middle of its polyline."""
    return [region.chart_inverse(tuple(c.polyline[len(c.polyline) // 2]))
            for c in curves if c.label == LIMIT]


def check_region_curves(surface, region, curves, level):
    """All three labels on the region (the octahedron's eight regions are
    congruent), straight limit lines, one rational formula per component
    of the region minus the curves, and oracle-confirmed limit points."""
    diam = surface.diameter
    bad = []
    labels = {c.label for c in curves}
    if labels != ALL_LABELS:
        bad.append(f"labels {sorted(labels)}")
    for c in curves:
        if c.label == LIMIT:
            dev = line_deviation(c.polyline)
            if dev > 1e-6 * diam:
                bad.append(f"limit curve bends by {dev / diam:.2e} x diam")
    bad += check_rational(surface, region, curves)
    for x in limit_samples(region, curves):
        bad.extend(check_fixed_point(surface, x, level))
    return bad


def check_rational(surface, region, curves):
    """Off the curves, f is one rational map (or one cone point) per
    component, matching the exact evaluator within 100 eps_geom."""
    gap, checked, _ = check_rational_representation(surface, region, curves,
                                                    n_samples=100)
    if checked == 0 or not gap < 100 * surface.eps_geom:
        return [f"rational representation gap {gap} over {checked} "
                "samples"]
    return []


def check_fixed_point(surface, x, level):
    """x is farthest from its antipode, with the radius the oracle sees."""
    res = evaluate_f(surface, x)
    return (check_farthest_from_antipode(surface, x, res.radius)
            + check_oracle(surface, x, res.radius, level, res.unfolding))
