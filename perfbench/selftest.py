"""Self-test of the benchmark's correctness checks.

Builds one genuine result of each kind (an octahedron orbit, a K=20
evaluation, one traced octahedron region), then feeds each check the
genuine result, which must pass, and deliberately wrong copies, which
must fail. Exits 1 if any case goes the other way.

    python3 perfbench/selftest.py      # about 30 s
"""

import copy
import dataclasses
import math
import sys

import numpy as np

import run  # first: it also puts the program on sys.path
import checks
from farmap import presets
from farmap.curves import LIMIT, MULTI_VALUED, NEITHER, trace_curves
from farmap.cutlocus import build_regions, region_isometries
from farmap.farthest import evaluate_f
from farmap.geodesics import distance
from farmap.oracle import oracle_distance_field


def _far_point(surface, p, rng, frac=0.25):
    """A random point at least frac x diameter away from p."""
    while True:
        q = surface.random_point(rng)
        if distance(surface, p, q) > frac * surface.diameter:
            return q


def orbit_cases():
    wl = run.OrbitsPresets(seed=5)
    wl.setup()
    _, ops = wl.run_round(0)
    s, orbit = ops[0].payload
    level = wl.oracle_level
    mesh = oracle_distance_field(s, s.vertex_point(0), level).mesh_edge
    rng = np.random.default_rng(1)

    def bad(**changes):
        return dict(orbit, **changes)

    cases = {
        "genuine orbit": (orbit, False),
        "radius shifted by 3 mesh edges":
            (bad(radius=orbit["radius"] + 3 * mesh), True),
        "limit moved a quarter diameter":
            (bad(limit=_far_point(s, orbit["limit"], rng)), True),
        "odd minimizer count": (bad(minimizer_count=3), True),
        "fixed-point residual 1e-3 x diam":
            (bad(fixed_point_residual=1e-3 * s.diameter), True),
        "one periodic hit": (bad(periodic_hits=1), True),
        "not converged": (bad(status="budget"), True),
    }
    out = [(f"orbit: {name}", checks.check_orbit(s, rec, level), fail)
           for name, (rec, fail) in cases.items()]
    return out + [("orbit oracle: radius shifted by 3 mesh edges",
                   checks.check_oracle(s, orbit["limit"],
                                       orbit["radius"] + 3 * mesh, level),
                   True)]


def evaluation_cases():
    wl = run.FRandomK20(seed=5)
    wl.setup()
    _, ops = wl.run_round(0)
    j, _, _, p, res = ops[0].payload
    s = wl.surfaces[j]
    level = wl.oracle_level
    mesh = oracle_distance_field(s, res.source, level).mesh_edge
    rng = np.random.default_rng(2)
    moved = [dataclasses.replace(
        res.points[0], point=_far_point(s, res.points[0].point, rng))]
    padded = res.good + res.good[:s.n_cone_points - 1 - len(res.good)]
    out = [
        ("evaluation: genuine", checks.check_evaluation(s, res), False),
        ("evaluation: radius shifted by 1e-6 x diam",
         checks.check_evaluation(s, dataclasses.replace(
             res, radius=res.radius + 1e-6 * s.diameter)), True),
        ("evaluation: farthest point moved",
         checks.check_evaluation(s, dataclasses.replace(res, points=moved)),
         True),
        ("evaluation: K-1 good triples",
         checks.check_evaluation(s, dataclasses.replace(res, good=padded)),
         True),
        ("evaluation oracle: genuine",
         checks.check_oracle(s, p, res.radius, level, res.unfolding),
         False),
        ("evaluation oracle: radius shifted by 3 mesh edges",
         checks.check_oracle(s, p, res.radius + 3 * mesh, level,
                             res.unfolding), True),
    ]
    surface_bad = copy.copy(s)
    surface_bad.deficits = lambda: [d * 1.001 for d in s.deficits()]
    out += [("surface: genuine", checks.check_surface(s), False),
            ("surface: deficits scaled by 1.001",
             checks.check_surface(surface_bad), True)]
    return out


def curve_cases():
    s = presets.regular_octahedron()
    region = build_regions(s).regions[0]
    region_isometries(s, region)
    level = run.CurvesOctahedron.oracle_level
    found = trace_curves(s, region,
                         resolution=run.CurvesOctahedron.resolution)

    def relabel(old, new):
        return [dataclasses.replace(c, label=new) if c.label == old else c
                for c in found]

    bent = list(found)
    k = next(i for i, c in enumerate(found) if c.label == LIMIT)
    pts = list(found[k].polyline)
    (x0, y0), (x1, y1) = pts[0], pts[-1]
    off = 1e-4 * s.diameter / math.hypot(x1 - x0, y1 - y0)
    mx, my = pts[len(pts) // 2]
    pts[len(pts) // 2] = (mx - off * (y1 - y0), my + off * (x1 - x0))
    bent[k] = dataclasses.replace(found[k], polyline=pts)
    no_multi = [c for c in found if c.label != MULTI_VALUED]
    # a region sample whose farthest-point image is far from itself
    samples = [sp for _, sp in region.interior_samples(count=5)]
    not_fixed = max(samples, key=lambda x: distance(
        s, x, evaluate_f(s, x).points[0].point))

    def run_check(curves):
        return checks.check_region_curves(s, region, curves, level)

    return [
        ("curves: genuine", run_check(found), False),
        ("curves: limit label dropped", run_check(relabel(LIMIT, NEITHER)),
         True),
        ("curves: limit curve bent by 1e-4 x diam", run_check(bent), True),
        ("curves: multi-valued curves dropped", run_check(no_multi), True),
        ("rational representation: multi-valued curves dropped",
         checks.check_rational(s, region, no_multi), True),
        ("curves: sample that is not a fixed point",
         checks.check_fixed_point(s, not_fixed, level), True),
    ]


def main():
    cases = orbit_cases() + evaluation_cases() + curve_cases()
    wrong = 0
    for name, problems, should_fail in cases:
        failed = bool(problems)
        ok = failed == should_fail
        wrong += not ok
        verdict = "fails" if failed else "passes"
        print(f"{'ok ' if ok else 'BAD'} {name}: check {verdict}"
              + (f" ({problems[0]})" if problems else ""))
    print(f"selftest: {len(cases) - wrong}/{len(cases)} cases as expected")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
