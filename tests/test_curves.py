import math
import os
import subprocess
import sys
from itertools import combinations
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from farmap import cutlocus
from farmap.curves import (LIMIT, MULTI_VALUED, NEITHER, CurveSample,
                           _make_curve, _marching_squares, _nearest_sorted,
                           active_from_displacement, build_rational_map,
                           check_rational_representation, hyperbola_form,
                           limit_line_solve, trace_curves)
from farmap.dynamics import iterate
from farmap.errors import FitDegenerate, NoSolution
from farmap.farthest import evaluate_f
from farmap.geom import circumcenter


@pytest.fixture(scope="module")
def octa_curves(octa, octa_regions):
    return trace_curves(octa, octa_regions.regions[0], resolution=128)


def test_rational_map_matches_circumcenter(octa_regions, fresh_rng):
    region = octa_regions.regions[0]
    rng = fresh_rng(0)
    rm = build_rational_map(region, (0, 1, 2))
    assert rm.degree_bound_ok()
    worst = 0.0
    for _ in range(100):
        x = 0.2 + rng.random()
        y = 0.1 + rng.random()
        imgs = [region.isometries[n].apply((x, y)) for n in (0, 1, 2)]
        cc = circumcenter(*imgs)
        if cc is None:
            continue
        fx, fy = rm.eval(np.float64(x), np.float64(y))
        worst = max(worst, math.hypot(fx - cc[0], fy - cc[1]))
    assert worst < 1e-10


def test_denominator_is_image_area(octa_regions, fresh_rng):
    """Q3 vanishes exactly where the three images are collinear: it equals
    eight times the signed area of the image triangle."""
    region = octa_regions.regions[0]
    rng = fresh_rng(1)
    rm = build_rational_map(region, (0, 2, 4))
    for _ in range(50):
        x, y = rng.random() * 1.2, rng.random()
        pi, pj, pk = (region.isometries[n].apply((x, y)) for n in (0, 2, 4))
        area2 = ((pj[0] - pi[0]) * (pk[1] - pi[1])
                 - (pj[1] - pi[1]) * (pk[0] - pi[0]))
        assert rm.denominator(np.float64(x), np.float64(y)) == \
            pytest.approx(4 * area2, rel=1e-9, abs=1e-12)


def _all_floats(values):
    return all(type(v) is float for v in values)


def test_region_fits_and_rational_maps_hold_python_floats(octa_regions):
    """Curve tracing evaluates the fitted coefficients at every sample;
    numpy scalars there would give the same values several times slower."""
    region = octa_regions.regions[0]
    assert _all_floats(v for iso in region.isometries
                       for v in (iso.a, iso.b, iso.c, iso.d, iso.tx, iso.ty))
    assert _all_floats(v for c in region.cone_constants for v in c)
    rm = build_rational_map(region, (0, 1, 2))
    assert _all_floats(v for q in (rm.q1, rm.q2, rm.q3) for v in q)


def test_marching_squares_brackets_hold_python_floats():
    xs = np.linspace(0.0, 1.0, 5)
    ys = np.linspace(0.0, 1.0, 5)
    gx, gy = np.meshgrid(xs, ys)
    vals = gx - 0.3 + 0.1 * gy
    chains = _marching_squares(vals, np.ones(vals.shape, dtype=bool), xs, ys,
                               lambda x, y: x - 0.3 + 0.1 * y)
    assert chains
    for chain in chains:
        for p, bracket in chain:
            assert _all_floats(p) and _all_floats(bracket)


def test_rational_map_zero_denominator_divides_like_arrays(octa_regions):
    """At a float zero of Q3 the map gives what numpy division gives
    (inf or nan), as on the contour grid, instead of raising."""
    rm = build_rational_map(octa_regions.regions[0], (0, 1, 2))
    zero = type(rm)(rm.indices, (1.0,) + (0.0,) * 5, (0.0,) * 6, (0.0,) * 6)
    with np.errstate(all="ignore"):
        fx, fy = zero.eval(0.5, 0.25)
    assert fx == math.inf and math.isnan(fy)


@given(st.lists(st.integers(0, 60), min_size=1, unique=True),
       st.integers(-5, 65))
def test_nearest_sorted_matches_min_with_lower_tie(values, x):
    values.sort()
    assert _nearest_sorted(values, x) == min(values, key=lambda v: abs(v - x))


def test_three_label_classes_on_octahedron(octa_curves):
    labels = {c.label for c in octa_curves}
    assert labels == {MULTI_VALUED, LIMIT, NEITHER}


def test_curve_samples_satisfy_equations(octa, octa_curves):
    eps_curve = 1e-6 * octa.diameter
    for c in octa_curves:
        for s in c.samples:
            if s.valid:
                assert s.residual < 10 * eps_curve
                assert s.d_gap < 1e-4 * octa.diameter


def test_limit_curves_are_straight_on_octahedron(octa_curves):
    found = 0
    for c in octa_curves:
        if c.label != LIMIT or len(c.polyline) < 5:
            continue
        pts = np.array(c.polyline)
        ln = sum(math.dist(pts[i], pts[i + 1])
                 for i in range(len(pts) - 1))
        sv = np.linalg.svd(pts - pts.mean(axis=0), compute_uv=False)
        assert sv[-1] / ln < 0.02
        found += 1
    assert found >= 1


def test_rational_representation_per_component(octa, octa_regions,
                                               octa_curves):
    region = octa_regions.regions[0]
    worst, checked, ncomp = check_rational_representation(
        octa, region, octa_curves, n_samples=60)
    assert checked >= 30
    assert ncomp >= 2
    assert worst < 100 * octa.eps_geom


def test_rational_representation_sees_dropped_curves(octa, octa_regions,
                                                     octa_curves):
    """Without the multi-valued curves, components merge across them and
    hold two formulas each; the check must sample them across their
    extent to see it."""
    region = octa_regions.regions[0]
    kept = [c for c in octa_curves if c.label != MULTI_VALUED]
    worst, _, _ = check_rational_representation(octa, region, kept,
                                                n_samples=100)
    assert worst == math.inf


def test_hyperbola_residuals_on_octahedron(octa, octa_regions, fresh_rng):
    rng = fresh_rng(2)
    bound = 1e-6 * octa.diameter ** 2
    for _ in range(5):
        orb = iterate(octa, octa.random_point(rng), max_steps=500)
        lim = orb.limit
        region = octa_regions.regions[octa_regions.locate(lim)]
        res = evaluate_f(octa, lim)
        hf = hyperbola_form(octa, region, region.chart(lim),
                            level=res.radius)
        assert hf.residual < bound
        assert hf.form_error < 1e-9
        assert hf.degenerate  # straight segments on the regular octahedron
        # degenerate case: the limit sits on a coordinate axis of the frame
        c, s_ = math.cos(-hf.frame_angle), math.sin(-hf.frame_angle)
        xy = region.chart(lim)
        x = xy[0] - hf.origin[0]
        y = xy[1] - hf.origin[1]
        zb = (c * x - s_ * y, s_ * x + c * y)
        assert min(abs(zb[0]), abs(zb[1])) < 1e-6 * octa.diameter


def test_hyperbola_nondegenerate_on_perturbed(perturbed, perturbed_regions,
                                              fresh_rng):
    rng = fresh_rng(3)
    bound = 1e-6 * perturbed.diameter ** 2
    nondegen = 0
    for _ in range(5):
        orb = iterate(perturbed, perturbed.random_point(rng), max_steps=500)
        lim = orb.limit
        region = perturbed_regions.regions[perturbed_regions.locate(lim)]
        res = evaluate_f(perturbed, lim)
        hf = hyperbola_form(perturbed, region, region.chart(lim),
                            level=res.radius)
        assert hf.residual < bound
        nondegen += not hf.degenerate
    assert nondegen >= 1


def test_limit_line_solve(octa, octa_regions, fresh_rng):
    rng = fresh_rng(4)
    orb = iterate(octa, octa.random_point(rng), max_steps=500)
    lim = orb.limit
    region = octa_regions.regions[octa_regions.locate(lim)]
    res = evaluate_f(octa, lim)
    xy = region.chart(lim)
    active = active_from_displacement(region, xy, res.radius,
                                      1e-5 * octa.diameter)
    assert len(active) >= 4
    pair = None
    for a, b in combinations(active, 2):
        comp = region.isometries[b].compose(region.isometries[a].inverse())
        ang = comp.rotation_angle() % (2 * math.pi)
        if min(ang, 2 * math.pi - ang) > 1e-9:
            pair = (a, b)
            break
    pts = limit_line_solve(region, *pair, res.radius)
    assert 1 <= len(pts) <= 4
    assert min(math.dist(xy, q) for q in pts) < 1e-5


def test_limit_line_solve_no_solution(octa, octa_regions):
    region = octa_regions.regions[0]
    from farmap.geom import glide_decomposition
    _, _, b0 = glide_decomposition(region.isometries[0])
    _, _, b1 = glide_decomposition(region.isometries[1])
    level = 0.5 * min(abs(b0), abs(b1))
    if level == 0.0:
        pytest.skip("zero glide length")
    with pytest.raises(NoSolution):
        limit_line_solve(region, 0, 1, level)


def test_limit_line_solve_collapsed_lines(octa, octa_regions):
    """At level == |glide| the two solution lines collapse onto the axis."""
    region = octa_regions.regions[0]
    from farmap.geom import glide_decomposition
    _, _, b0 = glide_decomposition(region.isometries[0])
    _, _, b1 = glide_decomposition(region.isometries[1])
    level = max(abs(b0), abs(b1))
    pts = limit_line_solve(region, 0, 1, level, inside_only=False)
    # one line for the larger glide, at most two for the other
    assert 1 <= len(pts) <= 2


def test_tied_labels_resolve_by_sorted_order(octa_regions):
    """A curve whose samples tie between labels takes the first label in
    sorted order, whatever order the samples come in."""
    region = octa_regions.regions[0]
    for labels in ([LIMIT, MULTI_VALUED], [MULTI_VALUED, LIMIT],
                   [NEITHER, MULTI_VALUED, MULTI_VALUED, NEITHER],
                   [NEITHER, LIMIT, MULTI_VALUED]):
        full = [CurveSample((float(i), 0.0), True, lab, 0.0, 0.0)
                for i, lab in enumerate(labels)]
        eq = SimpleNamespace(kind="type1", data=((0, 1, 2), (0, 1, 3)))
        curve = _make_curve(region, eq, full, list(range(len(full))))
        top = max(labels.count(lab) for lab in labels)
        assert curve.label == min(lab for lab in labels
                                  if labels.count(lab) == top)


# perturbed-octahedron region 1 has a two-sample curve whose labels tie
_TIE_SCRIPT = """
from farmap import presets
from farmap.cutlocus import build_regions, region_isometries
from farmap.curves import trace_curves
s = presets.make("perturbed-octahedron:seed=1")
region = build_regions(s).regions[1]
region_isometries(s, region)
for c in trace_curves(s, region, resolution=48):
    print(c.kind, c.data, c.label, len(c.polyline))
"""


def test_curve_labels_do_not_depend_on_string_hashing():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    outs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(
                       p for p in (src, os.environ.get("PYTHONPATH")) if p))
        run = subprocess.run([sys.executable, "-c", _TIE_SCRIPT], env=env,
                             capture_output=True, text=True, timeout=300,
                             check=True)
        outs.append(run.stdout)
    assert outs[0]
    assert outs[0] == outs[1]


def test_trace_curves_rejects_a_bad_isometry_fit(octa, monkeypatch):
    """One isometry fitted to a displaced source image leaves a fit
    residual far above float noise; curve samples are not classified on
    the polygon such a fit gives."""
    fit = cutlocus.fit_reversing_isometry
    calls = []

    def corrupt_first(src, dst):
        calls.append(1)
        if len(calls) == 1:
            dst = [list(p) for p in dst]
            dst[0][0] += 1e-6 * octa.diameter
        return fit(src, dst)

    monkeypatch.setattr(cutlocus, "fit_reversing_isometry", corrupt_first)
    region = cutlocus.build_regions(octa).regions[0]
    cutlocus.region_isometries(octa, region)
    assert region.fit_residual > 1e-9 * octa.diameter
    with pytest.raises(FitDegenerate):
        trace_curves(octa, region, resolution=16)
