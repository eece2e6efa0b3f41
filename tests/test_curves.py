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
                           _bisect, _center, _cone_row, _Equation,
                           _make_curve, _marching_squares, _nearest_sorted,
                           _qeval, _region_equations, active_from_displacement,
                           build_rational_map, check_rational_representation,
                           hyperbola_form, limit_line_solve, probe_equations,
                           trace_curves)
from farmap.dynamics import iterate
from farmap.errors import FitDegenerate, NoSolution
from farmap.farthest import evaluate_f
from farmap.geom import circumcenter
from farmap.surface import build_from_gluing


@pytest.fixture(scope="module")
def octa_curves(octa, octa_regions):
    return trace_curves(octa, octa_regions.regions[0], resolution=128)


def test_rational_map_matches_circumcenter(octa_regions, fresh_rng):
    region = octa_regions.regions[0]
    rng = fresh_rng(0)
    row = build_rational_map(region, (0, 1, 2))
    assert len(row) == 24
    worst = 0.0
    for _ in range(100):
        x = 0.2 + rng.random()
        y = 0.1 + rng.random()
        imgs = [region.isometries[n].apply((x, y)) for n in (0, 1, 2)]
        cc = circumcenter(*imgs)
        if cc is None:
            continue
        fx, fy = _center(row, np.float64(x), np.float64(y))
        worst = max(worst, math.hypot(fx - cc[0], fy - cc[1]))
    assert worst < 1e-10


def test_denominator_is_image_area(octa_regions, fresh_rng):
    """Q3 vanishes exactly where the three images are collinear: it equals
    eight times the signed area of the image triangle."""
    region = octa_regions.regions[0]
    rng = fresh_rng(1)
    row = build_rational_map(region, (0, 2, 4))
    for _ in range(50):
        x, y = rng.random() * 1.2, rng.random()
        pi, pj, pk = (region.isometries[n].apply((x, y)) for n in (0, 2, 4))
        area2 = ((pj[0] - pi[0]) * (pk[1] - pi[1])
                 - (pj[1] - pi[1]) * (pk[0] - pi[0]))
        assert _qeval(row[18:24], np.float64(x), np.float64(y)) == \
            pytest.approx(4 * area2, rel=1e-9, abs=1e-12)


def _all_floats(values):
    return all(type(v) is float for v in values)


def test_region_fits_and_rational_maps_hold_python_floats(octa,
                                                         octa_regions):
    """Curve tracing evaluates the fitted coefficients at every sample and
    tests the region outline at every probe, and every antipode carries
    the antipodal charts into the unfolding; numpy scalars there would
    give the same values several times slower."""
    net = build_from_gluing(octa.to_net_spec())
    for s in (octa, net):
        assert _all_floats(v for iso in s.antipodal_iso
                           for v in (iso.a, iso.b, iso.c, iso.d, iso.tx,
                                     iso.ty))
        p = s.antipode(s.random_point(np.random.default_rng(0)))
        assert _all_floats(p.uv)
    region = octa_regions.regions[0]
    assert _all_floats(v for xy in region.polygon.vertices for v in xy)
    assert _all_floats(v for iso in region.isometries
                       for v in (iso.a, iso.b, iso.c, iso.d, iso.tx, iso.ty))
    assert _all_floats(v for c in region.cone_constants for v in c)
    assert _all_floats(build_rational_map(region, (0, 1, 2)))


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


# -- scalar references of the array passes ------------------------------------

def _ref_bisect(fn, x0, y0, x1, y1, v0, v1, tol):
    """One crossing refined by scalar bisection on the field fn."""
    a, fa = (x0, y0), v0
    b, fb = (x1, y1), v1
    if fa == 0:
        return a
    if fb == 0:
        return b
    for _ in range(44):
        m = ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)
        fm = fn(*m)
        if not math.isfinite(fm):
            break
        if (fm > 0) == (fa > 0):
            a, fa = m, fm
        else:
            b, fb = m, fm
        if math.dist(a, b) < tol:
            break
    return ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)


def _assert_bisect_matches_ref(eqs, brackets, tol):
    """_bisect on the brackets, bracket n on the field of eqs[n], gives
    the scalar reference's floats exactly."""
    coef = np.array([eq.rows for eq in eqs]).transpose(1, 2, 0)
    with np.errstate(all="ignore"):
        got = list(zip(*_bisect(coef, np.arange(len(eqs)),
                                np.array(brackets, dtype=float), tol)))
        want = [_ref_bisect(eq.field, *br, tol)
                for eq, br in zip(eqs, brackets)]
    assert all(_all_floats(p) for p in got)
    assert [tuple(v.hex() for v in p) for p in got] == \
        [tuple(float(v).hex() for v in p) for p in want]


def _grid_field(region, eq, res):
    poly = region.polygon.vertices
    xs = np.linspace(min(p[0] for p in poly), max(p[0] for p in poly), res)
    ys = np.linspace(min(p[1] for p in poly), max(p[1] for p in poly), res)
    gx, gy = np.meshgrid(xs, ys)
    vals = eq.field(gx, gy)
    return vals, region.polygon.inside_grid(gx, gy) & np.isfinite(vals), \
        xs, ys


def test_bisect_matches_scalar_reference_on_octahedron_equations(
        octa, octa_regions):
    """Every bracket of the first type-1 and type-2 equations of region 0
    whose fields change sign on the grid."""
    region = octa_regions.regions[0]
    with np.errstate(all="ignore"):
        eqs = _region_equations(octa, region,
                                *probe_equations(octa, region))
    tol = octa.eps_curve
    for kind in ("type1", "type2"):
        for eq in (e for e in eqs if e.kind == kind):
            with np.errstate(all="ignore"):
                vals, ok, xs, ys = _grid_field(region, eq, 48)
                chains = _marching_squares(vals, ok, xs, ys, eq.field)
            brackets = [br for chain in chains for _, br in chain]
            if brackets:
                break
        assert len(brackets) > 20, kind
        _assert_bisect_matches_ref([eq] * len(brackets), brackets, tol)


def test_bisect_matches_scalar_reference_on_synthetic_rows(
        octa, octa_regions, fresh_rng):
    """Cone-cone (type-3) rows on random brackets, brackets with a zero
    end, and a pole of q3 that stops a bisection without an update, all
    refined in one batch."""
    region = octa_regions.regions[0]
    rng = fresh_rng(5)
    tol = octa.eps_curve
    eqs, brackets = [], []
    for m, n in combinations(range(len(region.isometries)), 2):
        eq = _Equation("type3", (m, n),
                       (_cone_row(region, m), _cone_row(region, n)))
        for _ in range(5):
            x0, y0 = (float(v) for v in rng.random(2))
            x1, y1 = x0 + 0.05 * float(rng.random()), y0 - 0.03
            eqs.append(eq)
            brackets.append((x0, y0, x1, y1, float(eq.field(x0, y0)),
                             float(eq.field(x1, y1))))
    n_synthetic = len(eqs)
    # zero ends: the reference returns that end as it is
    for v0, v1 in ((0.0, 1.0), (-1.0, 0.0), (0.0, 0.0), (-0.0, 2.0)):
        eqs.append(eqs[0])
        brackets.append((0.1, 0.2, 0.3, 0.4, v0, v1))
    # Q = (1/x, 0) next to the identity: the first midpoint, x = 0, is a
    # pole of q3, where the field is not finite
    ident = (1.0, 0.0, 0.0, 1.0, 0.0, 0.0)
    pole = _Equation("type2", (None, 0),
                     (ident + (1.0,) + (0.0,) * 5 + (0.0,) * 6
                      + (0.0, 1.0) + (0.0,) * 4, _cone_row(region, 0)))
    eqs.append(pole)
    brackets.append((-0.5, 0.25, 0.5, 0.25, -1.0, 1.0))
    assert n_synthetic >= 15
    _assert_bisect_matches_ref(eqs, brackets, tol)
    with np.errstate(all="ignore"):
        assert not math.isfinite(pole.field(0.0, 0.25))
        got = _bisect(np.array([pole.rows]).transpose(1, 2, 0),
                      np.zeros(1, dtype=np.intp),
                      np.array([brackets[-1]]), tol)
    assert got == ([0.0], [0.25])


_REF_MS_EDGES = {
    1: [(3, 2)], 2: [(1, 2)], 3: [(3, 1)], 4: [(0, 1)],
    6: [(0, 2)], 7: [(3, 0)], 8: [(0, 3)],
    9: [(0, 2)], 11: [(0, 1)], 12: [(1, 3)],
    13: [(1, 2)], 14: [(2, 3)],
}


def _ref_marching_squares(vals, ok, xs, ys, center_fn):
    """Zero contours by a per-cell scan, chained as the reference
    chaining does."""
    sgn = np.where(vals > 0, 1, -1)
    usable = ok & np.isfinite(vals)
    sgn_l, vals_l = sgn.tolist(), vals.tolist()
    xs, ys = xs.tolist(), ys.tolist()
    cross_pts = {}

    def edge_point(i0, j0, i1, j1):
        key = ((i0, j0), (i1, j1))
        if key in cross_pts:
            return cross_pts[key]
        x0, y0, v0 = xs[j0], ys[i0], vals_l[i0][j0]
        x1, y1, v1 = xs[j1], ys[i1], vals_l[i1][j1]
        w = v0 / (v0 - v1)
        p = ((x0 + w * (x1 - x0), y0 + w * (y1 - y0)),
             (x0, y0, x1, y1, v0, v1))
        cross_pts[key] = p
        return p

    u00 = usable[:-1, :-1] & usable[:-1, 1:] & usable[1:, 1:] & \
        usable[1:, :-1]
    s00, s01 = sgn[:-1, :-1], sgn[:-1, 1:]
    s11, s10 = sgn[1:, 1:], sgn[1:, :-1]
    mixed = ~((s00 == s01) & (s01 == s11) & (s11 == s10))
    segments = []
    for i, j in np.argwhere(u00 & mixed).tolist():
        corners = ((i, j), (i, j + 1), (i + 1, j + 1), (i + 1, j))
        code = 0
        for bit, (ci, cj) in enumerate(corners):
            if sgn_l[ci][cj] > 0:
                code |= 1 << (3 - bit)
        cell_edges = {0: (corners[0], corners[1]),
                      1: (corners[1], corners[2]),
                      2: (corners[3], corners[2]),
                      3: (corners[0], corners[3])}
        if code in (5, 10):
            cval = center_fn(0.5 * (xs[j] + xs[j + 1]),
                             0.5 * (ys[i] + ys[i + 1]))
            if code == 5:
                pairs = [(0, 1), (2, 3)] if cval > 0 else [(0, 3), (1, 2)]
            else:
                pairs = [(0, 3), (1, 2)] if cval > 0 else [(0, 1), (2, 3)]
        else:
            pairs = _REF_MS_EDGES.get(code, ())
        for e0, e1 in pairs:
            pts, keys = [], []
            for e in (e0, e1):
                c0, c1 = cell_edges[e]
                if sgn_l[c0[0]][c0[1]] == sgn_l[c1[0]][c1[1]]:
                    break
                pts.append(edge_point(*c0, *c1))
                keys.append((min(c0, c1), max(c0, c1)))
            if len(pts) == 2:
                segments.append((keys[0], keys[1], pts[0], pts[1]))

    adj = {}
    for s, (k0, k1, p0, p1) in enumerate(segments):
        adj.setdefault(k0, []).append((s, 0))
        adj.setdefault(k1, []).append((s, 1))
    used = [False] * len(segments)
    chains = []
    for s0 in range(len(segments)):
        if used[s0]:
            continue
        used[s0] = True
        k0, k1, p0, p1 = segments[s0]
        chain = [p0, p1]
        keys = [k0, k1]
        for end in (1, 0):
            key = keys[end]
            while len(adj.get(key, ())) == 2:
                nxt = next(((s, side) for s, side in adj[key]
                            if not used[s]), None)
                if nxt is None:
                    break
                s, side = nxt
                used[s] = True
                ka, kb, pa, pb = segments[s]
                new_key = kb if side == 0 else ka
                new_pt = pb if side == 0 else pa
                if end == 1:
                    chain.append(new_pt)
                else:
                    chain.insert(0, new_pt)
                key = new_key
        chains.append(chain)
    return chains


def test_marching_squares_matches_per_cell_reference(fresh_rng):
    """Seeded random fields with masked and non-finite corners: the same
    chains in the same order, with the same points and brackets, and
    saddle cells of both codes under both center signs."""
    rng = fresh_rng(6)

    def center(x, y):
        return np.sin(9.0 * x) * np.cos(7.0 * y)

    saddles = set()
    for shape in ((12, 17), (30, 30), (41, 23)):
        xs = np.sort(rng.random(shape[1])) * 2.0
        ys = np.sort(rng.random(shape[0])) * 3.0
        for smooth in (False, True):
            vals = rng.normal(size=shape)
            if smooth:
                gx, gy = np.meshgrid(xs, ys)
                vals = np.sin(3.0 * gx + gy) * np.cos(2.0 * gy) + 0.3 * vals
            vals[rng.random(shape) < 0.03] = np.inf
            vals[rng.random(shape) < 0.03] = np.nan
            ok = rng.random(shape) > 0.08
            got = _marching_squares(vals, ok, xs, ys, center)
            assert got == _ref_marching_squares(vals, ok, xs, ys, center)
            for chain in got:
                for p, bracket in chain:
                    assert _all_floats(p) and _all_floats(bracket)
            pos = vals > 0
            usable = ok & np.isfinite(vals)
            code = 8 * pos[:-1, :-1] + 4 * pos[:-1, 1:] + \
                2 * pos[1:, 1:] + pos[1:, :-1]
            live = usable[:-1, :-1] & usable[:-1, 1:] & usable[1:, 1:] & \
                usable[1:, :-1]
            for i, j in np.argwhere(live & ((code == 5) | (code == 10))):
                c = center(0.5 * (xs[j] + xs[j + 1]),
                           0.5 * (ys[i] + ys[i + 1]))
                saddles.add((int(code[i, j]), bool(c > 0)))
    assert saddles == {(5, True), (5, False), (10, True), (10, False)}


def test_rational_map_zero_denominator_divides_like_arrays(octa_regions):
    """At a float zero of Q3 the map gives what numpy division gives
    (inf or nan), as on the contour grid, instead of raising."""
    row = build_rational_map(octa_regions.regions[0], (0, 1, 2))
    zero = row[:6] + (1.0,) + (0.0,) * 5 + (0.0,) * 6 + (0.0,) * 6
    with np.errstate(all="ignore"):
        fx, fy = _center(zero, 0.5, 0.25)
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
        region, cell = octa_regions.locate(lim)
        xy = cell.chart.apply(lim.uv)
        res = evaluate_f(octa, lim)
        hf = hyperbola_form(octa, region, xy,
                            level=res.radius)
        assert hf.residual < bound
        assert hf.form_error < 1e-9
        assert hf.degenerate  # straight segments on the regular octahedron
        # degenerate case: the limit sits on a coordinate axis of the frame
        c, s_ = math.cos(-hf.frame_angle), math.sin(-hf.frame_angle)
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
        region, cell = perturbed_regions.locate(lim)
        res = evaluate_f(perturbed, lim)
        hf = hyperbola_form(perturbed, region, cell.chart.apply(lim.uv),
                            level=res.radius)
        assert hf.residual < bound
        nondegen += not hf.degenerate
    assert nondegen >= 1


def test_limit_line_solve(octa, octa_regions, fresh_rng):
    rng = fresh_rng(4)
    orb = iterate(octa, octa.random_point(rng), max_steps=500)
    lim = orb.limit
    region, cell = octa_regions.locate(lim)
    res = evaluate_f(octa, lim)
    xy = cell.chart.apply(lim.uv)
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
