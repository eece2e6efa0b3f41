"""Per-region rational representation of f, extraction of the special
curves where f is not (locally) one rational map, their classification
into multi-valued / limit / neither, and the rectangular-hyperbola
certification of limit points.

Residual fields are sampled on a grid over the region chart, zero contours
extracted by marching squares, crossings refined by bisection, and every
retained sample validated on the star polygon that the region's fitted
isometries give at it.
"""

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .errors import (AllTranslations, CompositionIsTranslation,
                     FitDegenerate, NoSolution)
from .cutlocus import _cell_transform
from .farthest import evaluate_f, max_good_radius, triple_conditions
from .geom import aff, aff_mul, glide_decomposition, point_in_polygon
from .star_unfold import unfold

MULTI_VALUED = "multi-valued"
LIMIT = "limit"
NEITHER = "neither"

# largest isometry-fit residual (x diameter) under which a region's curve
# samples are classified on the polygon its isometries give
FIT_TOL = 1e-9


# -- rational circumcenter maps ---------------------------------------------

@dataclass
class RationalMap:
    """Circumcenter of (I_i(x,y), I_j(x,y), I_k(x,y)) as (Q1/Q3, Q2/Q3)
    with Q* bivariate polynomials of degree <= 2, their coefficients held
    as tuples of floats."""
    indices: tuple
    q1: tuple
    q2: tuple
    q3: tuple

    def degree_bound_ok(self):
        return len(self.q1) == 6 and len(self.q2) == 6 and len(self.q3) == 6

    def eval(self, x, y):
        den = _qeval(self.q3, x, y)
        n1, n2 = _qeval(self.q1, x, y), _qeval(self.q2, x, y)
        try:
            return (n1 / den, n2 / den)
        except ZeroDivisionError:
            # a float denominator of zero divides as arrays do: inf or nan
            den = np.float64(den)
            return (n1 / den, n2 / den)

    def denominator(self, x, y):
        return _qeval(self.q3, x, y)


def _qeval(q, x, y):
    return (q[0] + q[1] * x + q[2] * y + q[3] * x * x + q[4] * x * y
            + q[5] * y * y)


def _iso_affines(iso):
    px = aff(iso.tx, iso.a, iso.b)
    py = aff(iso.ty, iso.c, iso.d)
    return px, py


def build_rational_map(region, triple):
    """Symbolic circumcenter of three image isometries.

    Perpendicular-bisector rows are affine because the isometries preserve
    |v|^2, so the quadratic terms of |I(v)|^2 cancel in differences.
    """
    i, j, k = triple
    ii, ij, ik = (region.isometries[i], region.isometries[j],
                  region.isometries[k])
    same = all(abs(x) < 1e-12 for x in (
        ii.a - ij.a, ii.b - ij.b, ii.c - ij.c, ii.d - ij.d,
        ii.a - ik.a, ii.b - ik.b, ii.c - ik.c, ii.d - ik.d))
    if same:
        raise AllTranslations(
            "all pairwise compositions are translations")

    def norm2_affine(iso):
        # |I(v)|^2 = |v|^2 + 2 (M^T t) . v + |t|^2 ; the |v|^2 part cancels
        mtx = iso.a * iso.tx + iso.c * iso.ty
        mty = iso.b * iso.tx + iso.d * iso.ty
        return aff(iso.tx ** 2 + iso.ty ** 2, 2 * mtx, 2 * mty)

    pix, piy = _iso_affines(ii)
    pjx, pjy = _iso_affines(ij)
    pkx, pky = _iso_affines(ik)
    a1x = 2 * (pjx - pix)
    a1y = 2 * (pjy - piy)
    b1 = norm2_affine(ij) - norm2_affine(ii)
    a2x = 2 * (pkx - pix)
    a2y = 2 * (pky - piy)
    b2 = norm2_affine(ik) - norm2_affine(ii)
    q3 = aff_mul(a1x, a2y) - aff_mul(a1y, a2x)
    q1 = aff_mul(b1, a2y) - aff_mul(b2, a1y)
    q2 = aff_mul(a1x, b2) - aff_mul(a2x, b1)
    return RationalMap((i, j, k), tuple(q1.tolist()), tuple(q2.tolist()),
                       tuple(q3.tolist()))


def _triple_distance(region, rmap, x, y):
    """D_{ijk}: distance from I_i(x, y) to the circumcenter (floats or
    arrays; inf where the circumcenter's denominator vanishes)."""
    fx, fy = rmap.eval(x, y)
    ax, ay = region.isometries[rmap.indices[0]].apply((x, y))
    return np.hypot(ax - fx, ay - fy)


def _cone_distance(region, n, x, y):
    """|phi_n(x, y) - C_n(s)|: distance from the source to cone point n."""
    ax, ay = region.isometries[n].apply((x, y))
    cx, cy = region.cone_constants[n]
    return np.hypot(ax - cx, ay - cy)


# -- curve extraction --------------------------------------------------------

@dataclass
class CurveSample:
    xy: tuple
    valid: bool
    label: str
    residual: float
    d_gap: float            # |equation value - d(p)| for the validity rule


@dataclass
class ClassifiedCurve:
    region_id: int
    kind: str               # "type1" | "type2" | "type3"
    data: tuple             # (Ta, Tb) | (Ta, n) | (m, n)
    polyline: list          # region-plane vertices
    label: str
    samples: list = field(default_factory=list)

    def residual_stats(self):
        vals = [s.residual for s in self.samples if s.valid]
        if not vals:
            return (math.nan, math.nan)
        return (max(vals), sum(vals) / len(vals))


def _grid_mask(poly, x, y):
    inside = np.zeros(x.shape, dtype=bool)
    n = len(poly)
    px = x.ravel()
    py = y.ravel()
    flags = np.zeros(px.shape, dtype=bool)
    j = n - 1
    for i in range(n):
        xi, yi = poly[i]
        xj, yj = poly[j]
        cond = (yi > py) != (yj > py)
        xcross = xi + (py - yi) / (yj - yi + 1e-300) * (xj - xi)
        flags ^= cond & (px < xcross)
        j = i
    inside = flags.reshape(x.shape)
    return inside


_MS_EDGES = {
    1: [(3, 2)], 2: [(1, 2)], 3: [(3, 1)], 4: [(0, 1)],
    6: [(0, 2)], 7: [(3, 0)], 8: [(0, 3)],
    9: [(0, 2)], 11: [(0, 1)], 12: [(1, 3)],
    13: [(1, 2)], 14: [(2, 3)],
}
# cell edge ids: 0 = top (i,j)-(i,j+1), 1 = right, 2 = bottom, 3 = left
# saddle codes 5 / 10 are resolved with the cell-center sign (asymptotic
# decider) inside the scan


def _marching_squares(vals, ok, xs, ys, center_fn):
    """Zero contours of vals over the grid; returns chained polylines of
    (linear-interpolated point, bracket) pairs for lazy refinement.

    `center_fn` evaluates the field at saddle-cell centers to resolve the
    connection ambiguity.
    """
    sgn = np.where(vals > 0, 1, -1)
    usable = ok & np.isfinite(vals)
    # the scan reads Python copies, so crossing points and brackets are
    # floats and every later scalar evaluation runs on floats
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

    # vectorized hunt for active cells: all four corners usable and not
    # all of one sign
    u00 = usable[:-1, :-1] & usable[:-1, 1:] & usable[1:, 1:] & \
        usable[1:, :-1]
    s00, s01 = sgn[:-1, :-1], sgn[:-1, 1:]
    s11, s10 = sgn[1:, 1:], sgn[1:, :-1]
    mixed = ~((s00 == s01) & (s01 == s11) & (s11 == s10))
    active = np.argwhere(u00 & mixed)

    segments = []
    for i, j in active.tolist():
        corners = ((i, j), (i, j + 1), (i + 1, j + 1), (i + 1, j))
        code = 0
        for bit, (ci, cj) in enumerate(corners):
            if sgn_l[ci][cj] > 0:
                code |= 1 << (3 - bit)
        if code in (0, 15):
            continue
        cell_edges = {
            0: (corners[0], corners[1]),
            1: (corners[1], corners[2]),
            2: (corners[3], corners[2]),
            3: (corners[0], corners[3]),
        }
        if code in (5, 10):
            cx = 0.5 * (xs[j] + xs[j + 1])
            cy = 0.5 * (ys[i] + ys[i + 1])
            cval = center_fn(cx, cy)
            if code == 5:
                pairs = [(0, 1), (2, 3)] if cval > 0 else [(0, 3), (1, 2)]
            else:
                pairs = [(0, 3), (1, 2)] if cval > 0 else [(0, 1), (2, 3)]
        else:
            pairs = _MS_EDGES.get(code, ())
        for e0, e1 in pairs:
            pts = []
            keys = []
            for e in (e0, e1):
                c0, c1 = cell_edges[e]
                if sgn_l[c0[0]][c0[1]] == sgn_l[c1[0]][c1[1]]:
                    break
                pts.append(edge_point(*c0, *c1))
                keys.append((min(c0, c1), max(c0, c1)))
            if len(pts) == 2:
                segments.append((keys[0], keys[1], pts[0], pts[1]))
    return _chain_segments(segments)


def _chain_segments(segments):
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
        # extend forward from k1, backward from k0; stop at junctions so
        # branches meeting at a common point stay separate curves
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
            keys[end] = key
        chains.append(chain)
    return chains


def _bisect_refine(fn, x0, y0, x1, y1, v0, v1, tol, iters=44):
    a, fa = (x0, y0), v0
    b, fb = (x1, y1), v1
    if fa == 0:
        return a
    if fb == 0:
        return b
    for _ in range(iters):
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


@dataclass
class _Equation:
    kind: str
    data: tuple
    field_fn: object      # residual field, floats or arrays
    value_fn: object      # equation value (for the validity d-check)


def _region_equations(surface, region, pairs1, pairs2, pairs3):
    """Equation objects for the detected Type 1/2/3 instances."""
    eqs = []
    needed = {t for ta, tb in pairs1 for t in (ta, tb)}
    needed |= {t for t, _ in pairs2}
    mapped = set()
    for t in sorted(needed):
        try:
            _cached_rmap(region, t)
        except AllTranslations:
            continue
        mapped.add(t)

    for ta, tb in sorted(pairs1):
        if ta not in mapped or tb not in mapped:
            continue
        rma, rmb = _cached_rmap(region, ta), _cached_rmap(region, tb)
        eqs.append(_Equation(
            "type1", (ta, tb),
            lambda x, y, rma=rma, rmb=rmb: (
                _triple_distance(region, rma, x, y)
                - _triple_distance(region, rmb, x, y)),
            lambda x, y, rma=rma: _triple_distance(region, rma, x, y)))
    for ta, n in sorted(pairs2):
        if ta not in mapped:
            continue
        rma = _cached_rmap(region, ta)
        eqs.append(_Equation(
            "type2", (ta, n),
            lambda x, y, rma=rma, n=n: (
                _triple_distance(region, rma, x, y)
                - _cone_distance(region, n, x, y)),
            lambda x, y, n=n: _cone_distance(region, n, x, y)))
    for m, n in sorted(pairs3):
        eqs.append(_Equation(
            "type3", (m, n),
            lambda x, y, m=m, n=n: (_cone_distance(region, m, x, y)
                                    - _cone_distance(region, n, x, y)),
            lambda x, y, n=n: _cone_distance(region, n, x, y)))
    return eqs


def probe_equations(surface, region):
    """Detect which equation instances can have valid solutions.

    Validity demands simultaneous goodness at the point, so only pairs that
    co-occur at a probe of a 6 x 6 grid (plus cone points whose distance
    comes within 0.08 x diameter of the radius there) are traced; goodness
    is an open condition, so probes near a curve see its participating
    triples.
    """
    grid = 6
    slack = 0.08 * surface.diameter
    poly = region.polygon
    xs0 = min(p[0] for p in poly)
    xs1 = max(p[0] for p in poly)
    ys0 = min(p[1] for p in poly)
    ys1 = max(p[1] for p in poly)
    margin = 0.02 * math.sqrt(region.area)
    probes = []
    for i in range(grid):
        for j in range(grid):
            x = xs0 + (i + 0.5) * (xs1 - xs0) / grid
            y = ys0 + (j + 0.5) * (ys1 - ys0) / grid
            if region.contains_planar((x, y), margin):
                try:
                    probes.append(region.chart_inverse((x, y)))
                except KeyError:
                    continue
    probes.extend(sp for _, sp in region.interior_samples(count=3))

    pairs1, pairs2, pairs3 = set(), set(), set()
    for sp in probes:
        u = unfold(surface, surface.antipode(sp))
        res = evaluate_f(surface, sp, unfolding=u)
        goods = sorted(g.indices for g in res.good)
        near_cones = [n for n, cut in enumerate(u.cuts)
                      if cut.length >= res.radius - slack]
        for ta, tb in combinations(goods, 2):
            pairs1.add((ta, tb))
        for ta in goods:
            for n in near_cones:
                pairs2.add((ta, n))
        for m, n in combinations(sorted(near_cones), 2):
            pairs3.add((m, n))
    return pairs1, pairs2, pairs3


def trace_curves(surface, region, resolution=512, *, eps_curve=None,
                 eps_fix=None):
    """Classified special curves of one region.

    Validity filtering runs per sample (a single algebraic component can
    cross between valid and invalid stretches), at most one sample per
    diameter / 120 of curve; curves are split into maximal valid runs and
    labelled by their sample majority. eps_curve and eps_fix default to
    the surface's.
    """
    diam = surface.diameter
    eps_tie = surface.eps_tie
    if eps_curve is None:
        eps_curve = surface.eps_curve
    if eps_fix is None:
        eps_fix = surface.eps_fix
    if region.isometries is None:
        raise ValueError("region isometries must be fitted first")
    # samples are classified on the star polygon the fitted isometries
    # give, which is only as exact as the fit (residuals seen: <= 1.4e-13)
    if not region.fit_residual <= FIT_TOL * diam:
        raise FitDegenerate(
            f"region {region.rid}: isometry fit residual "
            f"{region.fit_residual:.3g} exceeds {FIT_TOL:g} x diameter")
    # one errstate for every field evaluation, grid and scalar alike: a
    # vanishing circumcenter denominator gives inf, not a warning
    with np.errstate(all="ignore"):
        p1, p2, p3 = probe_equations(surface, region)
        equations = _region_equations(surface, region, p1, p2, p3)

        poly = region.polygon
        xs0 = min(p[0] for p in poly)
        xs1 = max(p[0] for p in poly)
        ys0 = min(p[1] for p in poly)
        ys1 = max(p[1] for p in poly)
        pad = 1e-6 * diam
        xs = np.linspace(xs0 - pad, xs1 + pad, resolution)
        ys = np.linspace(ys0 - pad, ys1 + pad, resolution)
        gx, gy = np.meshgrid(xs, ys)
        mask = _grid_mask(poly, gx, gy)

        out = []
        for eq in equations:
            vals = eq.field_fn(gx, gy)
            ok = mask & np.isfinite(vals)
            if not (np.any(vals[ok] > 0) and np.any(vals[ok] < 0)):
                continue

            chains = _marching_squares(vals, ok, xs, ys, eq.field_fn)
            for chain in chains:
                for piece in _split_at_corners(chain):
                    if len(piece) < 2:
                        continue
                    out.extend(_validate_and_label(
                        surface, region, eq, piece, eps_tie=eps_tie,
                        eps_curve=eps_curve, eps_fix=eps_fix,
                        spacing=diam / 120.0))
    cell = max(xs1 - xs0, ys1 - ys0) / resolution
    return dedup_curves(out, 3.0 * cell)


def _split_at_corners(chain, max_turn_deg=30.0):
    """Break a (point, bracket) chain at sharp turns (branches of distinct
    algebraic arcs can get glued where they cross)."""
    if len(chain) < 3:
        return [chain]
    cos_lim = math.cos(math.radians(max_turn_deg))
    pts = [p for p, _ in chain]
    pieces = []
    start = 0
    for i in range(1, len(chain) - 1):
        ax = pts[i][0] - pts[i - 1][0]
        ay = pts[i][1] - pts[i - 1][1]
        bx = pts[i + 1][0] - pts[i][0]
        by = pts[i + 1][1] - pts[i][1]
        na = math.hypot(ax, ay)
        nb = math.hypot(bx, by)
        if na == 0 or nb == 0:
            continue
        if (ax * bx + ay * by) / (na * nb) < cos_lim:
            pieces.append(chain[start:i + 1])
            start = i
    pieces.append(chain[start:])
    return pieces


def dedup_curves(curves, tol):
    """Drop curves geometrically covered by an already-kept curve of the
    same label (several equation pairs trace one locus where three or more
    triples tie simultaneously)."""
    kept = []
    for c in sorted(curves, key=lambda c: -len(c.polyline)):
        probes = [c.polyline[0], c.polyline[len(c.polyline) // 2],
                  c.polyline[-1]]
        dup = False
        for k in kept:
            if k.label != c.label:
                continue
            if all(_point_near_polyline(p, k.polyline, tol)
                   for p in probes):
                dup = True
                break
        if not dup:
            kept.append(c)
    return kept


def _point_near_polyline(p, poly, tol):
    from .geom import dist_point_seg
    if len(poly) == 1:
        return math.dist(p, poly[0]) < tol
    return any(dist_point_seg(p, poly[i], poly[i + 1]) < tol
               for i in range(len(poly) - 1))


def _validate_and_label(surface, region, eq, chain, *, eps_tie, eps_curve,
                        eps_fix, spacing):
    refined = [None] * len(chain)

    def pt(idx):
        # refinement is lazy: most chains die at triage and never pay
        if refined[idx] is None:
            p_lin, bracket = chain[idx]
            if bracket is None:
                refined[idx] = p_lin
            else:
                refined[idx] = _bisect_refine(eq.field_fn, *bracket,
                                              eps_curve)
        return refined[idx]

    # cheap triage: if a few spread probes are all invalid, drop the chain
    probe_idx = sorted({len(chain) // 4, len(chain) // 2,
                        (3 * len(chain)) // 4})
    probe = {i: _classify_sample(surface, region, eq, pt(i),
                                 eps_tie, eps_curve, eps_fix)
             for i in probe_idx}
    if not any(s.valid for s in probe.values()):
        return []

    samples = [None] * len(chain)
    for i, s in probe.items():
        samples[i] = s
    last = None
    validated = list(probe_idx)
    for idx in range(len(chain)):
        if samples[idx] is not None:
            last = pt(idx)
            continue
        xy = pt(idx)
        if last is not None and math.dist(xy, last) < spacing and \
                idx != len(chain) - 1:
            continue
        last = xy
        samples[idx] = _classify_sample(surface, region, eq, xy,
                                        eps_tie, eps_curve, eps_fix)
        validated.append(idx)
    validated.sort()

    # propagate each verdict to the nearest validated sample
    full = []
    for idx in range(len(chain)):
        s = samples[_nearest_sorted(validated, idx)]
        full.append(CurveSample(pt(idx), s.valid, s.label, s.residual,
                                s.d_gap))

    curves = []
    run = []
    for idx, s in enumerate(full):
        if s.valid:
            run.append(idx)
        else:
            if len(run) >= 2:
                curves.append(_make_curve(region, eq, full, run))
            run = []
    if len(run) >= 2:
        curves.append(_make_curve(region, eq, full, run))
    return curves


def _nearest_sorted(values, x):
    """The element of the sorted, non-empty list `values` nearest to x,
    the lower one on a tie."""
    k = bisect_left(values, x)
    if k == len(values) or (k > 0 and x - values[k - 1] <= values[k] - x):
        k -= 1
    return values[k]


def _make_curve(region, eq, full, run):
    smp = [full[i] for i in run]
    pts = [s.xy for s in smp]
    labels = [s.label for s in smp]
    # a tie between label counts goes to the first in sorted order, not
    # to the order of string hashes
    label = max(sorted(set(labels)), key=labels.count)
    return ClassifiedCurve(region.rid, eq.kind, eq.data, pts, label, smp)


def _classify_sample(surface, region, eq, xy, eps_tie, eps_curve, eps_fix):
    """Validity and label of one refined curve sample.

    The sample sits within the curve tolerance of the true locus, so the
    goodness and d-consistency checks carry a matching slack; the label
    comes from the region's own rational maps (on a Type-1 curve the two
    circumcenters either split into distinct farthest points or coincide,
    and the coinciding point is a limit point iff the map fixes it).
    Goodness and d(p) are decided on the star polygon that the region's
    isometries give at the sample, which `trace_curves` has checked
    against the fit residual.
    """
    resid = abs(eq.field_fn(*xy))
    val = eq.value_fn(*xy)
    tol_d = max(20 * eps_curve, 2 * eps_tie)
    # the cone distances are the cut lengths, whose maximum bounds d(p)
    # from below: an equation value under that bound can never satisfy the
    # d-consistency rule
    d_lo = max(_cone_distance(region, n, *xy)
               for n in range(len(region.isometries)))
    if resid > 10 * eps_curve or val < d_lo - tol_d:
        return CurveSample(xy, False, NEITHER, resid, math.inf)
    try:
        region.chart_inverse(xy)
    except KeyError:
        return CurveSample(xy, False, NEITHER, resid, math.inf)
    u = region.star_polygon(surface, xy)
    # goodness before the d-check: most samples fail it, and it costs less
    # than ranking the Voronoi candidates for d(p); type 3 names no triple
    triples = {"type1": eq.data, "type2": eq.data[:1]}.get(eq.kind, ())
    if not all(triple_conditions(u, t, slack=tol_d) is not None
               for t in triples):
        return CurveSample(xy, False, NEITHER, resid, math.inf)
    d_gap = abs(val - max(max_good_radius(u), d_lo))
    if d_gap > tol_d:
        return CurveSample(xy, False, NEITHER, resid, d_gap)

    if eq.kind != "type1":
        # type 2: a cone point plus an interior farthest point; type 3: two
        # cone points both farthest
        return CurveSample(xy, True, MULTI_VALUED, resid, d_gap)
    fa = _cached_rmap(region, eq.data[0]).eval(*xy)
    fb = _cached_rmap(region, eq.data[1]).eval(*xy)
    if math.dist(fa, fb) > max(eps_fix, 20 * eps_curve):
        label = MULTI_VALUED
    else:
        mid = ((fa[0] + fb[0]) / 2, (fa[1] + fb[1]) / 2)
        label = LIMIT if math.dist(mid, xy) < eps_fix else NEITHER
    return CurveSample(xy, True, label, resid, d_gap)


def _cached_rmap(region, triple):
    cache = getattr(region, "_rmap_cache", None)
    if cache is None:
        cache = {}
        region._rmap_cache = cache
    if triple not in cache:
        cache[triple] = build_rational_map(region, triple)
    return cache[triple]


# -- hyperbola normal form ----------------------------------------------------

@dataclass
class HyperbolaForm:
    alpha: float
    r1: float
    r2: float
    origin: tuple
    frame_angle: float
    residual: float
    degenerate: bool
    form_error: float       # max deviation of I_i, I_j from the normal form


def active_from_displacement(region, xy, level, tol):
    """Indices whose isometry moves xy by exactly `level` (the minimizer
    set of eq-star form), in the region's own indexing.

    This stays valid for limit points on region boundaries, where the
    point's own unfolding may index cone points differently."""
    out = []
    for n, iso in enumerate(region.isometries):
        if abs(math.dist(iso.apply(xy), xy) - level) < tol:
            out.append(n)
    return out


def hyperbola_form(surface, region, limit_xy, level):
    """Normal frame at a limit point (origin at the glide-axis crossing,
    real axis bisecting the axes) and the residual of the
    rectangular-hyperbola equation there.

    The region-frame indices of the minimizers at the limit point are
    those whose isometry moves it by `level`, the radius there; the first
    pair whose isometry composition is a proper rotation is used. The
    form is degenerate when its glide lengths agree within
    `surface.eps_geom`.
    """
    # true minimizer displacements cluster within the fixed-point
    # residual; competing branches sit orders of magnitude further out
    active = active_from_displacement(region, limit_xy, level,
                                      1e-5 * surface.diameter)
    if len(active) < 2:
        active = active_from_displacement(region, limit_xy, level,
                                          1e-4 * surface.diameter)
    pair = None
    for i, j in combinations(sorted(active), 2):
        comp = region.isometries[j].compose(region.isometries[i].inverse())
        ang = comp.rotation_angle() % (2 * math.pi)
        if min(ang, 2 * math.pi - ang) > 1e-9:
            pair = (i, j)
            break
    if pair is None:
        raise CompositionIsTranslation(
            "no rotational pair among the active indices")
    i, j = pair
    pt_i, u_i, b_i = glide_decomposition(region.isometries[i])
    pt_j, u_j, b_j = glide_decomposition(region.isometries[j])
    mu_i = math.atan2(u_i[1], u_i[0]) % math.pi
    mu_j = math.atan2(u_j[1], u_j[0]) % math.pi
    alpha = (mu_j - mu_i) % math.pi
    if min(alpha, math.pi - alpha) < 1e-12:
        raise CompositionIsTranslation("axes are parallel")
    # origin: intersection of the two glide axes
    d = u_i[0] * u_j[1] - u_i[1] * u_j[0]
    rx = pt_j[0] - pt_i[0]
    ry = pt_j[1] - pt_i[1]
    s = (rx * u_j[1] - ry * u_j[0]) / d
    origin = (pt_i[0] + s * u_i[0], pt_i[1] + s * u_i[1])
    rho = mu_i + alpha / 2.0

    def to_frame(p):
        c, s_ = math.cos(-rho), math.sin(-rho)
        x, y = p[0] - origin[0], p[1] - origin[1]
        return (c * x - s_ * y, s_ * x + c * y)

    # signed glide lengths measured along the frame axis directions; the
    # +a/2-axis glide is reported as R1 so the displacement identity reads
    # ||I_i - id||^2 - ||I_j - id||^2 = 8 sin(a) x y - (R1^2 - R2^2),
    # making the residual |8 sin(a) x y - (R1^2 - R2^2)| vanish on limits
    gi = (b_i * u_i[0], b_i * u_i[1])
    gj = (b_j * u_j[0], b_j * u_j[1])
    c, s_ = math.cos(-rho), math.sin(-rho)
    gi_f = (c * gi[0] - s_ * gi[1], s_ * gi[0] + c * gi[1])
    gj_f = (c * gj[0] - s_ * gj[1], s_ * gj[0] + c * gj[1])
    e_i = (math.cos(-alpha / 2), math.sin(-alpha / 2))
    e_j = (math.cos(alpha / 2), math.sin(alpha / 2))
    r2 = gi_f[0] * e_i[0] + gi_f[1] * e_i[1]
    r1 = gj_f[0] * e_j[0] + gj_f[1] * e_j[1]

    form_error = _normal_form_error(region, i, j, origin, rho, alpha,
                                    r2, r1, surface.diameter)
    xb, yb = to_frame(limit_xy)
    residual = abs(8.0 * math.sin(alpha) * xb * yb - (r1 * r1 - r2 * r2))
    degenerate = abs(abs(r1) - abs(r2)) < surface.eps_geom
    return HyperbolaForm(alpha, r1, r2, origin, rho, residual, degenerate,
                         form_error)


def _normal_form_error(region, i, j, origin, rho, alpha, glide_i, glide_j,
                       diam):
    """Check I_i(z) = e^{-ia} conj(z) + g_i e^{-ia/2} (and the mirror for
    j) at a few probe points, in the normal frame."""
    import cmath
    zs = [complex(0.13 * diam, -0.07 * diam),
          complex(-0.21 * diam, 0.11 * diam),
          complex(0.05 * diam, 0.17 * diam)]
    rot = cmath.exp(-1j * rho)
    shift = complex(*origin)
    worst = 0.0
    for z in zs:
        w = z / rot + shift        # back to chart coords
        for iso, sgn, rr in ((region.isometries[i], -1.0, glide_i),
                             (region.isometries[j], +1.0, glide_j)):
            img = iso.apply((w.real, w.imag))
            img_f = (complex(*img) - shift) * rot
            want = cmath.exp(sgn * 1j * alpha) * z.conjugate() + \
                rr * cmath.exp(sgn * 1j * alpha / 2)
            worst = max(worst, abs(img_f - want))
    return worst


def check_rational_representation(surface, region, curves, *,
                                  n_samples=100):
    """Per component of the region minus the traced curves, confirm that f
    is one rational circumcenter map (or one constant cone point).

    The components are those of a 24 x 24 lattice over the region.
    Returns (worst_gap, n_checked, n_components). The gap compares the
    component's formula against the exact evaluator in the anchored
    developing frame, so both sides are planar points.
    """
    grid = 24
    poly = region.polygon
    xs0 = min(p[0] for p in poly)
    xs1 = max(p[0] for p in poly)
    ys0 = min(p[1] for p in poly)
    ys1 = max(p[1] for p in poly)
    cell = max(xs1 - xs0, ys1 - ys0) / grid
    margin = 1.5 * cell
    pts = {}
    for i in range(grid):
        for j in range(grid):
            x = xs0 + (i + 0.5) * (xs1 - xs0) / grid
            y = ys0 + (j + 0.5) * (ys1 - ys0) / grid
            if not region.contains_planar((x, y), 0.3 * cell):
                continue
            near_curve = any(
                _point_near_polyline((x, y), c.polyline, margin)
                for c in curves if c.region_id == region.rid)
            if not near_curve:
                pts[(i, j)] = (x, y)
    # flood fill lattice components
    comp = {}
    cid = 0
    for key in sorted(pts):
        if key in comp:
            continue
        stack = [key]
        comp[key] = cid
        while stack:
            ci, cj = stack.pop()
            for ni, nj in ((ci + 1, cj), (ci - 1, cj), (ci, cj + 1),
                           (ci, cj - 1)):
                if (ni, nj) in pts and (ni, nj) not in comp:
                    comp[(ni, nj)] = cid
                    stack.append((ni, nj))
        cid += 1

    by_comp = {}
    for key, c in comp.items():
        by_comp.setdefault(c, []).append(pts[key])
    worst = 0.0
    checked = 0
    per_comp = max(1, n_samples // max(1, len(by_comp)))
    for c, samples in sorted(by_comp.items()):
        formula = None
        # spread over the component: its first points in lattice order
        # sit in one corner, and a component that wrongly spans a curve
        # shows it only across its extent
        n = min(per_comp, len(samples))
        for xy in (samples[k * len(samples) // n] for k in range(n)):
            try:
                sp = region.chart_inverse(xy)
            except KeyError:
                continue
            u = unfold(surface, surface.antipode(sp))
            res = evaluate_f(surface, sp, unfolding=u)
            fp = max(res.points, key=lambda q: q.distance)
            if fp.provenance == "cone":
                vid = u.cuts[fp.indices[0]].vid
                if formula is None:
                    formula = ("cone", vid)
                elif formula != ("cone", vid):
                    worst = math.inf
                checked += 1
                continue
            triple = fp.indices
            if formula is None:
                formula = ("triple", triple)
            elif formula != ("triple", triple):
                worst = math.inf
                checked += 1
                continue
            rm = _cached_rmap(region, triple)
            pred = rm.eval(*xy)
            img, t_chart = u.dev_point(sp)
            w = _cell_transform(region, sp)
            anchor = w.compose(t_chart.inverse())
            true_pt = anchor.apply(fp.center)
            worst = max(worst, math.dist(pred, true_pt))
            checked += 1
    return worst, checked, len(by_comp)


def limit_line_solve(region, i, j, level, *, inside_only=True):
    """Solutions of ||I_i(x)-x|| = ||I_j(x)-x|| = level: up to 4 points.

    Each equation cuts out at most two lines parallel to the glide axis;
    NoSolution is raised when the level undershoots a glide length. Points
    within 1e-7 of the region boundary count as inside (limit points sit
    on the cut locus closure).
    """
    from .geom import dist_point_polygon_boundary
    pt_i, u_i, b_i = glide_decomposition(region.isometries[i])
    pt_j, u_j, b_j = glide_decomposition(region.isometries[j])
    if level < abs(b_i) or level < abs(b_j):
        raise NoSolution("level is below a glide translation length")
    d = u_i[0] * u_j[1] - u_i[1] * u_j[0]
    if abs(d) < 1e-12:
        raise CompositionIsTranslation("axes are parallel")

    def lines(pt, u, b):
        h = math.sqrt(max(0.0, level * level - b * b)) / 2.0
        n = (-u[1], u[0])
        return [(pt[0] + sgn * h * n[0], pt[1] + sgn * h * n[1])
                for sgn in ((0.0,) if h == 0.0 else (-1.0, 1.0))]

    pts = []
    for base_i in lines(pt_i, u_i, b_i):
        for base_j in lines(pt_j, u_j, b_j):
            rx = base_j[0] - base_i[0]
            ry = base_j[1] - base_i[1]
            s = (rx * u_j[1] - ry * u_j[0]) / d
            p = (base_i[0] + s * u_i[0], base_i[1] + s * u_i[1])
            keep = (not inside_only or point_in_polygon(p, region.polygon)
                    or dist_point_polygon_boundary(
                        p, region.polygon) < 1e-7)
            if keep:
                pts.append(p)
    return pts
