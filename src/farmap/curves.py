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
from .farthest import evaluate_f, ranked_good_triples, triple_conditions
from .geom import aff, aff_mul, glide_decomposition
from .star_unfold import unfold

MULTI_VALUED = "multi-valued"
LIMIT = "limit"
NEITHER = "neither"

# largest isometry-fit residual (x diameter) under which a region's curve
# samples are classified on the polygon its isometries give
FIT_TOL = 1e-9


# -- rational circumcenter maps ---------------------------------------------
#
# A distance-term row holds the isometry (a, b, c, d, tx, ty) of an image
# I followed by the coefficients of three bivariate quadratics q1, q2, q3
# (Python floats), for the map Q = (q1/q3, q2/q3); the term is |I - Q|.

def _qeval(q, x, y):
    return (q[0] + q[1] * x + q[2] * y + q[3] * x * x + q[4] * x * y
            + q[5] * y * y)


def _iso_affines(iso):
    px = aff(iso.tx, iso.a, iso.b)
    py = aff(iso.ty, iso.c, iso.d)
    return px, py


def build_rational_map(region, triple):
    """Row of D_{ijk}, the distance from I_i(x, y) to the circumcenter of
    (I_i, I_j, I_k)(x, y): the isometry of I_i, then q1, q2, q3.

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
    return (ii.a, ii.b, ii.c, ii.d, ii.tx, ii.ty) + tuple(q1.tolist()) + \
        tuple(q2.tolist()) + tuple(q3.tolist())


def _center(r, x, y):
    """Q(x, y) = (q1/q3, q2/q3) of a row r; coefficients and coordinates
    are floats or arrays (a (24, n) array holds one row per element). A
    float q3 of zero divides as arrays do: inf or nan."""
    den = _qeval(r[18:24], x, y)
    n1, n2 = _qeval(r[6:12], x, y), _qeval(r[12:18], x, y)
    try:
        return n1 / den, n2 / den
    except ZeroDivisionError:
        den = np.float64(den)
        return n1 / den, n2 / den


def _term(r, x, y):
    """|I(x, y) - Q(x, y)| for a row r, as `_center` takes it; inf where
    q3 vanishes."""
    fx, fy = _center(r, x, y)
    return np.hypot(r[0] * x + r[1] * y + r[4] - fx,
                    r[2] * x + r[3] * y + r[5] - fy)


def _cone_row(region, n):
    """Row of |phi_n(x, y) - C_n(s)|, the distance from the source to cone
    point n: Q is the constant map C_n."""
    iso = region.isometries[n]
    cx, cy = region.cone_constants[n]
    zero = (0.0,) * 5
    return (iso.a, iso.b, iso.c, iso.d, iso.tx, iso.ty, cx) + zero + \
        (cy,) + zero + (1.0,) + zero


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


# segment edge pairs of each cell code, whose bits 8, 4, 2, 1 mark the
# positive corners (i,j), (i,j+1), (i+1,j+1), (i+1,j); cell edge ids:
# 0 = top (i,j)-(i,j+1), 1 = right, 2 = bottom, 3 = left. The saddle rows 5
# and 10 connect for a positive cell center (asymptotic decider); a saddle
# whose center is not positive connects as the other saddle code does
_MS_PAIRS = np.array([
    [(-1, -1), (-1, -1)], [(3, 2), (-1, -1)], [(1, 2), (-1, -1)],
    [(3, 1), (-1, -1)], [(0, 1), (-1, -1)], [(0, 1), (2, 3)],
    [(0, 2), (-1, -1)], [(3, 0), (-1, -1)], [(0, 3), (-1, -1)],
    [(0, 2), (-1, -1)], [(0, 3), (1, 2)], [(0, 1), (-1, -1)],
    [(1, 3), (-1, -1)], [(1, 2), (-1, -1)], [(2, 3), (-1, -1)],
    [(-1, -1), (-1, -1)]])
# grid offset of the first corner of each cell edge; odd edges run down
_MS_DI = np.array([0, 0, 1, 0])
_MS_DJ = np.array([0, 1, 0, 0])


def _marching_squares(vals, ok, xs, ys, center_fn):
    """Zero contours of vals over the grid; returns chained polylines of
    (linear-interpolated point, bracket) pairs of Python floats for
    refinement.

    `center_fn` evaluates the field at the saddle-cell centers (arrays) to
    resolve the connection ambiguity.
    """
    pos = vals > 0
    usable = ok & np.isfinite(vals)
    # active cells: all four corners usable and not all of one sign
    u00 = usable[:-1, :-1] & usable[:-1, 1:] & usable[1:, 1:] & \
        usable[1:, :-1]
    code = 8 * pos[:-1, :-1] + 4 * pos[:-1, 1:] + 2 * pos[1:, 1:] + \
        pos[1:, :-1]
    i, j = np.nonzero(u00 & (code % 15 != 0))
    code = code[i, j]
    sad = np.flatnonzero((code == 5) | (code == 10))
    cval = center_fn(0.5 * (xs[j[sad]] + xs[j[sad] + 1]),
                     0.5 * (ys[i[sad]] + ys[i[sad] + 1]))
    code[sad[~(cval > 0)]] ^= 15

    pairs = _MS_PAIRS[code].reshape(-1, 2)
    keep = pairs[:, 0] >= 0
    cell = np.repeat(np.arange(len(code)), 2)[keep]
    e = pairs[keep]
    # each segment end's edge, from its first corner (i0, j0)
    i0 = i[cell, None] + _MS_DI[e]
    j0 = j[cell, None] + _MS_DJ[e]
    down = e % 2
    i1, j1 = i0 + down, j0 + 1 - down
    x0, y0, x1, y1 = xs[j0], ys[i0], xs[j1], ys[i1]
    v0, v1 = vals[i0, j0], vals[i1, j1]
    w = v0 / (v0 - v1)
    cols = (x0 + w * (x1 - x0), y0 + w * (y1 - y0), x0, y0, x1, y1, v0, v1)
    px, py, *bracket = (c.ravel().tolist() for c in cols)
    ends = list(zip(zip(px, py), zip(*bracket)))
    keys = (2 * (i0 * vals.shape[1] + j0) + down).ravel().tolist()
    return _chain_segments(list(zip(keys[0::2], keys[1::2], ends[0::2],
                                    ends[1::2])))


def _chain_segments(segments):
    """Polylines of the segments (key0, key1, end0, end1) joined where they
    share an end key; a key not shared by exactly two segments ends a
    chain, so branches meeting at a common point stay separate curves."""
    adj = {}
    for s, (k0, k1, _, _) in enumerate(segments):
        adj.setdefault(k0, []).append(s)
        adj.setdefault(k1, []).append(s)
    used = [False] * len(segments)
    chains = []
    for s0, (k0, k1, p0, p1) in enumerate(segments):
        if used[s0]:
            continue
        used[s0] = True
        # extend forward from k1, then backward from k0
        runs = []
        for key in (k1, k0):
            run, s = [], s0
            while len(adj[key]) == 2:
                a, b = adj[key]
                s = b if a == s else a
                if used[s]:
                    break
                used[s] = True
                ka, kb, pa, pb = segments[s]
                key, p = (kb, pb) if ka == key else (ka, pa)
                run.append(p)
            runs.append(run)
        chains.append(runs[1][::-1] + [p0, p1] + runs[0])
    return chains


# pending chain points above which the crossings gathered so far are
# refined and validated, which bounds the arrays of one refinement batch
_PENDING = 4096


def _bisect(coef, k, br, tol):
    """Bisection of every bracket row (x0, y0, x1, y1, v0, v1) of br on the
    field of equation k[n], whose two distance-term rows are coef[:, :, k[n]]
    (coef of shape (2, 24, equations)).

    Each element takes the steps of a scalar bisection of at most 44
    halvings: it stops when the bracket is shorter than tol, and stops
    without an update where the field is not finite. Returns the refined
    points as lists of x and y floats."""
    x0, y0, x1, y1, v0, v1 = br.T
    ax, ay, fa = x0.copy(), y0.copy(), v0.copy()
    bx, by = x1.copy(), y1.copy()
    live = np.flatnonzero((v0 != 0) & (v1 != 0))
    for _ in range(44):
        if not live.size:
            break
        kl = k[live]
        mx = (ax[live] + bx[live]) / 2
        my = (ay[live] + by[live]) / 2
        fm = _term(coef[0][:, kl], mx, my) - _term(coef[1][:, kl], mx, my)
        fin = np.isfinite(fm)
        to_a = fin & ((fm > 0) == (fa[live] > 0))
        to_b = fin & ~to_a
        n = live[to_a]
        ax[n], ay[n], fa[n] = mx[to_a], my[to_a], fm[to_a]
        n = live[to_b]
        bx[n], by[n] = mx[to_b], my[to_b]
        live = live[fin & ~(np.hypot(ax[live] - bx[live],
                                     ay[live] - by[live]) < tol)]
    px, py = (ax + bx) / 2, (ay + by) / 2
    # a zero end of the bracket is the crossing itself
    px, py = np.where(v1 == 0, x1, px), np.where(v1 == 0, y1, py)
    px, py = np.where(v0 == 0, x0, px), np.where(v0 == 0, y0, py)
    return px.tolist(), py.tolist()


@dataclass
class _Equation:
    kind: str
    data: tuple
    rows: tuple           # two distance-term rows; the field subtracts them

    def field(self, x, y):
        """Residual field, floats or arrays."""
        return _term(self.rows[0], x, y) - _term(self.rows[1], x, y)


def _region_equations(surface, region, pairs1, pairs2, pairs3):
    """Equation objects for the detected Type 1/2/3 instances."""
    eqs = []
    needed = {t for ta, tb in pairs1 for t in (ta, tb)}
    needed |= {t for t, _ in pairs2}
    rows = {}
    for t in sorted(needed):
        try:
            rows[t] = build_rational_map(region, t)
        except AllTranslations:
            continue

    for ta, tb in sorted(pairs1):
        if ta in rows and tb in rows:
            eqs.append(_Equation("type1", (ta, tb), (rows[ta], rows[tb])))
    for ta, n in sorted(pairs2):
        if ta in rows:
            eqs.append(_Equation("type2", (ta, n),
                                 (rows[ta], _cone_row(region, n))))
    for m, n in sorted(pairs3):
        eqs.append(_Equation("type3", (m, n),
                             (_cone_row(region, m), _cone_row(region, n))))
    return eqs


def _box(region):
    """Bounding box (x0, x1, y0, y1) of the region outline."""
    xs, ys = zip(*region.polygon.vertices)
    return min(xs), max(xs), min(ys), max(ys)


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
    xs0, xs1, ys0, ys1 = _box(region)
    margin = 0.02 * math.sqrt(region.area)
    probes = []
    for i in range(grid):
        for j in range(grid):
            x = xs0 + (i + 0.5) * (xs1 - xs0) / grid
            y = ys0 + (j + 0.5) * (ys1 - ys0) / grid
            if region.polygon.contains((x, y), margin):
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

        xs0, xs1, ys0, ys1 = _box(region)
        pad = 1e-6 * diam
        xs = np.linspace(xs0 - pad, xs1 + pad, resolution)
        ys = np.linspace(ys0 - pad, ys1 + pad, resolution)
        gx, gy = np.meshgrid(xs, ys)
        mask = region.polygon.inside_grid(gx, gy)

        def classify(eq, xy):
            return _classify_sample(surface, region, eq, xy, eps_tie,
                                    eps_curve, eps_fix)

        spacing = diam / 120.0
        out = []
        pending = []            # chain pieces awaiting refinement
        for eq in equations:
            vals = eq.field(gx, gy)
            ok = mask & np.isfinite(vals)
            if not (np.any(vals[ok] > 0) and np.any(vals[ok] < 0)):
                continue
            for chain in _marching_squares(vals, ok, xs, ys, eq.field):
                pending.extend((eq, np.array([br for _, br in piece]))
                               for piece in _split_at_corners(chain)
                               if len(piece) >= 2)
            if sum(len(br) for _, br in pending) > _PENDING:
                out.extend(_validate_pieces(region, pending, classify,
                                            eps_curve, spacing))
                pending = []
        out.extend(_validate_pieces(region, pending, classify, eps_curve,
                                    spacing))
    cell = max(xs1 - xs0, ys1 - ys0) / resolution
    return dedup_curves(out, 3.0 * cell)


def _split_at_corners(chain):
    """Break a (point, bracket) chain at turns sharper than 30 degrees
    (branches of distinct algebraic arcs can get glued where they
    cross)."""
    if len(chain) < 3:
        return [chain]
    cos_lim = math.cos(math.radians(30.0))
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


def _validate_pieces(region, pieces, classify, tol, spacing):
    """Curves of the chain pieces, (equation, (n, 6) array of the
    brackets of the piece's points) pairs, in their order.

    The crossings are refined in two batches: first the triage probes of
    every piece, a few spread points, dropping each piece whose probes are
    all invalid; then every point of the pieces that remain."""
    if not pieces:
        return []
    coef = np.array([eq.rows for eq, _ in pieces]).transpose(1, 2, 0)

    def refine(sel, brs):
        # refined points of the bracket arrays brs of the pieces sel
        k = np.repeat(sel, [len(br) for br in brs])
        return iter(list(zip(*_bisect(coef, k, np.concatenate(brs), tol))))

    probes = [sorted({len(br) // 4, len(br) // 2, (3 * len(br)) // 4})
              for _, br in pieces]
    xy = refine(range(len(pieces)),
                [br[idx] for (_, br), idx in zip(pieces, probes)])
    kept = {}
    for p, ((eq, _), idx) in enumerate(zip(pieces, probes)):
        probe = {i: classify(eq, next(xy)) for i in idx}
        if any(s.valid for s in probe.values()):
            kept[p] = probe
    if not kept:
        return []
    xy = refine(list(kept), [pieces[p][1] for p in kept])
    out = []
    for p, probe in kept.items():
        eq, br = pieces[p]
        out.extend(_validate_and_label(region, eq, [next(xy) for _ in br],
                                       probe, classify, spacing))
    return out


def _validate_and_label(region, eq, pts, probe, classify, spacing):
    """Curves of one piece with refined points pts, whose samples at the
    indices of probe are classified already."""
    samples = [None] * len(pts)
    for i, s in probe.items():
        samples[i] = s
    last = None
    validated = list(probe)
    for idx, xy in enumerate(pts):
        if samples[idx] is not None:
            last = xy
            continue
        if last is not None and math.dist(xy, last) < spacing and \
                idx != len(pts) - 1:
            continue
        last = xy
        samples[idx] = classify(eq, xy)
        validated.append(idx)
    validated.sort()

    # propagate each verdict to the nearest validated sample
    full = []
    for idx, xy in enumerate(pts):
        s = samples[_nearest_sorted(validated, idx)]
        full.append(CurveSample(xy, s.valid, s.label, s.residual, s.d_gap))

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
    comes from the region's own rational maps, the rows of the equation
    (on a Type-1 curve the two circumcenters either split into distinct
    farthest points or coincide, and the coinciding point is a limit point
    iff the map fixes it). Goodness and d(p) are decided on the star
    polygon that the region's isometries give at the sample, which
    `trace_curves` has checked against the fit residual.
    """
    ta, tb = _term(eq.rows[0], *xy), _term(eq.rows[1], *xy)
    resid = abs(ta - tb)
    # the equation's value: D_a on type 1, the cone distance otherwise
    val = ta if eq.kind == "type1" else tb
    tol_d = max(20 * eps_curve, 2 * eps_tie)
    u = region.star_polygon(surface, xy)
    # the cut lengths |phi_n - C_n| bound d(p) from below: an equation
    # value under that bound can never satisfy the d-consistency rule
    d_lo = max(np.hypot(px - cx, py - cy) for (px, py), (cx, cy)
               in zip(u.source_images, u.cone_images))
    if resid > 10 * eps_curve or val < d_lo - tol_d:
        return CurveSample(xy, False, NEITHER, resid, math.inf)
    try:
        region.chart_inverse(xy)
    except KeyError:
        return CurveSample(xy, False, NEITHER, resid, math.inf)
    # goodness before the d-check: most samples fail it, and it costs less
    # than ranking the Voronoi candidates for d(p); type 3 names no triple
    triples = {"type1": eq.data, "type2": eq.data[:1]}.get(eq.kind, ())
    if not all(triple_conditions(u, t, slack=tol_d) is not None
               for t in triples):
        return CurveSample(xy, False, NEITHER, resid, math.inf)
    # d(p): the largest good radius, or the longest cut if none reaches it
    top = next(ranked_good_triples(u, d_lo), None)
    d_gap = abs(val - (d_lo if top is None else top.radius))
    if d_gap > tol_d:
        return CurveSample(xy, False, NEITHER, resid, d_gap)

    if eq.kind != "type1":
        # type 2: a cone point plus an interior farthest point; type 3: two
        # cone points both farthest
        return CurveSample(xy, True, MULTI_VALUED, resid, d_gap)
    fa, fb = _center(eq.rows[0], *xy), _center(eq.rows[1], *xy)
    if math.dist(fa, fb) > max(eps_fix, 20 * eps_curve):
        label = MULTI_VALUED
    else:
        mid = ((fa[0] + fb[0]) / 2, (fa[1] + fb[1]) / 2)
        label = LIMIT if math.dist(mid, xy) < eps_fix else NEITHER
    return CurveSample(xy, True, label, resid, d_gap)



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
    xs0, xs1, ys0, ys1 = _box(region)
    cell = max(xs1 - xs0, ys1 - ys0) / grid
    margin = 1.5 * cell
    pts = {}
    for i in range(grid):
        for j in range(grid):
            x = xs0 + (i + 0.5) * (xs1 - xs0) / grid
            y = ys0 + (j + 0.5) * (ys1 - ys0) / grid
            if not region.polygon.contains((x, y), 0.3 * cell):
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
        formula = row = None
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
                row = build_rational_map(region, triple)
            elif formula != ("triple", triple):
                worst = math.inf
                checked += 1
                continue
            pred = _center(row, *xy)
            img, t_chart = u.dev_point(sp)
            anchor = region.cell_of(sp).chart.compose(t_chart.inverse())
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
            if not inside_only or region.polygon.contains(p, -1e-7):
                pts.append(p)
    return pts
