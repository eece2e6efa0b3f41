"""Orbit iteration for f = F o phi and numerical certification of the
no-periodic-points / limit-set / convergence statements.

When f is multi-valued the candidate with the lexicographically smallest
(face, u, v) key is chosen; any deterministic selection yields a valid
orbit and this one is reproducible. The choice is logged.
"""

import math
from dataclasses import dataclass, field

from .errors import MonotonicityViolation, NotConverged
from .farthest import evaluate_f
from .geodesics import distance, minimizers

K_CONV = 3  # consecutive small steps that declare convergence
# a periodic hit returns this many times closer than the step it started at
SEPARATION = 100.0


@dataclass
class Orbit:
    start: object
    points: list
    radii: list
    step_sizes: list
    status: str                      # "converged" | "budget"
    limit: object = None
    converged_step: int = None
    selection_log: list = field(default_factory=list)


@dataclass
class LimitCertificate:
    limit: object
    fixed_point_residual: float
    minimizer_count: int
    on_cone_point: bool
    radius: float


def _select(surface, result):
    """Index of the orbit successor among the farthest-point candidates.

    The exact map contains only true argmaxes; candidates admitted by the
    looser reporting tolerance but submaximal beyond float noise would
    fabricate short cycles, so selection re-ties at noise level before the
    lexicographic (face, u, v) rule."""
    noise = 1e-11 * surface.diameter
    top = max(fp.distance for fp in result.points)
    keyed = sorted((surface.canonical(fp.point).key(), i)
                   for i, fp in enumerate(result.points)
                   if fp.distance >= top - noise)
    return keyed[0][1]


def iterate(surface, p0, max_steps=500, eps_conv=None):
    """Follow the orbit of f from p0 until K_CONV consecutive steps are
    shorter than eps_conv (default `surface.eps_conv`), or the step budget
    runs out.

    Radii must be nondecreasing along the orbit (up to the tie tolerance);
    a drop signals an engine bug and raises MonotonicityViolation.
    """
    if eps_conv is None:
        eps_conv = surface.eps_conv
    eps_tie = surface.eps_tie
    p = surface.canonical(p0)
    points = [p]
    radii = []
    steps = []
    selections = []
    small = 0
    status = "budget"
    limit = None
    converged_step = None
    for n in range(max_steps):
        res = evaluate_f(surface, p)
        if radii and res.radius < radii[-1] - eps_tie:
            raise MonotonicityViolation(
                f"radius dropped from {radii[-1]!r} to {res.radius!r} "
                f"at step {n}")
        radii.append(res.radius)
        pick = _select(surface, res)
        selections.append((n, len(res.points), pick))
        nxt = surface.canonical(res.points[pick].point)
        gap = surface.chart_gap(p, nxt)
        step = gap if gap is not None else distance(surface, p, nxt)
        steps.append(step)
        points.append(nxt)
        p = nxt
        if step < eps_conv:
            small += 1
            if small >= K_CONV:
                status = "converged"
                limit = p
                converged_step = n + 1
                break
        else:
            small = 0
    radii.append(radii[-1] if radii else None)
    return Orbit(p0, points, radii[:len(points)], steps, status, limit,
                 converged_step, selections)


def certify_limit(surface, orbit):
    """Fixed-point residual and minimizer structure of a converged limit.

    A limit near a cone point counts as a cone-point limit: within
    1e-5 x diameter of a vertex the wrap-around minimizer pair differs
    from the straight pair by an amount comparable to the tie tolerance,
    so the parity count is numerically unresolvable there (and the parity
    statement is vacuous on the cone set itself).
    """
    if orbit.status != "converged":
        raise NotConverged("orbit did not converge within its budget")
    p = orbit.limit
    res = evaluate_f(surface, p)
    resid = math.inf
    for fp in res.points:
        gap = surface.chart_gap(p, fp.point)
        d = gap if gap is not None else distance(surface, p, fp.point)
        resid = min(resid, d)
    kind, _ = surface.classify(p, eps=1e-5 * surface.diameter)
    on_cone = kind == "vertex"
    count = 0
    if not on_cone:
        count = len(minimizers(surface, p, surface.antipode(p)))
    return LimitCertificate(p, resid, count, on_cone, res.radius)


def periodicity_scan(surface, orbit, max_period=20, eps_conv=None):
    """Hunt for m, n with p_m ~ p_{m+n} (n > 1) while the orbit still moves.

    A genuine n-cycle returns to machine precision while its steps stay
    macroscopic; a converging tail has return gaps comparable to its step
    sizes. The separation factor tells the two apart: a hit requires the
    return gap to be SEPARATION times smaller than the step at m (and
    below eps_conv, default `surface.eps_conv`). Chart-level coincidence
    prefilters; candidates are confirmed with an exact distance query.
    Expected result: no hits.
    """
    if eps_conv is None:
        eps_conv = surface.eps_conv
    pts = orbit.points
    hits = []
    for m in range(len(pts)):
        if m >= len(orbit.step_sizes):
            break
        step = orbit.step_sizes[m]
        if step < eps_conv:
            continue  # already (numerically) fixed, n=1 case
        for n in range(2, max_period + 1):
            if m + n >= len(pts):
                break
            gap = surface.chart_gap(pts[m], pts[m + n])
            if gap is None or gap > eps_conv:
                continue
            d = distance(surface, pts[m], pts[m + n])
            if d < eps_conv and d * SEPARATION < step:
                hits.append((m, n))
    return hits


def synthetic_cycle_orbit(surface, p, q, repeats=10):
    """Test fixture: a fake 2-cycle p, q, p, q, ... (not an f orbit)."""
    pts = [p, q] * repeats
    steps = [distance(surface, pts[i], pts[i + 1])
             for i in range(len(pts) - 1)]
    return Orbit(p, pts, [0.0] * len(pts), steps, "budget")


def orbit_csv_rows(orbit):
    """step, face, u, v, radius, step-size, candidates-count rows."""
    rows = []
    sel = {n: cnt for n, cnt, _ in orbit.selection_log}
    for i, p in enumerate(orbit.points):
        radius = orbit.radii[i] if i < len(orbit.radii) else ""
        step = orbit.step_sizes[i] if i < len(orbit.step_sizes) else ""
        rows.append((i, p.face, p.u, p.v, radius, step, sel.get(i, "")))
    return rows
