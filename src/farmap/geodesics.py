"""Exact shortest paths on the cone surface by best-first planar unfolding.

A query unfolds chains of faces into a frame where the source sits at the
origin and initial directions equal angles of the source's direction atlas.
States carry a window (the visible interval of the entered edge); windows
are clipped by the visibility cone through all previous windows, which
discards paths through cone points (they are never minimizers).
"""

import heapq
import math
from dataclasses import dataclass, field

from .errors import SearchBudgetExceeded
from .geom import Iso, dist_point_seg, seg_seg_intersection
from .surface import SurfacePoint, TWO_PI

DEFAULT_BUDGET = 10 ** 6


class DirectionAtlas:
    """Flattening of the cone of directions at a surface point.

    Sectors cover [0, total) where total is 2*pi except at cone points.
    Each sector records (face, t0, t1, chart angle of the interval start,
    chart coords of the point, edges of the face containing the point).
    """

    def __init__(self, surface, p):
        self.surface = surface
        p = surface.canonical(p)
        self.point = p
        kind, info = surface.classify(p)
        self.kind = kind
        sectors = []
        if kind == "interior":
            sectors.append((p.face, 0.0, TWO_PI, 0.0, p.uv, frozenset()))
            total = TWO_PI
        elif kind == "edge":
            f, e = info
            a = surface.corners[f][e]
            b = surface.corners[f][(e + 1) % 3]
            base = math.atan2(b[1] - a[1], b[0] - a[0])
            sectors.append((f, 0.0, math.pi, base, p.uv, frozenset({e})))
            f2, e2, _ = surface.glue[(f, e)]
            _, uv2 = surface.transport(f, e, p.uv)
            a2 = surface.corners[f2][e2]
            b2 = surface.corners[f2][(e2 + 1) % 3]
            base2 = math.atan2(b2[1] - a2[1], b2[0] - a2[0])
            sectors.append((f2, math.pi, TWO_PI, base2, uv2,
                            frozenset({e2})))
            total = TWO_PI
        else:
            vid = info
            t = 0.0
            for f, c in surface.vertex_cycles[vid]:
                a = surface.corners[f][c]
                b = surface.corners[f][(c + 1) % 3]
                base = math.atan2(b[1] - a[1], b[0] - a[0])
                width = surface.corner_angle(f, c)
                blocked = frozenset({c, (c + 2) % 3})
                sectors.append((f, t, t + width, base, a, blocked))
                t += width
            total = t
        self.sectors = sectors
        self.total = total

    @classmethod
    def at(cls, surface, p):
        """The atlas of p. A cone point's atlas depends on nothing but the
        surface, so it is built once and kept in `surface.cone_atlases`."""
        kind, vid = surface.classify(p)
        if kind != "vertex":
            return cls(surface, p)
        atlas = surface.cone_atlases.get(vid)
        if atlas is None:
            atlas = surface.cone_atlases[vid] = cls(surface, p)
        return atlas

    def sector_of_face(self, face):
        for idx, sec in enumerate(self.sectors):
            if sec[0] == face:
                return idx
        return None

    def place_iso(self, idx):
        """Chart -> atlas-frame isometry for the given sector."""
        f, t0, _, base, uv, _ = self.sectors[idx]
        rot = t0 - base
        c, s = math.cos(rot), math.sin(rot)
        tx = -(c * uv[0] - s * uv[1])
        ty = -(s * uv[0] + c * uv[1])
        return Iso(c, -s, s, c, tx, ty)

    def direction(self, t):
        """Atlas angle -> (face, unit chart vector, chart point of p)."""
        t = t % self.total
        for f, t0, t1, base, uv, _ in self.sectors:
            if t0 - 1e-12 <= t <= t1 + 1e-12:
                ang = base + (t - t0)
                return f, (math.cos(ang), math.sin(ang)), uv
        raise ValueError(f"atlas angle {t} outside [0, {self.total})")

    def _best_angle(self, face, vec):
        """Atlas angle for the sector of `face` closest to the direction,
        with the angular violation (0 inside)."""
        ang = math.atan2(vec[1], vec[0])
        best = (None, math.inf)
        for f, t0, t1, base, _, _ in self.sectors:
            if f != face:
                continue
            local = (ang - base) % TWO_PI
            width = t1 - t0
            over = max(0.0, min(local - width, TWO_PI - local))
            t = (t0 + min(local, width)) % self.total \
                if local <= width or local - width < TWO_PI - local \
                else t0 % self.total
            if over < best[1]:
                best = (t, over)
        return best

    def angle_from_chart(self, face, vec, max_violation=1e-4):
        """Atlas angle of a direction expressed in any chart at the point.

        The direction may lean numerically outside `face` (paths grazing a
        cone point); it is transported around the point's star and the
        sector with the smallest angular violation wins.
        """
        cand = [self._best_angle(face, vec)]
        surface = self.surface
        kind, info = surface.classify(self.point)
        if kind == "edge":
            f, e = info
            f2, e2, t_into = surface.glue[(f, e)]
            if face == f:
                cand.append(self._best_angle(
                    f2, t_into.inverse().apply_vec(vec)))
            elif face == f2:
                cand.append(self._best_angle(f, t_into.apply_vec(vec)))
        elif kind == "vertex":
            cycle = surface.vertex_cycles[info]
            starts = [i for i, (fc, _) in enumerate(cycle) if fc == face]
            if starts:
                i0 = starts[0]
                n = len(cycle)
                v_fwd = vec
                for k in range(1, n):
                    fk, ck = cycle[(i0 + k - 1) % n]
                    f2, _, t_into = surface.glue[(fk, (ck + 2) % 3)]
                    v_fwd = t_into.inverse().apply_vec(v_fwd)
                    cand.append(self._best_angle(f2, v_fwd))
        cand = [c for c in cand if c[0] is not None]
        if not cand:
            raise ValueError("face does not contain the point")
        t, violation = min(cand, key=lambda c: c[1])
        if violation > max_violation:
            raise ValueError(
                f"direction misses every sector by {violation:.3g}")
        return t


@dataclass
class GeodesicPath:
    """A geodesic found by the unfolding search."""
    source: SurfacePoint
    target: SurfacePoint
    length: float
    init_t: float                 # atlas angle at the source
    arrival_t: float              # atlas angle at target of the back direction
    start_face: int
    final_face: int
    final_transform: Iso          # final face chart -> search frame
    target_img: tuple             # target image in the search frame
    polyline: list                # [(face, (u0,v0), (u1,v1)), ...]
    face_sequence: list = field(default_factory=list)

    def point_at(self, s):
        """Surface point at arc length s from the source."""
        acc = 0.0
        for face, a, b in self.polyline:
            seg = math.dist(a, b)
            if acc + seg >= s - 1e-15 and seg > 0:
                w = (s - acc) / seg
                return SurfacePoint(face,
                                    a[0] + w * (b[0] - a[0]),
                                    a[1] + w * (b[1] - a[1]))
            acc += seg
        face, a, b = self.polyline[-1]
        return SurfacePoint(face, b[0], b[1])

    def midpoint(self):
        return self.point_at(0.5 * self.length)


def _cross(ax, ay, bx, by):
    return ax * by - ay * bx


def _targets_for_point(surface, q):
    """All chart representations of q, tagged 0."""
    out = {}
    kind, info = surface.classify(q)
    if kind == "interior":
        out.setdefault(q.face, []).append((0, q.uv))
    elif kind == "edge":
        f, e = info
        out.setdefault(f, []).append((0, q.uv))
        f2, uv2 = surface.transport(f, e, q.uv)
        out.setdefault(f2, []).append((0, uv2))
    else:
        for f, c in surface.vertex_cycles[info]:
            out.setdefault(f, []).append((0, surface.corners[f][c]))
    return out


def _targets_for_vertices(surface, vids):
    out = {}
    for vid in vids:
        for f, c in surface.vertex_cycles[vid]:
            out.setdefault(f, []).append((vid, surface.corners[f][c]))
    return out


def _search(surface, p, targets, tags, *, all_ties, eps_tie, budget):
    """Best-first unfolding search from p to every tagged target.

    Returns (best, cands) with cands[tag] a list of raw candidates
    (length, q_img, state); a state chains back to the start face.
    """
    atlas = DirectionAtlas.at(surface, p)
    tol = 1e-12 * surface.chart_scale
    best = {tag: math.inf for tag in tags}
    cands = {tag: [] for tag in tags}
    heap = []
    counter = 0

    def consider(tag, length, q_img, chain):
        if length < best[tag]:
            best[tag] = length
        cands[tag].append((length, q_img, chain))

    def bound():
        b = max(best.values())
        return b + (eps_tie if all_ties else 0.0) + tol

    for idx in range(len(atlas.sectors)):
        f, t0, t1, base, uv, blocked = atlas.sectors[idx]
        t_iso = atlas.place_iso(idx)
        root = (f, t_iso, None, None, None, None)
        for tag, tuv in targets.get(f, ()):
            q_img = t_iso.apply(tuv)
            d = math.hypot(*q_img)
            if d > tol:
                # direction must lie inside this sector's angular range
                ang = math.atan2(q_img[1], q_img[0]) % TWO_PI
                width = t1 - t0
                local = (ang - t0 % TWO_PI) % TWO_PI
                if local <= width + 1e-9 or local >= TWO_PI - 1e-9:
                    consider(tag, d, q_img, root)
        for e in range(3):
            if e in blocked:
                continue
            wa = t_iso.apply(surface.corners[f][e])
            wb = t_iso.apply(surface.corners[f][(e + 1) % 3])
            if _cross(wa[0], wa[1], wb[0], wb[1]) < 0:
                wa, wb = wb, wa
            f2, e2, t_into = surface.glue[(f, e)]
            t2 = t_iso.compose(t_into)
            state = (f2, t2, wa, wb, root, e2)
            lb = dist_point_seg((0.0, 0.0), wa, wb)
            counter += 1
            heapq.heappush(heap, (lb, counter, state))

    pops = 0
    while heap:
        lb, _, state = heapq.heappop(heap)
        if lb > bound():
            break
        pops += 1
        if pops > budget:
            raise SearchBudgetExceeded(f"unfolding budget {budget} exceeded")
        face, t_iso, wa, wb, parent, entry = state
        for tag, tuv in targets.get(face, ()):
            q_img = t_iso.apply(tuv)
            d = math.hypot(*q_img)
            if d <= tol or d > bound():
                continue
            hit = seg_seg_intersection((0.0, 0.0), q_img, wa, wb)
            if hit is None:
                continue
            t, u = hit
            if t < 1e-9 or t > 1.0 + 1e-9:
                continue
            # a candidate whose tiny final stretch ends essentially at a
            # window endpoint is the same path as one through the shorter
            # chain (it grazes the cone point at that endpoint): drop it
            stretch = max(0.0, (1.0 - t)) * d
            if stretch < 1e-6 * surface.chart_scale:
                end_gap = min(math.dist(q_img, wa), math.dist(q_img, wb))
                if end_gap < 10.0 * stretch + 100.0 * tol:
                    continue
            wlen = math.dist(wa, wb)
            u_eps = tol / wlen if wlen > 0 else 0.5
            if u_eps < u < 1.0 - u_eps:
                consider(tag, d, q_img, state)
        for e in range(3):
            if e == entry:
                continue
            a = t_iso.apply(surface.corners[face][e])
            b = t_iso.apply(surface.corners[face][(e + 1) % 3])
            # clip [a,b] to the cone spanned CCW from wa to wb
            ca0 = _cross(wa[0], wa[1], a[0], a[1])
            ca1 = _cross(wa[0], wa[1], b[0], b[1])
            cb0 = _cross(a[0], a[1], wb[0], wb[1])
            cb1 = _cross(b[0], b[1], wb[0], wb[1])
            s0, s1 = 0.0, 1.0
            if ca0 < 0 and ca1 < 0:
                continue
            if ca0 < 0:
                s0 = max(s0, ca0 / (ca0 - ca1))
            elif ca1 < 0:
                s1 = min(s1, ca0 / (ca0 - ca1))
            if cb0 < 0 and cb1 < 0:
                continue
            if cb0 < 0:
                s0 = max(s0, cb0 / (cb0 - cb1))
            elif cb1 < 0:
                s1 = min(s1, cb0 / (cb0 - cb1))
            if s1 - s0 <= 1e-14:
                continue
            na = (a[0] + s0 * (b[0] - a[0]), a[1] + s0 * (b[1] - a[1]))
            nb = (a[0] + s1 * (b[0] - a[0]), a[1] + s1 * (b[1] - a[1]))
            if math.dist(na, nb) < tol:
                continue
            if _cross(na[0], na[1], nb[0], nb[1]) < 0:
                na, nb = nb, na
            lb2 = dist_point_seg((0.0, 0.0), na, nb)
            if lb2 > bound():
                continue
            f2, e2, t_into = surface.glue[(face, e)]
            t2 = t_iso.compose(t_into)
            counter += 1
            heapq.heappush(heap, (lb2, counter,
                                  (f2, t2, na, nb, state, e2)))
    return best, cands


def _chain_states(state):
    chain = []
    s = state
    while s is not None:
        chain.append(s)
        s = s[4]
    chain.reverse()
    return chain


def _build_path(surface, p, q, length, q_img, state, atlas_q,
                source_total=TWO_PI):
    chain = _chain_states(state)
    root = chain[0]
    start_face = root[0]
    pts = [(0.0, 0.0)]
    for s in chain[1:]:
        hit = seg_seg_intersection((0.0, 0.0), q_img, s[2], s[3])
        t = hit[0] if hit else 1.0
        pts.append((t * q_img[0], t * q_img[1]))
    pts.append(q_img)
    polyline = []
    faces = []
    for i, s in enumerate(chain):
        inv = s[1].inverse()
        a = inv.apply(pts[i])
        b = inv.apply(pts[i + 1])
        polyline.append((s[0], a, b))
        faces.append(s[0])
    init_t = math.atan2(q_img[1], q_img[0]) % TWO_PI
    if init_t >= source_total:
        # numerical wrap at the atlas seam of a cone-point source: planar
        # angles beyond the cone total can only mean the seam direction
        init_t = 0.0
    final = chain[-1]
    inv = final[1].inverse()
    d = math.hypot(*q_img)
    back = inv.apply_vec((-q_img[0] / d, -q_img[1] / d))
    arrival_t = atlas_q.angle_from_chart(final[0], back)
    return GeodesicPath(
        source=p, target=q, length=length, init_t=init_t,
        arrival_t=arrival_t, start_face=start_face, final_face=final[0],
        final_transform=final[1], target_img=tuple(q_img),
        polyline=polyline, face_sequence=faces)


def _dedup_paths(surface, paths, tol):
    kept = []
    for path in paths:
        mid = path.midpoint()
        dup = False
        for other in kept:
            if abs(other.length - path.length) > 100 * tol:
                continue
            gap = surface.chart_gap(mid, other.midpoint())
            if gap is not None and gap < tol:
                dup = True
                break
        if not dup:
            kept.append(path)
    return kept


def distance(surface, p, q, *, budget=DEFAULT_BUDGET):
    """Length of a shortest path from p to q."""
    gap = surface.chart_gap(p, q)
    if gap is not None and gap < 1e-12 * surface.chart_scale:
        # below the search's own coincidence tolerance the chart segment
        # is the distance (it never leaves the shared face pair)
        return gap
    targets = _targets_for_point(surface, q)
    best, _ = _search(surface, p, targets, (0,), all_ties=False,
                      eps_tie=0.0, budget=budget)
    return best[0]


def minimizers(surface, p, q, *, eps_tie=None, budget=DEFAULT_BUDGET):
    """All distance minimizers from p to q, sorted by initial direction.

    Ties are resolved within eps_tie (default 1e-7 * diameter); paths are
    deduplicated by the surface location of their midpoints (two distinct
    minimizers share no interior point).
    """
    if eps_tie is None:
        eps_tie = surface.eps_tie
    targets = _targets_for_point(surface, q)
    best, cands = _search(surface, p, targets, (0,), all_ties=True,
                          eps_tie=eps_tie, budget=budget)
    atlas_q = DirectionAtlas.at(surface, q)
    total_p = DirectionAtlas.at(surface, p).total
    raw = [c for c in cands[0] if c[0] <= best[0] + eps_tie]
    paths = [_build_path(surface, p, q, *c, atlas_q, total_p) for c in raw]
    dedup_tol = max(1e-9 * surface.chart_scale, 1e-12)
    paths = _dedup_paths(surface, paths, dedup_tol)
    paths.sort(key=lambda g: g.init_t)
    return paths


def paths_to_cone_points(surface, p, *, eps_tie=None, budget=DEFAULT_BUDGET):
    """Tied minimizers from p to every cone point: {vid: [GeodesicPath]}.

    One multi-target search; the stop bound is the largest cone-point
    distance plus the tie tolerance.
    """
    if eps_tie is None:
        eps_tie = surface.eps_tie
    kind, info = surface.classify(p)
    exclude = {info} if kind == "vertex" else set()
    vids = [vid for vid in sorted(surface.vertex_cycles) if vid not in exclude]
    targets = _targets_for_vertices(surface, vids)
    best, cands = _search(surface, p, targets, vids, all_ties=True,
                          eps_tie=eps_tie, budget=budget)
    out = {}
    dedup_tol = max(1e-9 * surface.chart_scale, 1e-12)
    total_p = DirectionAtlas.at(surface, p).total
    for vid in vids:
        raw = [c for c in cands[vid] if c[0] <= best[vid] + eps_tie]
        q = surface.vertex_point(vid)
        atlas_q = DirectionAtlas.at(surface, q)
        paths = [_build_path(surface, p, q, *c, atlas_q, total_p)
                 for c in raw]
        paths = _dedup_paths(surface, paths, dedup_tol)
        paths.sort(key=lambda g: (g.length, g.init_t))
        out[vid] = paths
    return out


@dataclass
class Lune:
    """Component of the surface cut along all minimizers between p and q."""
    path_cw: GeodesicPath
    path_ccw: GeodesicPath
    alpha_p: float
    alpha_q: float
    cone_vids: list


def lunes(surface, p, q, *, paths=None, eps_tie=None):
    """Lunes bounded by consecutive minimizers from p to q.

    A cone point is assigned to the lune whose angular sector at p contains
    the initial direction of a minimizer [p, C]: minimizers from a common
    source meet only at the source, so the whole cut stays in one lune.
    """
    if paths is None:
        paths = minimizers(surface, p, q, eps_tie=eps_tie)
    if not paths:
        raise ValueError("no minimizers between p and q")
    atlas_p = DirectionAtlas.at(surface, p)
    atlas_q = DirectionAtlas.at(surface, q)
    theta_p = atlas_p.total
    theta_q = atlas_q.total

    endpoint_vids = set()
    for pt in (p, q):
        kind, info = surface.classify(pt)
        if kind == "vertex":
            endpoint_vids.add(info)
    cone_cuts = paths_to_cone_points(surface, p)
    cone_angle = {vid: ps[0].init_t for vid, ps in cone_cuts.items()
                  if ps and vid not in endpoint_vids}

    m = len(paths)
    if m == 1:
        return [Lune(paths[0], paths[0], theta_p, theta_q,
                     sorted(cone_angle))]
    out = []
    for i in range(m):
        g1 = paths[i]
        g2 = paths[(i + 1) % m]
        a_p = (g2.init_t - g1.init_t) % theta_p
        a_q = (g1.arrival_t - g2.arrival_t) % theta_q
        vids = [vid for vid, t in cone_angle.items()
                if (t - g1.init_t) % theta_p < a_p]
        out.append(Lune(g1, g2, a_p, a_q, sorted(vids)))
    return out


def trace_ray(surface, atlas, t, length, *, max_steps=100000):
    """Walk a geodesic of given length from the atlas point in direction t.

    Returns (SurfacePoint, final_face_to_frame_iso) where the frame has the
    start point at the origin and the ray along atlas angle t.
    """
    face, vec, uv = atlas.direction(t)
    idx = atlas.sector_of_face(face)
    t_iso = atlas.place_iso(idx)
    x, y = uv
    dx, dy = vec
    remaining = length
    tol = 1e-12 * surface.chart_scale
    entry = None
    for _ in range(max_steps):
        best_t = math.inf
        best_e = None
        for e in range(3):
            if e == entry:
                continue
            a = surface.corners[face][e]
            b = surface.corners[face][(e + 1) % 3]
            hit = seg_seg_intersection((x, y), (x + dx, y + dy), a, b)
            if hit is None:
                continue
            tt, u = hit
            if tt <= tol or u < -1e-9 or u > 1.0 + 1e-9:
                continue
            if tt < best_t:
                best_t = tt
                best_e = e
        if best_e is None or best_t >= remaining:
            return (SurfacePoint(face, x + remaining * dx,
                                 y + remaining * dy), t_iso)
        x += best_t * dx
        y += best_t * dy
        remaining -= best_t
        if remaining <= tol:
            return (SurfacePoint(face, x, y), t_iso)
        f2, e2, t_into = surface.glue[(face, best_e)]
        inv = t_into.inverse()
        x, y = inv.apply((x, y))
        dx, dy = inv.apply_vec((dx, dy))
        n = math.hypot(dx, dy)
        dx, dy = dx / n, dy / n
        t_iso = t_iso.compose(t_into)
        face, entry = f2, e2
    raise SearchBudgetExceeded("ray trace exceeded step budget")
