"""Exact shortest paths on the cone surface by ordered planar unfolding.

A query unfolds chains of faces into a frame where the source sits at the
origin and initial directions equal angles of the source's direction atlas.
States carry a window (the visible interval of the entered edge); windows
are clipped by the visibility cone through all previous windows, which
discards paths through cone points (they are never minimizers).

Point-to-point queries (`distance`, `minimizers`) run this expansion from
the source in A* order (Hart, Nilsson and Raphael, 1968). A state's key is
its window's distance from the origin plus the 3-D chord from the target
to the window's piece of its edge: a path on the embedded surface is never
shorter than its chord. Only a surface built from vertices has the 3-D
corners (`surface.embedding`) for the chord; on a net it is 0, which is
plain best-first order. The chord is shrunk by a relative 1e-9 and by the
search's tolerance, so that rounding never lifts a key above the length
of a path through its window. Every state on a path no longer than the
stopping bound is therefore still expanded, and the candidates, computed
as before, are the same: only the order of expansion changes, and with it
how many states are expanded past the shortest path.

Paths to the cone points, which every star unfolding needs, come from one
shortest-path map per cone point (`ConeMap`): the expansion run once from
the cone point and kept per face, over which a query runs the target test
on its point. A map has no target, so its keys carry no chord.
"""

import heapq
import itertools
import math
from array import array
from dataclasses import dataclass
from typing import NamedTuple

from .errors import SearchBudgetExceeded
from .geom import Iso, dist_point_seg, seg_seg_intersection
from .surface import SurfacePoint, TWO_PI

DEFAULT_BUDGET = 10 ** 6
# paths_to_cone_points: an atlas angle this close below the total is the
# seam direction 0
SEAM = 1e-12


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

    def angle_from_chart(self, face, vec):
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
        if violation > 1e-4:
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
    start_face: int
    final_face: int
    final_transform: Iso          # final face chart -> search frame
    target_img: tuple             # target image in the search frame
    polyline: list                # [(face, (u0,v0), (u1,v1)), ...]

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


def _target_copies(surface, q):
    """Every chart representation of q as {face: [uv, ...]}, and the graze
    length of the target test: 1e-6 * chart_scale for a cone point, else 0.

    A candidate whose tiny final stretch ends essentially at a window
    endpoint grazes the cone point at that endpoint. For a cone-point
    target that is the same path as one through the shorter chain (the
    cone point has a copy on every face around it), so it is dropped. Any
    other target has no such copy, and the path must be kept.
    """
    out = {}
    kind, info = surface.classify(q)
    if kind == "interior":
        out[q.face] = [q.uv]
    elif kind == "edge":
        f, e = info
        out.setdefault(f, []).append(q.uv)
        f2, uv2 = surface.transport(f, e, q.uv)
        out.setdefault(f2, []).append(uv2)
    else:
        for f, c in surface.vertex_cycles[info]:
            out.setdefault(f, []).append(surface.corners[f][c])
    graze = 1e-6 * surface.chart_scale if kind == "vertex" else 0.0
    return out, graze


def _sector_hit(t_iso, t0, t1, tuv, tol):
    """Target test of a start state: (length, image) of the target at
    chart point tuv if its direction lies in the sector [t0, t1]."""
    q_img = t_iso.apply(tuv)
    d = math.hypot(*q_img)
    if d > tol:
        ang = math.atan2(q_img[1], q_img[0]) % TWO_PI
        width = t1 - t0
        local = (ang - t0 % TWO_PI) % TWO_PI
        if local <= width + 1e-9 or local >= TWO_PI - 1e-9:
            return d, q_img
    return None


def _window_hit(q_img, d, wa, wb, tol, graze):
    """Target test of a state: the segment from the origin to the target
    image q_img (of length d) crosses the window (wa, wb) away from its
    ends, and not within tol of the origin."""
    hit = seg_seg_intersection((0.0, 0.0), q_img, wa, wb)
    if hit is None:
        return False
    t, u = hit
    # absolute at the origin: a source within ~1e-8 of the window's edge
    # crosses it at a tiny t that is still a genuine crossing
    if t * d < tol or t > 1.0 + 1e-9:
        return False
    stretch = max(0.0, (1.0 - t)) * d
    if stretch < graze:
        end_gap = min(math.dist(q_img, wa), math.dist(q_img, wb))
        if end_gap < 10.0 * stretch + 100.0 * tol:
            return False
    wlen = math.dist(wa, wb)
    u_eps = tol / wlen if wlen > 0 else 0.5
    return u_eps < u < 1.0 - u_eps


def _chord(q3, tri3, e, s0, s1, tol):
    """3-D distance from q3 to the piece [s0, s1] of edge e of a face with
    3-D corners tri3, shrunk by a relative 1e-9 and by tol: no surface
    path from that piece to q3 is shorter, even after rounding."""
    ax, ay, az = tri3[e]
    bx, by, bz = tri3[(e + 1) % 3]
    dx, dy, dz = bx - ax, by - ay, bz - az
    qx, qy, qz = q3[0] - ax, q3[1] - ay, q3[2] - az
    t = (qx * dx + qy * dy + qz * dz) / (dx * dx + dy * dy + dz * dz)
    t = min(max(t, s0), s1)
    chord = math.hypot(qx - t * dx, qy - t * dy, qz - t * dz)
    return max(0.0, chord * (1.0 - 1e-9) - tol)


def _start_states(surface, atlas, q3=None):
    """Start of a window expansion from the atlas point: per sector, the
    root state, its angle range and its (key, child) pairs. The key is the
    window's distance from the origin, plus its chord to q3 if given."""
    tol = 1e-12 * surface.chart_scale
    out = []
    for idx, (f, t0, t1, _, _, blocked) in enumerate(atlas.sectors):
        t_iso = atlas.place_iso(idx)
        root = (f, t_iso, None, None, None, None)
        kids = []
        for e in range(3):
            if e in blocked:
                continue
            wa = t_iso.apply(surface.corners[f][e])
            wb = t_iso.apply(surface.corners[f][(e + 1) % 3])
            if _cross(wa[0], wa[1], wb[0], wb[1]) < 0:
                wa, wb = wb, wa
            key = dist_point_seg((0.0, 0.0), wa, wb)
            if q3 is not None:
                key += _chord(q3, surface.embedding[f], e, 0.0, 1.0, tol)
            f2, e2, t_into = surface.glue[(f, e)]
            kids.append((key, (f2, t_iso.compose(t_into), wa, wb, root, e2)))
        out.append((root, t0, t1, kids))
    return out


def _children(surface, state, bound, q3=None):
    """(key, child) for each exit edge of the state's face, clipped to the
    cone of directions through the state's window, whose key is within
    `bound`. The key is the clipped window's distance from the origin,
    plus its chord to q3 if given."""
    face, t_iso, wa, wb, _, entry = state
    wax, way = wa
    wbx, wby = wb
    tol = 1e-12 * surface.chart_scale
    out = []
    for e in range(3):
        if e == entry:
            continue
        a = t_iso.apply(surface.corners[face][e])
        b = t_iso.apply(surface.corners[face][(e + 1) % 3])
        # clip [a,b] to the cone spanned CCW from wa to wb (_cross inline)
        ca0 = wax * a[1] - way * a[0]
        ca1 = wax * b[1] - way * b[0]
        cb0 = a[0] * wby - a[1] * wbx
        cb1 = b[0] * wby - b[1] * wbx
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
        key = dist_point_seg((0.0, 0.0), na, nb)
        if key > bound:
            continue
        if q3 is not None:
            key += _chord(q3, surface.embedding[face], e, s0, s1, tol)
            if key > bound:
                continue
        f2, e2, t_into = surface.glue[(face, e)]
        out.append((key, (f2, t_iso.compose(t_into), na, nb, state, e2)))
    return out


def _search(surface, p, q, *, eps_tie, budget):
    """A* unfolding search from p to q.

    Returns (best, cands) with cands a list of raw candidates
    (length, q_img, state); a state chains back to the start face.
    """
    atlas = DirectionAtlas.at(surface, p)
    targets, graze = _target_copies(surface, q)
    q3 = surface.position(q)
    tol = 1e-12 * surface.chart_scale
    best = math.inf
    cands = []
    heap = []
    counter = itertools.count()

    def bound():
        return best + eps_tie + tol

    for root, t0, t1, kids in _start_states(surface, atlas, q3):
        for tuv in targets.get(root[0], ()):
            hit = _sector_hit(root[1], t0, t1, tuv, tol)
            if hit is not None:
                best = min(best, hit[0])
                cands.append((*hit, root))
        for key, child in kids:
            heapq.heappush(heap, (key, next(counter), child))

    pops = 0
    while heap:
        key, _, state = heapq.heappop(heap)
        if key > bound():
            break
        pops += 1
        if pops > budget:
            raise SearchBudgetExceeded(f"unfolding budget {budget} exceeded")
        face, t_iso, wa, wb, _, _ = state
        for tuv in targets.get(face, ()):
            q_img = t_iso.apply(tuv)
            d = math.hypot(*q_img)
            if d <= tol or d > bound():
                continue
            if _window_hit(q_img, d, wa, wb, tol, graze):
                best = min(best, d)
                cands.append((d, q_img, state))
        for key, child in _children(surface, state, bound(), q3):
            heapq.heappush(heap, (key, next(counter), child))
    return best, cands


def _chain_states(state):
    chain = []
    s = state
    while s is not None:
        chain.append(s)
        s = s[4]
    chain.reverse()
    return chain


def _build_path(surface, p, q, length, q_img, state, source_total=TWO_PI):
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
    for i, s in enumerate(chain):
        inv = s[1].inverse()
        a = inv.apply(pts[i])
        b = inv.apply(pts[i + 1])
        polyline.append((s[0], a, b))
    init_t = math.atan2(q_img[1], q_img[0]) % TWO_PI
    if init_t >= source_total:
        # numerical wrap at the atlas seam of a cone-point source: planar
        # angles beyond the cone total can only mean the seam direction
        init_t = 0.0
    final = chain[-1]
    return GeodesicPath(
        source=p, target=q, length=length, init_t=init_t,
        start_face=start_face, final_face=final[0],
        final_transform=final[1], target_img=tuple(q_img),
        polyline=polyline)


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
    best, _ = _search(surface, p, q, eps_tie=0.0, budget=budget)
    return best


def minimizers(surface, p, q):
    """All distance minimizers from p to q, sorted by initial direction.

    Ties are resolved within `surface.eps_tie`; paths are deduplicated by
    the surface location of their midpoints (two distinct minimizers share
    no interior point). A path through a cone point other than p and q
    bends there, so it is no geodesic and is dropped: the windows prune
    such paths, except past a cone point that p nearly touches.
    """
    eps_tie = surface.eps_tie
    best, cands = _search(surface, p, q, eps_tie=eps_tie,
                          budget=DEFAULT_BUDGET)
    total_p = DirectionAtlas.at(surface, p).total
    # shortest first, so that of two copies of one path the shorter stays
    raw = sorted((c for c in cands if c[0] <= best + eps_tie),
                 key=lambda c: c[0])
    paths = [_build_path(surface, p, q, *c, total_p) for c in raw]
    ends = {info for kind, info in map(surface.classify, (p, q))
            if kind == "vertex"}
    paths = [g for g in paths if not _through_cone_point(surface, g, ends)]
    dedup_tol = max(1e-9 * surface.chart_scale, 1e-12)
    paths = _dedup_paths(surface, paths, dedup_tol)
    paths.sort(key=lambda g: g.init_t)
    return paths


def _through_cone_point(surface, path, ends):
    """True when the path's polyline passes within rounding of a cone point
    whose id is not in `ends`."""
    tol = 1e-12 * surface.chart_scale
    return any(dist_point_seg(corner, a, b) < tol
               for face, a, b in path.polyline
               for corner, vid in zip(surface.corners[face],
                                      surface.face_vids[face])
               if vid not in ends)


class ConePath(NamedTuple):
    """A shortest path from a point to a cone point: its length and its
    initial direction at the point (an angle of the point's atlas)."""
    length: float
    init_t: float


class ConeMap:
    """Shortest-path map of one cone point C to a given depth: the states
    of `_search`'s window expansion from C whose windows lie within
    `depth` of C, kept per face as their chart transforms and clipped
    windows.

    A shortest path from p to C, reversed, is one from C to p, so the
    search's target test over the states on p's faces finds every path
    from C to p no longer than `depth`. The states are stored flat, ten
    floats each (the face chart -> C frame isometry, then the window ends),
    since a surface keeps thousands of them.
    """

    def __init__(self, surface, vid, depth):
        self.depth = depth
        self.roots = {}     # face -> [(chart -> C frame, sector t0, t1)]
        self.windows = {}   # face -> array of a, b, c, d, tx, ty, wa, wb
        atlas = DirectionAtlas.at(surface, surface.vertex_point(vid))
        self.total = atlas.total    # the cone angle at C
        # every state within depth is kept, so the order of expansion
        # does not matter: no heap
        todo = []
        for root, t0, t1, kids in _start_states(surface, atlas):
            self.roots.setdefault(root[0], []).append((root[1], t0, t1))
            todo += [child for lb, child in kids if lb <= depth]
        while todo:
            state = todo.pop()
            face, t, wa, wb, _, _ = state
            self.windows.setdefault(face, array("d")).extend(
                (t.a, t.b, t.c, t.d, t.tx, t.ty, *wa, *wb))
            todo += [child for _, child in _children(surface, state, depth)]

    def hits(self, copies, graze, tol):
        """(length, image in C's frame, face, face chart -> C frame) of
        every path from C to a target with the chart copies `copies`."""
        out = []
        for face, uvs in copies.items():
            for t_iso, t0, t1 in self.roots.get(face, ()):
                for uv in uvs:
                    hit = _sector_hit(t_iso, t0, t1, uv, tol)
                    if hit is not None:
                        out.append((*hit, face, t_iso))
            rows = [iter(self.windows.get(face, ()))] * 10   # ten a state
            for a, b, c, d, tx, ty, wax, way, wbx, wby in zip(*rows):
                for x, y in uvs:
                    # Iso.apply
                    q_img = (a * x + b * y + tx, c * x + d * y + ty)
                    length = math.hypot(*q_img)
                    if length > tol and _window_hit(
                            q_img, length, (wax, way), (wbx, wby), tol,
                            graze):
                        out.append((length, q_img, face,
                                    Iso(a, b, c, d, tx, ty)))
        return out


def _cone_maps(surface):
    """The surface's cone-point maps, {vid: ConeMap}, built on first use
    to the cone-to-cone diameter (plus the default tie tolerance)."""
    maps = surface.cone_maps
    if not maps:
        depth = surface.diameter * (1.0 + 1e-6) + surface.eps_tie + \
            1e-12 * surface.chart_scale
        for vid in sorted(surface.vertex_cycles):
            maps[vid] = ConeMap(surface, vid, depth)
    return maps


def paths_to_cone_points(surface, p):
    """Tied shortest paths from p to every cone point other than p:
    {vid: [ConePath]}, each list sorted by (length, init_t).

    Answered from the cone points' shortest-path maps, with no search from
    p. The paths from C count only once C's map reaches past the shortest
    one plus `surface.eps_tie`; a shallower map is rebuilt that deep, and
    at least 1% deeper, so that queries creeping outward rebuild it
    rarely. No point lies farther from a cone point than the diameter
    plus the longest edge, so a map that reaches that far and still finds
    no path gives up (the list is empty).
    """
    eps_tie = surface.eps_tie
    tol = 1e-12 * surface.chart_scale
    reach = surface.diameter + surface.chart_scale + eps_tie + 2.0 * tol
    copies, graze = _target_copies(surface, p)
    kind, own = surface.classify(p)
    atlas = DirectionAtlas.at(surface, p)
    maps = _cone_maps(surface)
    out = {}
    for vid in sorted(maps):
        if kind == "vertex" and vid == own:
            continue
        cmap = maps[vid]
        hits = cmap.hits(copies, graze, tol)
        best = min((h[0] for h in hits), default=math.inf)
        while best + eps_tie + tol > cmap.depth and cmap.depth < reach:
            need = best + eps_tie + tol if hits else 2.0 * cmap.depth
            depth = min(reach, max(need, 1.01 * cmap.depth))
            cmap = maps[vid] = ConeMap(surface, vid, depth)
            hits = cmap.hits(copies, graze, tol)
            best = min((h[0] for h in hits), default=math.inf)
        out[vid] = _cone_paths(surface, atlas, cmap, hits, best + eps_tie)
    return out


def _cone_paths(surface, atlas, cmap, hits, limit):
    """ConePaths of the hits no longer than `limit`, sorted by (length,
    init_t). init_t is the reversed arrival direction; a direction within
    rounding of the atlas seam reads 0.

    Hits are deduplicated as `minimizers` deduplicates paths: two whose
    midpoints lie within its tolerance are one path, of which the shortest
    is kept. From C the midpoints of two paths are about their angle at C
    times half the length apart. One path found through two chart copies
    of p (p on an edge) thus counts once, and so do two ways past a cone
    point that p nearly touches once they run that close together.
    """
    theta_c = cmap.total
    same = 2.0 * max(1e-9 * surface.chart_scale, 1e-12)
    found = []
    for d, q_img, face, t_iso in hits:
        if d > limit:
            continue
        back = t_iso.inverse().apply_vec((-q_img[0] / d, -q_img[1] / d))
        t = atlas.angle_from_chart(face, back)
        if atlas.total - t < SEAM:
            t = 0.0
        # the direction at C: the map's frame angles are C's atlas angles,
        # in [0, theta_c] up to rounding past either end
        a = math.atan2(q_img[1], q_img[0]) % TWO_PI
        if a > 0.5 * (theta_c + TWO_PI):
            a -= TWO_PI
        found.append((d, t, a))
    found.sort()
    kept = []
    for d, t, a in found:
        gaps = (abs(a - b) % theta_c for _, _, b in kept)
        if all(min(g, theta_c - g) * d > same for g in gaps):
            kept.append((d, t, a))
    return [ConePath(d, t) for d, t, _ in kept]


@dataclass
class Lune:
    """Component of the surface cut along all minimizers between p and q."""
    path_cw: GeodesicPath
    path_ccw: GeodesicPath
    alpha_p: float
    alpha_q: float
    cone_vids: list


def lunes(surface, p, q):
    """Lunes bounded by consecutive minimizers from p to q.

    A cone point is assigned to the lune whose angular sector at p contains
    the initial direction of a minimizer [p, C]: minimizers from a common
    source meet only at the source, so the whole cut stays in one lune.
    """
    paths = minimizers(surface, p, q)
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
    # atlas angles at q of the directions back along the paths
    arrivals = []
    for g in paths:
        x, y = g.target_img
        d = math.hypot(x, y)
        back = g.final_transform.inverse().apply_vec((-x / d, -y / d))
        arrivals.append(atlas_q.angle_from_chart(g.final_face, back))
    out = []
    for i in range(m):
        g1 = paths[i]
        g2 = paths[(i + 1) % m]
        a_p = (g2.init_t - g1.init_t) % theta_p
        a_q = (arrivals[i] - arrivals[(i + 1) % m]) % theta_q
        vids = [vid for vid, t in cone_angle.items()
                if (t - g1.init_t) % theta_p < a_p]
        out.append(Lune(g1, g2, a_p, a_q, sorted(vids)))
    return out


def trace_ray(surface, atlas, t, length):
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
    # not left through: the start sector's blocked edges, then entry edges
    skip = atlas.sectors[idx][5]
    for _ in range(100000):
        best_t = math.inf
        best_e = None
        for e in range(3):
            if e in skip:
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
        face, skip = f2, (e2,)
    raise SearchBudgetExceeded("ray trace exceeded step budget")
