"""Intrinsic cone metric of a centrally symmetric convex polyhedral surface.

The surface is a set of planar triangle charts glued edge-to-edge by rigid
orientation-preserving transforms. Every triangulation vertex is a cone
point with positive angular deficit (flat vertices are merged away during
construction), the total deficit is 4*pi, and the central symmetry is
realized by a face permutation with per-face orientation-reversing chart
isometries.

3D coordinates appear only while building from a vertex set; everything
downstream is purely 2D/intrinsic.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateHull, FarmapError, GluingMismatch,
                     InvolutionNotIsometric, NotCentrallySymmetric)
from .geom import Iso, ear_clip

TWO_PI = 2.0 * math.pi


# slotted: batch callers keep thousands of results, each with its points
@dataclass(frozen=True, slots=True)
class SurfacePoint:
    """Location on the surface: face id plus chart coordinates."""
    face: int
    u: float
    v: float

    @property
    def uv(self):
        return (self.u, self.v)

    def key(self):
        return (self.face, self.u, self.v)


class ConePoint:
    __slots__ = ("vid", "theta", "deficit", "antipode", "cycle")

    def __init__(self, vid, theta, cycle):
        self.vid = vid
        self.theta = theta
        self.deficit = TWO_PI - theta
        self.antipode = None
        self.cycle = cycle  # CCW ordered (face, corner) pairs around vid


class ConeSurface:
    """Immutable after construction; all query methods are pure reads."""

    def __init__(self, corners, face_vids, glue, antipodal_face=None,
                 antipodal_iso=None):
        self.corners = corners            # face -> ((x,y),(x,y),(x,y))
        self.face_vids = face_vids        # face -> (vid, vid, vid)
        self.glue = glue                  # (face, edge) -> (f2, e2, Iso f2->f)
        self.n_faces = len(corners)
        self.area = sum(self._face_area(f) for f in range(self.n_faces))
        self.chart_scale = max(
            math.dist(self.corners[f][i], self.corners[f][(i + 1) % 3])
            for f in range(self.n_faces) for i in range(3))
        self._build_vertex_cycles()
        self._build_cone_points()
        self.antipodal_face = antipodal_face
        self.antipodal_iso = antipodal_iso
        if antipodal_face is not None:
            self._derive_vertex_antipodes()
        self._diameter = None
        # vid -> DirectionAtlas, filled on demand by DirectionAtlas.at
        self.cone_atlases = {}
        # vid -> geodesics.ConeMap, built on the first cone-path query
        self.cone_maps = {}

    # -- construction helpers -------------------------------------------

    def _face_area(self, f):
        (x0, y0), (x1, y1), (x2, y2) = self.corners[f]
        return 0.5 * abs((x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0))

    def _build_vertex_cycles(self):
        seen = set()
        cycles = {}
        for f0 in range(self.n_faces):
            for c0 in range(3):
                if (f0, c0) in seen:
                    continue
                vid = self.face_vids[f0][c0]
                cycle = []
                f, c = f0, c0
                guard = 0
                while True:
                    cycle.append((f, c))
                    seen.add((f, c))
                    # cross the edge that ends at this corner: edge (c+2)
                    f2, e2, _ = self.glue[(f, (c + 2) % 3)]
                    f, c = f2, e2
                    guard += 1
                    if (f, c) == (f0, c0):
                        break
                    if guard > 4 * self.n_faces:
                        raise GluingMismatch(
                            f"vertex cycle around vid {vid} does not close")
                if any(self.face_vids[ff][cc] != vid for ff, cc in cycle):
                    raise GluingMismatch(
                        f"inconsistent vertex ids around vid {vid}")
                cycles[vid] = cycle
        self.vertex_cycles = cycles

    def corner_angle(self, f, c):
        p = self.corners[f]
        a = np.array(p[c])
        b = np.array(p[(c + 1) % 3]) - a
        d = np.array(p[(c + 2) % 3]) - a
        cosang = float(b @ d) / (np.linalg.norm(b) * np.linalg.norm(d))
        return math.acos(min(1.0, max(-1.0, cosang)))

    def _build_cone_points(self):
        self.cone_points = []
        self.vid_to_cone = {}
        for vid in sorted(self.vertex_cycles):
            cycle = self.vertex_cycles[vid]
            theta = sum(self.corner_angle(f, c) for f, c in cycle)
            cp = ConePoint(vid, theta, cycle)
            self.vid_to_cone[vid] = len(self.cone_points)
            self.cone_points.append(cp)

    def _derive_vertex_antipodes(self):
        for cp in self.cone_points:
            f, c = cp.cycle[0]
            f2 = self.antipodal_face[f]
            uv2 = self.antipodal_iso[f].apply(self.corners[f][c])
            vid2 = None
            for c2 in range(3):
                if math.dist(uv2, self.corners[f2][c2]) < 1e-7 * self.chart_scale:
                    vid2 = self.face_vids[f2][c2]
            if vid2 is None:
                raise InvolutionNotIsometric(
                    f"antipodal image of vertex {cp.vid} is not a vertex")
            cp.antipode = vid2
        for cp in self.cone_points:
            if self.cone_points[self.vid_to_cone[cp.antipode]].antipode != cp.vid:
                raise InvolutionNotIsometric("vertex pairing is not an involution")
            if cp.antipode == cp.vid:
                raise InvolutionNotIsometric(
                    f"vertex {cp.vid} is fixed by the antipodal map")

    # -- basic queries ---------------------------------------------------

    @property
    def n_cone_points(self):
        return len(self.cone_points)

    def deficits(self):
        return [cp.deficit for cp in self.cone_points]

    def vertex_point(self, vid):
        f, c = self.vertex_cycles[vid][0]
        uv = self.corners[f][c]
        return SurfacePoint(f, uv[0], uv[1])

    def bary(self, p):
        (x0, y0), (x1, y1), (x2, y2) = self.corners[p.face]
        d = (y1 - y2) * (x0 - x2) + (x2 - x1) * (y0 - y2)
        b0 = ((y1 - y2) * (p.u - x2) + (x2 - x1) * (p.v - y2)) / d
        b1 = ((y2 - y0) * (p.u - x2) + (x0 - x2) * (p.v - y2)) / d
        return (b0, b1, 1.0 - b0 - b1)

    def contains(self, p):
        """p lies in its face triangle, within 1e-9 in barycentric terms."""
        return all(-1e-9 <= x <= 1.0 + 1e-9 for x in self.bary(p))

    def classify(self, p, eps=None):
        """('vertex', vid) | ('edge', (face, edge)) | ('interior', None)."""
        if eps is None:
            eps = 1e-9 * self.chart_scale
        b = self.bary(p)
        eps_b = eps / self.chart_scale
        small = [i for i in range(3) if b[i] < eps_b]
        if len(small) == 2:
            corner = ({0, 1, 2} - set(small)).pop()
            return ("vertex", self.face_vids[p.face][corner])
        if len(small) == 1:
            # b[i] ~ 0 means p lies on the edge opposite corner i,
            # which is edge (i+1) in our numbering (corners i+1 -> i+2)
            return ("edge", (p.face, (small[0] + 1) % 3))
        return ("interior", None)

    def transport(self, face, edge, uv):
        """Map chart coords across gluing (face, edge) into the partner."""
        f2, e2, t_into = self.glue[(face, edge)]
        return f2, t_into.inverse().apply(uv)

    def canonical(self, p):
        """Canonical representative for points on shared edges/vertices."""
        kind, info = self.classify(p)
        if kind == "vertex":
            return self.vertex_point(info)
        if kind == "edge":
            f, e = info
            f2, e2, _ = self.glue[(f, e)]
            if (f2, e2) < (f, e):
                f_new, uv = self.transport(f, e, p.uv)
                return SurfacePoint(f_new, uv[0], uv[1])
        return p

    def chart_gap(self, p, q):
        """Euclidean gap between p and q if they share a face or a glued
        edge pair; None when the points live in non-adjacent charts."""
        if p.face == q.face:
            return math.dist(p.uv, q.uv)
        for e in range(3):
            f2, _, t_into = self.glue[(p.face, e)]
            if f2 == q.face:
                return math.dist(p.uv, t_into.apply(q.uv))
        return None

    def antipode(self, p):
        f2 = self.antipodal_face[p.face]
        uv = self.antipodal_iso[p.face].apply(p.uv)
        return SurfacePoint(f2, uv[0], uv[1])

    def random_point(self, rng):
        areas = np.array([self._face_area(f) for f in range(self.n_faces)])
        f = int(rng.choice(self.n_faces, p=areas / areas.sum()))
        r1, r2 = rng.random(), rng.random()
        s1 = math.sqrt(r1)
        b = (1.0 - s1, s1 * (1.0 - r2), s1 * r2)
        c = self.corners[f]
        x = b[0] * c[0][0] + b[1] * c[1][0] + b[2] * c[2][0]
        y = b[0] * c[0][1] + b[1] * c[1][1] + b[2] * c[2][1]
        return SurfacePoint(f, x, y)

    @property
    def diameter(self):
        """Max intrinsic distance between cone points; tolerance scale."""
        if self._diameter is None:
            from .geodesics import distance
            best = 0.0
            vids = sorted(self.vertex_cycles)
            for i, va in enumerate(vids):
                pa = self.vertex_point(va)
                for vb in vids[i + 1:]:
                    best = max(best, distance(self, pa, self.vertex_point(vb)))
            self._diameter = best
        return self._diameter

    # -- default tolerances ----------------------------------------------
    # The only source of the default tolerances: the CLI's --tol-* flags
    # override eps_geom, eps_fix, eps_conv and eps_curve per run.

    @property
    def eps_geom(self):
        """Numerical zero of a length."""
        return 1e-9 * self.diameter

    @property
    def eps_tie(self):
        """Lengths this close are tied (minimizers, farthest points)."""
        return 1e-7 * self.diameter

    @property
    def eps_fix(self):
        """Largest fixed-point residual of a certified limit."""
        return 1e-6 * self.diameter

    @property
    def eps_conv(self):
        """Orbit steps shorter than this count toward convergence."""
        return 1e-8 * self.diameter

    @property
    def eps_curve(self):
        """Distance of a curve sample from its equation's zero set."""
        return 1e-6 * self.diameter

    def validate(self):
        """Run the construction invariants; raises on failure."""
        for cp in self.cone_points:
            if not (0.0 < cp.deficit < TWO_PI):
                raise GluingMismatch(
                    f"cone point {cp.vid} has deficit {cp.deficit:.3g}")
        total = sum(cp.deficit for cp in self.cone_points)
        if abs(total - 4.0 * math.pi) > 1e-7:
            raise GluingMismatch(
                f"Gauss-Bonnet violated: sum deficits = {total!r}")
        if self.n_cone_points % 2 != 0:
            raise GluingMismatch("odd number of cone points")
        if self.antipodal_face is not None:
            for cp in self.cone_points:
                other = self.cone_points[self.vid_to_cone[cp.antipode]]
                if abs(cp.deficit - other.deficit) > 1e-7:
                    raise InvolutionNotIsometric(
                        "antipodal cone points have unequal deficits")
            for f in range(self.n_faces):
                iso = self.antipodal_iso[f]
                if iso.max_deviation_from_isometry() > 1e-9:
                    raise InvolutionNotIsometric("chart map is not rigid")
                if iso.det() > 0:
                    raise InvolutionNotIsometric(
                        "antipodal chart map preserves orientation")
                f2 = self.antipodal_face[f]
                if self.antipodal_face[f2] != f:
                    raise InvolutionNotIsometric("face pairing not involutive")

    # -- net (schema B) export -------------------------------------------

    def to_net_spec(self):
        """Serializable description: faces, gluings, antipodal pairing."""
        gluings = []
        seen = set()
        for (f, e), (f2, e2, _) in self.glue.items():
            if (f2, e2, f, e) in seen:
                continue
            seen.add((f, e, f2, e2))
            gluings.append([[f, e], [f2, e2]])
        antipodal = []
        if self.antipodal_face is not None:
            for f in range(self.n_faces):
                f2 = self.antipodal_face[f]
                img = self.antipodal_iso[f].apply(self.corners[f][0])
                c2 = min(range(3),
                         key=lambda c: math.dist(img, self.corners[f2][c]))
                antipodal.append([f, f2, c2])
        return {
            "faces": [[list(pt) for pt in tri] for tri in self.corners],
            "gluings": gluings,
            "antipodal": antipodal,
        }


# -- building from a 3D vertex set ---------------------------------------

def _chart_from_3d(p0, p1, p2):
    """Isometric chart of a CCW-oriented (outward normal) 3D triangle."""
    e1 = p1 - p0
    ln = np.linalg.norm(e1)
    u = e1 / ln
    n = np.cross(e1, p2 - p0)
    n = n / np.linalg.norm(n)
    v = np.cross(n, u)
    w = p2 - p0
    return ((0.0, 0.0), (float(ln), 0.0), (float(w @ u), float(w @ v)))


def build_from_vertices(vertices):
    """Build the intrinsic surface of the convex hull of a centrally
    symmetric vertex set.

    Coplanar hull facets are merged and flat boundary vertices dropped, so
    every chart corner is a genuine cone point.
    """
    from scipy.spatial import ConvexHull
    from scipy.spatial._qhull import QhullError

    pts = np.asarray(vertices, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise FarmapError("vertices must be a list of 3-D points")
    if len(pts) < 4:
        raise DegenerateHull("need at least 4 points in R^3")
    scale = float(np.abs(pts).max())
    eps = 1e-9 * scale * 100.0

    # validate central symmetry of the input set
    pair = [None] * len(pts)
    for i, p in enumerate(pts):
        d = np.linalg.norm(pts + p, axis=1)
        j = int(np.argmin(d))
        if d[j] > eps:
            raise NotCentrallySymmetric(
                f"vertex {i} has no antipodal partner (gap {d[j]:.3g})")
        pair[i] = j
    try:
        hull = ConvexHull(pts)
    except QhullError as exc:
        raise DegenerateHull(str(exc)) from exc
    if hull.volume < (eps * scale * scale):
        raise DegenerateHull("hull volume is numerically zero")

    simplices, normals = _oriented_simplices(pts, hull)
    facets = _merge_coplanar(pts, simplices, normals, eps)
    anti = {}
    for i, p in enumerate(pts):
        anti[i] = int(np.argmin(np.linalg.norm(pts + p, axis=1)))
    tris, vids = _triangulate_facets(pts, facets, anti)
    return _assemble(pts, tris, vids, eps)


def _oriented_simplices(pts, hull):
    centroid = pts[hull.vertices].mean(axis=0)
    simplices = []
    normals = []
    for simp in hull.simplices:
        a, b, c = pts[simp]
        n = np.cross(b - a, c - a)
        if n @ (a - centroid) < 0:
            simp = simp[[0, 2, 1]]
            n = -n
        simplices.append(tuple(int(x) for x in simp))
        normals.append(n / np.linalg.norm(n))
    return simplices, normals


def _merge_coplanar(pts, simplices, normals, eps):
    """Union-find hull triangles into maximal planar facets."""
    parent = list(range(len(simplices)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    edge_owner = {}
    for i, simp in enumerate(simplices):
        for k in range(3):
            e = (simp[k], simp[(k + 1) % 3])
            edge_owner[e] = i
    for i, simp in enumerate(simplices):
        for k in range(3):
            e = (simp[(k + 1) % 3], simp[k])
            j = edge_owner.get(e)
            if j is None or find(i) == find(j):
                continue
            if np.linalg.norm(normals[i] - normals[j]) < 1e-7:
                parent[find(j)] = find(i)

    groups = {}
    for i in range(len(simplices)):
        groups.setdefault(find(i), []).append(i)

    facets = []
    for members in groups.values():
        # boundary edges appear once within the group
        edges = {}
        for i in members:
            simp = simplices[i]
            for k in range(3):
                e = (simp[k], simp[(k + 1) % 3])
                if (e[1], e[0]) in edges:
                    del edges[(e[1], e[0])]
                else:
                    edges[e] = True
        nxt = {a: b for (a, b) in edges}
        start = next(iter(nxt))
        loop = [start]
        while True:
            cur = nxt[loop[-1]]
            if cur == start:
                break
            loop.append(cur)
            if len(loop) > len(nxt) + 1:
                raise DegenerateHull("facet boundary does not close")
        loop = _drop_collinear(pts, loop, eps)
        facets.append(loop)
    return facets


def _drop_collinear(pts, loop, eps):
    out = []
    n = len(loop)
    for i in range(n):
        a = pts[loop[i - 1]]
        b = pts[loop[i]]
        c = pts[loop[(i + 1) % n]]
        sin_area = np.linalg.norm(np.cross(b - a, c - b))
        if sin_area > eps * max(np.linalg.norm(b - a), np.linalg.norm(c - b)):
            out.append(loop[i])
    return out


def _triangulate_facets(pts, facets, anti):
    """Fan-triangulate facets so antipodal facets get mirrored fans,
    which keeps the face-level antipodal pairing well defined."""
    by_key = {frozenset(loop): i for i, loop in enumerate(facets)}
    apex = {}
    for i, loop in enumerate(facets):
        if i in apex:
            continue
        j = by_key.get(frozenset(anti[v] for v in loop))
        if j is None:
            raise NotCentrallySymmetric(
                "facet set is not centrally symmetric")
        apex[i] = loop[0]
        if j != i:
            apex[j] = anti[loop[0]]
    tris = []
    vids = []
    for i, loop in enumerate(facets):
        k0 = loop.index(apex[i])
        loop = loop[k0:] + loop[:k0]
        for k in range(1, len(loop) - 1):
            v0, v1, v2 = loop[0], loop[k], loop[k + 1]
            tris.append((pts[v0], pts[v1], pts[v2]))
            vids.append((v0, v1, v2))
    return tris, vids


def _assemble(pts, tris, vids, eps):
    used = sorted({v for tri in vids for v in tri})
    remap = {old: new for new, old in enumerate(used)}
    vids = [tuple(remap[v] for v in tri) for tri in vids]
    positions = pts[used]

    corners = [_chart_from_3d(*tri) for tri in tris]
    glue = _glue_from_shared_vertices(corners, vids)

    # antipodal pairing from x -> -x
    vid_anti = {}
    for new, old in enumerate(used):
        d = np.linalg.norm(positions + pts[old], axis=1)
        j = int(np.argmin(d))
        if d[j] > eps:
            raise NotCentrallySymmetric("hull vertex lost its partner")
        vid_anti[new] = j
    key_to_face = {}
    for f, tri in enumerate(vids):
        key_to_face[frozenset(tri)] = f
    antipodal_face = []
    antipodal_iso = []
    for f, tri in enumerate(vids):
        tri2 = tuple(vid_anti[v] for v in tri)
        f2 = key_to_face.get(frozenset(tri2))
        if f2 is None:
            raise NotCentrallySymmetric(
                f"no antipodal face for face {f}")
        src = corners[f]
        dst = []
        for v2 in tri2:
            c2 = vids[f2].index(v2)
            dst.append(corners[f2][c2])
        iso = Iso.from_three_points(src, dst)
        if iso.max_deviation_from_isometry() > 1e-8 or iso.det() > 0:
            raise NotCentrallySymmetric(
                "antipodal chart map is not an orientation-reversing isometry")
        antipodal_face.append(f2)
        antipodal_iso.append(iso)

    surf = ConeSurface(corners, vids, glue, antipodal_face, antipodal_iso)
    surf.validate()
    return surf


def _glue_from_shared_vertices(corners, vids):
    edge_map = {}
    for f, tri in enumerate(vids):
        for e in range(3):
            key = (tri[e], tri[(e + 1) % 3])
            if key in edge_map:
                raise GluingMismatch(f"duplicate directed edge {key}")
            edge_map[key] = (f, e)
    glue = {}
    for (a, b), (f, e) in edge_map.items():
        rev = edge_map.get((b, a))
        if rev is None:
            raise GluingMismatch(f"unmatched edge {(a, b)}")
        f2, e2 = rev
        # transform pulling chart f2 into chart f across the shared edge
        src_a = corners[f2][(e2 + 1) % 3]   # vertex a in f2
        src_b = corners[f2][e2]             # vertex b in f2
        dst_a = corners[f][e]
        dst_b = corners[f][(e + 1) % 3]
        la = math.dist(src_a, src_b)
        lb = math.dist(dst_a, dst_b)
        if abs(la - lb) > 1e-9 * max(la, lb):
            raise GluingMismatch(
                f"edge length mismatch across ({f},{e})<->({f2},{e2})")
        glue[(f, e)] = (f2, e2, Iso.from_two_points(src_a, src_b,
                                                    dst_a, dst_b))
    return glue


# -- building from an abstract net (schema B) -----------------------------

def build_from_gluing(spec):
    """Build a surface from planar triangles plus explicit gluings and an
    explicit antipodal pairing.

    spec = {"faces": [[[x,y],[x,y],[x,y]], ...],
            "gluings": [[[f,e],[f2,e2]], ...],
            "antipodal": [[f, f2, c2], ...]}   # corner 0 of f -> corner c2
    """
    corners = [tuple(tuple(float(x) for x in pt) for pt in tri)
               for tri in spec["faces"]]
    for f, tri in enumerate(corners):
        if len(tri) != 3 or any(len(pt) != 2 for pt in tri):
            raise FarmapError(f"net face {f} does not have three 2-D "
                              f"corners")
    nf = len(corners)
    scale = max(math.dist(tri[i], tri[(i + 1) % 3])
                for tri in corners for i in range(3))
    eps = 1e-9 * scale * 100.0

    for tri in corners:
        area = ((tri[1][0] - tri[0][0]) * (tri[2][1] - tri[0][1])
                - (tri[1][1] - tri[0][1]) * (tri[2][0] - tri[0][0]))
        if area <= eps * scale:
            raise GluingMismatch("net face is degenerate or clockwise")

    glue = {}
    seen = set()
    for (f, e), (f2, e2) in (tuple(map(tuple, g)) for g in spec["gluings"]):
        for key in ((f, e), (f2, e2)):
            if key in seen:
                raise GluingMismatch(f"edge {key} glued twice")
            seen.add(key)
        la = math.dist(corners[f][e], corners[f][(e + 1) % 3])
        lb = math.dist(corners[f2][e2], corners[f2][(e2 + 1) % 3])
        if abs(la - lb) > eps:
            raise GluingMismatch(
                f"edge length mismatch across ({f},{e})<->({f2},{e2})")
        src_a = corners[f2][(e2 + 1) % 3]
        src_b = corners[f2][e2]
        glue[(f, e)] = (f2, e2, Iso.from_two_points(
            src_a, src_b, corners[f][e], corners[f][(e + 1) % 3]))
        src_a2 = corners[f][(e + 1) % 3]
        src_b2 = corners[f][e]
        glue[(f2, e2)] = (f, e, Iso.from_two_points(
            src_a2, src_b2, corners[f2][e2], corners[f2][(e2 + 1) % 3]))
    missing = [(f, e) for f in range(nf) for e in range(3)
               if (f, e) not in glue]
    if missing:
        raise GluingMismatch(f"unglued edges: {missing}")

    face_vids = _identify_vertices(corners, glue)
    orig_corners = corners
    corners, face_vids, glue, remap = _remove_flat_vertices(
        corners, face_vids, glue, eps)
    spliced = any(remap[f] != f for f in remap) or len(corners) != nf

    # seed the involution from one supplied face pairing, then propagate
    # across the gluing graph (an isometry is determined by one germ)
    seed = None
    for f, f2, c2 in spec["antipodal"]:
        if remap[f] is not None and remap[f2] is not None:
            seed = (f, f2, c2)
            break
    if seed is None:
        raise InvolutionNotIsometric(
            "no antipodal pairing entry references surviving faces")
    f, f2, c2 = seed
    src = orig_corners[f]
    # orientation-reversing: corner k of f -> corner (c2 - k) mod 3
    dst = tuple(orig_corners[f2][(c2 - k) % 3] for k in range(3))
    seed_iso = Iso.from_three_points(src, dst)
    if seed_iso.max_deviation_from_isometry() > 1e-8 or seed_iso.det() > 0:
        raise InvolutionNotIsometric(
            f"antipodal pairing of face {f} is not a reversing isometry")
    antipodal_face, antipodal_iso = _propagate_involution(
        corners, glue, remap[f], remap[f2], seed_iso, eps)

    if not spliced:
        for f, f2, c2 in spec["antipodal"]:
            if antipodal_face[f] != f2:
                raise InvolutionNotIsometric(
                    f"supplied pairing maps face {f} to {f2}, derived "
                    f"involution maps it to {antipodal_face[f]}")

    surf = ConeSurface(corners, face_vids, glue, antipodal_face,
                       antipodal_iso)
    surf.validate()
    return surf


def _propagate_involution(corners, glue, f0, g0, iso0, eps):
    """Extend a single-face antipodal correspondence to every face."""
    nf = len(corners)
    face_map = [None] * nf
    iso_map = [None] * nf
    face_map[f0] = g0
    iso_map[f0] = iso0
    queue = [f0]
    while queue:
        f = queue.pop()
        g = face_map[f]
        a = iso_map[f]
        for e in range(3):
            f2, e2, t_into_f = glue[(f, e)]
            pa = a.apply(corners[f][e])
            pb = a.apply(corners[f][(e + 1) % 3])
            e_g = None
            for cand in range(3):
                qa = corners[g][cand]
                qb = corners[g][(cand + 1) % 3]
                if (math.dist(pa, qb) < eps and math.dist(pb, qa) < eps):
                    e_g = cand
                    break
            if e_g is None:
                raise InvolutionNotIsometric(
                    f"involution image of edge ({f},{e}) is not an edge")
            g2, eg2, t_into_g = glue[(g, e_g)]
            a2 = t_into_g.inverse().compose(a).compose(t_into_f)
            if face_map[f2] is None:
                face_map[f2] = g2
                iso_map[f2] = a2
                queue.append(f2)
            else:
                if face_map[f2] != g2:
                    raise InvolutionNotIsometric(
                        "involution propagation is inconsistent")
                prev = iso_map[f2]
                for c in range(3):
                    if math.dist(prev.apply(corners[f2][c]),
                                 a2.apply(corners[f2][c])) > eps:
                        raise InvolutionNotIsometric(
                            "involution propagation is inconsistent")
    for f in range(nf):
        back = iso_map[face_map[f]].compose(iso_map[f])
        for c in range(3):
            if math.dist(back.apply(corners[f][c]), corners[f][c]) > eps:
                raise InvolutionNotIsometric("pairing is not an involution")
    return face_map, iso_map


def _identify_vertices(corners, glue):
    nf = len(corners)
    parent = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        parent[find(y)] = find(x)

    for (f, e), (f2, e2, _) in glue.items():
        union((f, e), (f2, (e2 + 1) % 3))
        union((f, (e + 1) % 3), (f2, e2))
    classes = {}
    face_vids = []
    for f in range(nf):
        tri = []
        for c in range(3):
            root = find((f, c))
            if root not in classes:
                classes[root] = len(classes)
            tri.append(classes[root])
        face_vids.append(tuple(tri))
    return face_vids


def _remove_flat_vertices(corners, face_vids, glue, eps):
    """Retriangulate stars of vertices with total angle 2*pi so that every
    remaining vertex is a genuine cone point.

    Returns the rebuilt (corners, face_vids, glue) plus a map from original
    face ids to surviving ids (None for faces consumed by a splice)."""
    total_remap = {f: f for f in range(len(corners))}
    probe = ConeSurface(corners, face_vids, dict(glue))
    flat = [cp.vid for cp in probe.cone_points
            if abs(cp.deficit) < 1e-7]
    if not flat:
        return corners, face_vids, glue, total_remap

    corners = list(corners)
    face_vids = list(face_vids)
    for vid in flat:
        probe = ConeSurface(corners, face_vids, dict(glue))
        if vid not in probe.vertex_cycles:
            continue
        cycle = probe.vertex_cycles[vid]
        star_faces = [f for f, _ in cycle]
        if len(set(star_faces)) != len(star_faces):
            raise GluingMismatch("flat vertex star revisits a face")
        # develop the star into the plane around the flat vertex
        ring = []          # developed outer-ring points
        ring_vids = []
        outer_glue = []    # external gluing record per ring edge
        t = Iso.identity()
        f0, c0 = cycle[0]
        base = probe.corners[f0][c0]
        shift = Iso(1, 0, 0, 1, -base[0], -base[1])
        t = shift
        for f, c in cycle:
            tri = probe.corners[f]
            a = t.apply(tri[c])
            b = t.apply(tri[(c + 1) % 3])
            d = t.apply(tri[(c + 2) % 3])
            ring.append(b)
            ring_vids.append(face_vids[f][(c + 1) % 3])
            # the outer edge of this star triangle is edge (c+1): b -> d
            tgt = glue[(f, (c + 1) % 3)]
            outer_glue.append((tgt, (b, d)))
            # move the frame across edge (c+2) into the next star face
            f2, e2, into = glue[(f, (c + 2) % 3)]
            t = t.compose(into)
        tris_idx = ear_clip(ring)
        new_faces = []
        new_vids = []
        for i0, i1, i2 in tris_idx:
            new_faces.append((tuple(ring[i0]), tuple(ring[i1]),
                              tuple(ring[i2])))
            new_vids.append((ring_vids[i0], ring_vids[i1], ring_vids[i2]))
        # splice: remove star faces, append new ones, rebuild gluings
        corners, face_vids, glue, step_remap = _splice_star(
            corners, face_vids, glue, star_faces, ring, outer_glue,
            new_faces, new_vids, tris_idx, eps)
        total_remap = {
            orig: (step_remap.get(cur) if cur is not None else None)
            for orig, cur in total_remap.items()}
    return corners, face_vids, glue, total_remap


def _splice_star(corners, face_vids, glue, star_faces, ring, outer_glue,
                 new_faces, new_vids, tris_idx, eps):
    removed = set(star_faces)
    keep = [f for f in range(len(corners)) if f not in removed]
    remap = {old: new for new, old in enumerate(keep)}
    out_corners = [corners[f] for f in keep]
    out_vids = [face_vids[f] for f in keep]
    base = len(out_corners)
    out_corners += [tuple(tri) for tri in new_faces]
    out_vids += new_vids

    # ring edge -> (new face, edge) lookup in the developed frame
    edge_of = {}
    for local_f, (i0, i1, i2) in enumerate(tris_idx):
        idx = (i0, i1, i2)
        for e in range(3):
            edge_of[(idx[e], idx[(e + 1) % 3])] = (base + local_f, e)

    new_glue = {}
    for (f, e), (f2, e2, iso) in glue.items():
        if f in removed or f2 in removed:
            continue
        new_glue[(remap[f], e)] = (remap[f2], e2, iso)
    n = len(ring)
    for k in range(n):
        (tgt, (b, d)) = outer_glue[k]
        tf, te, _ = tgt
        nf_, ne = edge_of[(k, (k + 1) % n)]
        if tf in removed:
            raise GluingMismatch("flat stars sharing an edge: unsupported")
        tf_new = remap[tf]
        # outer ring edge in new face chart equals (b, d) developed coords
        src_a = corners[tf][(te + 1) % 3]
        src_b = corners[tf][te]
        new_glue[(nf_, ne)] = (tf_new, te, Iso.from_two_points(
            src_a, src_b, out_corners[nf_][ne],
            out_corners[nf_][(ne + 1) % 3]))
        new_glue[(tf_new, te)] = (nf_, ne, Iso.from_two_points(
            out_corners[nf_][(ne + 1) % 3], out_corners[nf_][ne],
            corners[tf][te], corners[tf][(te + 1) % 3]))
    # internal diagonals of the retriangulated star
    for local_f, (i0, i1, i2) in enumerate(tris_idx):
        idx = (i0, i1, i2)
        for e in range(3):
            key = (idx[(e + 1) % 3], idx[e])
            partner = edge_of.get(key)
            if partner is None:
                continue
            pf, pe = partner
            nf_ = base + local_f
            new_glue[(nf_, e)] = (pf, pe, Iso.identity())
    return out_corners, out_vids, new_glue, remap
