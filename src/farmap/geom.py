"""Planar geometry primitives: rigid/reversing isometries, circumcenters,
segment predicates, polygon tests, and small polynomial helpers.

All routines work on plain (x, y) float pairs so they stay cheap inside the
geodesic search loops; numpy enters only for batched evaluation.
"""

import math

import numpy as np


class Iso:
    """Planar isometry x -> M x + t with M = [[a, b], [c, d]] orthogonal."""

    __slots__ = ("a", "b", "c", "d", "tx", "ty")

    def __init__(self, a, b, c, d, tx, ty):
        self.a = a
        self.b = b
        self.c = c
        self.d = d
        self.tx = tx
        self.ty = ty

    @staticmethod
    def identity():
        return Iso(1.0, 0.0, 0.0, 1.0, 0.0, 0.0)

    @staticmethod
    def rotation(theta, tx=0.0, ty=0.0):
        c = math.cos(theta)
        s = math.sin(theta)
        return Iso(c, -s, s, c, tx, ty)

    @staticmethod
    def from_two_points(src_a, src_b, dst_a, dst_b):
        """Orientation-preserving isometry mapping src_a->dst_a, src_b->dst_b.

        Assumes |src_b - src_a| == |dst_b - dst_a| (not rechecked here).
        """
        ux, uy = src_b[0] - src_a[0], src_b[1] - src_a[1]
        vx, vy = dst_b[0] - dst_a[0], dst_b[1] - dst_a[1]
        n2 = ux * ux + uy * uy
        # R maps u to v: complex multiplication by (v / u)
        c = (vx * ux + vy * uy) / n2
        s = (vy * ux - vx * uy) / n2
        tx = dst_a[0] - (c * src_a[0] - s * src_a[1])
        ty = dst_a[1] - (s * src_a[0] + c * src_a[1])
        return Iso(c, -s, s, c, tx, ty)

    @staticmethod
    def from_three_points(src, dst):
        """Affine map through three point pairs; caller checks isometry."""
        s = np.array([[src[0][0], src[0][1], 1.0],
                      [src[1][0], src[1][1], 1.0],
                      [src[2][0], src[2][1], 1.0]])
        dx = np.array([dst[0][0], dst[1][0], dst[2][0]])
        dy = np.array([dst[0][1], dst[1][1], dst[2][1]])
        rx = np.linalg.solve(s, dx)
        ry = np.linalg.solve(s, dy)
        return Iso(rx[0], rx[1], ry[0], ry[1], rx[2], ry[2])

    def apply(self, p):
        x, y = p
        return (self.a * x + self.b * y + self.tx,
                self.c * x + self.d * y + self.ty)

    def apply_vec(self, v):
        x, y = v
        return (self.a * x + self.b * y, self.c * x + self.d * y)

    def compose(self, other):
        """self o other (apply other first)."""
        o = other
        return Iso(self.a * o.a + self.b * o.c,
                   self.a * o.b + self.b * o.d,
                   self.c * o.a + self.d * o.c,
                   self.c * o.b + self.d * o.d,
                   self.a * o.tx + self.b * o.ty + self.tx,
                   self.c * o.tx + self.d * o.ty + self.ty)

    def inverse(self):
        det = self.a * self.d - self.b * self.c
        ia = self.d / det
        ib = -self.b / det
        ic = -self.c / det
        id_ = self.a / det
        return Iso(ia, ib, ic, id_,
                   -(ia * self.tx + ib * self.ty),
                   -(ic * self.tx + id_ * self.ty))

    def det(self):
        return self.a * self.d - self.b * self.c

    def linear(self):
        return np.array([[self.a, self.b], [self.c, self.d]])

    def translation(self):
        return (self.tx, self.ty)

    def rotation_angle(self):
        """Rotation angle for orientation-preserving isometries."""
        return math.atan2(self.c, self.a)

    def max_deviation_from_isometry(self):
        m = self.linear()
        return float(np.abs(m @ m.T - np.eye(2)).max())

    def __repr__(self):
        return (f"Iso([[{self.a:.6g},{self.b:.6g}],[{self.c:.6g},"
                f"{self.d:.6g}]], t=({self.tx:.6g},{self.ty:.6g}))")


def circumcenter(p1, p2, p3):
    """Circumcenter of three points, or None if (near-)collinear."""
    ax, ay = p1
    bx, by = p2
    cx, cy = p3
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    scale2 = max(abs(bx - ax) + abs(by - ay), abs(cx - ax) + abs(cy - ay))
    if abs(d) < 1e-14 * scale2 * scale2:
        return None
    a2 = ax * ax + ay * ay
    b2 = bx * bx + by * by
    c2 = cx * cx + cy * cy
    ux = (a2 * (by - cy) + b2 * (cy - ay) + c2 * (ay - by)) / d
    uy = (a2 * (cx - bx) + b2 * (ax - cx) + c2 * (bx - ax)) / d
    return (ux, uy)


def seg_seg_proper_cross(a, b, c, d, eps):
    """True if open segments (a,b) and (c,d) cross transversally.

    Contacts within eps of any endpoint do not count as crossings.
    """
    r = (b[0] - a[0], b[1] - a[1])
    s = (d[0] - c[0], d[1] - c[1])
    denom = r[0] * s[1] - r[1] * s[0]
    if denom == 0.0:
        return False
    qp = (c[0] - a[0], c[1] - a[1])
    t = (qp[0] * s[1] - qp[1] * s[0]) / denom
    u = (qp[0] * r[1] - qp[1] * r[0]) / denom
    lr = math.hypot(*r)
    ls = math.hypot(*s)
    if lr == 0.0 or ls == 0.0:
        return False
    et = eps / lr
    eu = eps / ls
    return (et < t < 1.0 - et) and (eu < u < 1.0 - eu)


def dist_point_seg(p, a, b):
    ax, ay = a
    bx, by = b
    px, py = p
    dx, dy = bx - ax, by - ay
    n2 = dx * dx + dy * dy
    if n2 == 0.0:
        return math.hypot(px - ax, py - ay)
    t = ((px - ax) * dx + (py - ay) * dy) / n2
    t = 0.0 if t < 0.0 else (1.0 if t > 1.0 else t)
    return math.hypot(px - ax - t * dx, py - ay - t * dy)


def seg_seg_intersection(a, b, c, d):
    """Intersection parameters (t, u) of lines through (a,b) and (c,d).

    Returns None for (near-)parallel lines; caller range-checks t, u.
    """
    r = (b[0] - a[0], b[1] - a[1])
    s = (d[0] - c[0], d[1] - c[1])
    denom = r[0] * s[1] - r[1] * s[0]
    if abs(denom) < 1e-300:
        return None
    qp = (c[0] - a[0], c[1] - a[1])
    t = (qp[0] * s[1] - qp[1] * s[0]) / denom
    u = (qp[0] * r[1] - qp[1] * r[0]) / denom
    return (t, u)


def point_in_polygon(p, poly):
    """Even-odd rule; points on the boundary are unreliable here."""
    x, y = p
    inside = False
    n = len(poly)
    j = n - 1
    for i in range(n):
        xi, yi = poly[i]
        xj, yj = poly[j]
        if (yi > y) != (yj > y):
            xcross = xi + (y - yi) / (yj - yi) * (xj - xi)
            if x < xcross:
                inside = not inside
        j = i
    return inside


def dist_point_polygon_boundary(p, poly):
    n = len(poly)
    return min(dist_point_seg(p, poly[i], poly[(i + 1) % n])
               for i in range(n))


def polygon_signed_area(poly):
    n = len(poly)
    s = 0.0
    for i in range(n):
        x0, y0 = poly[i]
        x1, y1 = poly[(i + 1) % n]
        s += x0 * y1 - x1 * y0
    return 0.5 * s


def polygon_is_simple(poly, eps):
    """No two non-adjacent edges intersect; adjacent edges only at the
    shared vertex."""
    n = len(poly)
    edges = [(poly[i], poly[(i + 1) % n]) for i in range(n)]
    for i in range(n):
        a, b = edges[i]
        for j in range(i + 1, n):
            c, d = edges[j]
            adjacent = (j == i + 1) or (i == 0 and j == n - 1)
            if adjacent:
                if seg_seg_proper_cross(a, b, c, d, eps):
                    return False
                continue
            # non-adjacent edges must stay eps apart entirely
            out = seg_seg_intersection(a, b, c, d)
            if out is not None:
                t, u = out
                if -0.0 <= t <= 1.0 and 0.0 <= u <= 1.0:
                    return False
            if dist_point_seg(a, c, d) < eps or dist_point_seg(b, c, d) < eps:
                return False
    return True


def fit_reversing_isometry(src, dst):
    """Least-squares orientation-reversing isometry mapping src[i] -> dst[i].

    Procrustes with the determinant constrained to -1. Returns (Iso, rms).
    """
    src = np.asarray(src, dtype=float)
    dst = np.asarray(dst, dtype=float)
    cs = src.mean(axis=0)
    cd = dst.mean(axis=0)
    h = (dst - cd).T @ (src - cs)
    u, _, vt = np.linalg.svd(h)
    d = np.sign(np.linalg.det(u @ vt))
    # force det(M) = -1
    corr = np.diag([1.0, -d])
    m = u @ corr @ vt
    if np.linalg.det(m) > 0:
        m = u @ np.diag([1.0, d]) @ vt  # fallback; should not trigger
    t = cd - m @ cs
    # plain floats: numpy-scalar arithmetic in every later apply would be
    # several times slower, for the same IEEE results
    iso = Iso(float(m[0, 0]), float(m[0, 1]), float(m[1, 0]),
              float(m[1, 1]), float(t[0]), float(t[1]))
    pred = src @ m.T + t
    rms = float(np.sqrt(((pred - dst) ** 2).sum(axis=1).mean()))
    return iso, rms


def glide_decomposition(iso):
    """Decompose a reversing isometry into (axis_point, axis_dir, glide).

    The axis is the invariant line of the glide reflection; glide is the
    signed translation length along axis_dir (unit vector). axis_dir is
    normalized so its angle lies in [0, pi).
    """
    m = iso.linear()
    # reflection axis direction: +1 eigenvector of M
    w, v = np.linalg.eigh((m + m.T) / 2.0)
    u = v[:, int(np.argmax(w))]
    if abs(np.linalg.det(m) + 1.0) > 1e-9:
        raise ValueError("glide_decomposition needs a reversing isometry")
    ang = math.atan2(u[1], u[0]) % math.pi
    u = np.array([math.cos(ang), math.sin(ang)])
    t = np.array([iso.tx, iso.ty])
    glide = float(t @ u)
    # solve (M - I) x = glide*u - t ; rank-1 system with solution along u free
    rhs = glide * u - t
    a = m - np.eye(2)
    x0, *_ = np.linalg.lstsq(a, rhs, rcond=None)
    return (float(x0[0]), float(x0[1])), (float(u[0]), float(u[1])), glide


def ear_clip(poly):
    """Triangulate a simple CCW polygon by ear clipping.

    Returns index triples into poly. Good enough for the small flat-vertex
    stars this package retriangulates.
    """
    n = len(poly)
    idx = list(range(n))
    tris = []
    guard = 0
    while len(idx) > 3 and guard < 10 * n * n:
        guard += 1
        found = False
        m = len(idx)
        for k in range(m):
            i0, i1, i2 = idx[k - 1], idx[k], idx[(k + 1) % m]
            a, b, c = poly[i0], poly[i1], poly[i2]
            cross = ((b[0] - a[0]) * (c[1] - a[1])
                     - (b[1] - a[1]) * (c[0] - a[0]))
            if cross <= 0:
                continue
            ok = True
            for j in idx:
                if j in (i0, i1, i2):
                    continue
                if _in_triangle(poly[j], a, b, c):
                    ok = False
                    break
            if ok:
                tris.append((i0, i1, i2))
                idx.pop(k)
                found = True
                break
        if not found:
            raise ValueError("ear clipping failed (non-simple polygon?)")
    tris.append(tuple(idx))
    return tris


def _in_triangle(p, a, b, c):
    def side(p0, p1):
        return ((p1[0] - p0[0]) * (p[1] - p0[1])
                - (p1[1] - p0[1]) * (p[0] - p0[0]))

    d1, d2, d3 = side(a, b), side(b, c), side(c, a)
    neg = (d1 < 0) or (d2 < 0) or (d3 < 0)
    pos = (d1 > 0) or (d2 > 0) or (d3 > 0)
    return not (neg and pos)


# --- tiny polynomial algebra for the rational circumcenter maps ---------
#
# Affine forms are numpy arrays [c, cx, cy] meaning c + cx*x + cy*y.
# Quadratics are arrays [c, x, y, x^2, x*y, y^2].

def aff(c, cx, cy):
    return np.array([c, cx, cy], dtype=float)


def aff_mul(a, b):
    """Product of two affine forms as a quadratic coefficient array."""
    return np.array([
        a[0] * b[0],
        a[0] * b[1] + a[1] * b[0],
        a[0] * b[2] + a[2] * b[0],
        a[1] * b[1],
        a[1] * b[2] + a[2] * b[1],
        a[2] * b[2],
    ])
