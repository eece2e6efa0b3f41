"""Star unfolding: cut along one minimizer from the source to every cone
point and develop the complement onto the plane.

The result is a simple 4N-gon (2(2N-1)-gon for a cone-point source) whose
vertices alternate between source images phi_1..phi_K and cone-point
images Dev(C_1)..Dev(C_K), with phi_n adjacent to Dev(C_n), Dev(C_{n+1}).
The polygon is assembled wedge by wedge: in the local frame of wedge n
(between consecutive cuts) the source image sits at the origin and both
bounding cuts lie at their (unwrapped) direction-atlas angles; consecutive
frames are chained through the shared cone-point image, where the polygon
interior angle equals the full cone angle.

Index 1 is anchored at the cut to the smallest cone-point id, so the
indexing is constant on each region of the cut-locus decomposition.
`StarPolygon` holds the images and the predicates on the polygon; a
region builds one from its fitted isometries, with no geodesic search
(`cutlocus.Region.star_polygon`).
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import QhullError, Voronoi

from .errors import CutDegeneracy, OutsidePolygon, VoronoiDegeneracy
from .geom import Iso, polygon_signed_area
from .geodesics import DirectionAtlas, paths_to_cone_points, trace_ray
from .surface import TWO_PI


@dataclass
class Cut:
    vid: int          # cone point id
    length: float     # dist(source, C)
    angle: float      # raw atlas angle of the initial direction
    unwrapped: float  # monotone angle in [a_0, a_0 + theta_source]


class StarPolygon:
    """The star polygon of a source, given by its source images
    phi_1..phi_K and cone images C_1..C_K (cut n runs from phi_n to C_n),
    with the predicates on it that good triples and fold-back need.

    The predicates read a table of the polygon edges built once here; each
    repeats the float operations of its `geom` counterpart in the same
    order, so its decisions are those of the `geom` helpers.
    """

    def __init__(self, surface, source_images, cone_images):
        self.surface = surface
        self.source_images = source_images
        self.cone_images = cone_images
        self.n_images = len(source_images)
        # index order [C_1, phi_1, C_2, phi_2, ...] walks the boundary
        # clockwise; store the reversal so the polygon is CCW
        poly = []
        for cone, phi in zip(cone_images, source_images):
            poly.append(cone)
            poly.append(phi)
        self.polygon = poly[::-1]
        # edge k: both endpoints verbatim (rebuilding one as start + vector
        # would round), the edge vector, its length and its squared length
        edges = []
        n = len(self.polygon)
        for k in range(n):
            cx, cy = self.polygon[k]
            dx, dy = self.polygon[(k + 1) % n]
            sx, sy = dx - cx, dy - cy
            edges.append((cx, cy, dx, dy, sx, sy, math.hypot(sx, sy),
                          sx * sx + sy * sy))
        self._edges = edges

    def voronoi(self):
        """Voronoi diagram of the source images (scipy.spatial.Voronoi).

        Clipped to the star polygon it is the cut locus of the source
        (Aronov-O'Rourke), so its vertices are the only candidates for the
        circumcenters of good triples.
        """
        try:
            return Voronoi(np.array(self.source_images))
        except QhullError as exc:
            raise VoronoiDegeneracy(
                f"qhull failed on {self.n_images} source images: "
                f"{str(exc).splitlines()[0]}") from exc

    # -- geometric predicates ----------------------------------------------

    def _inside(self, x, y):
        """geom.point_in_polygon: edge k enters as the pair (vertex k+1,
        vertex k)."""
        inside = False
        for xj, yj, xi, yi, _, _, _, _ in self._edges:
            if (yi > y) != (yj > y):
                if x < xi + (y - yi) / (yj - yi) * (xj - xi):
                    inside = not inside
        return inside

    def boundary_distance(self, p):
        """geom.dist_point_polygon_boundary."""
        px, py = p
        best = math.inf
        for cx, cy, _, _, sx, sy, _, n2 in self._edges:
            if n2 == 0.0:
                g = math.hypot(px - cx, py - cy)
            else:
                t = ((px - cx) * sx + (py - cy) * sy) / n2
                t = 0.0 if t < 0.0 else (1.0 if t > 1.0 else t)
                g = math.hypot(px - cx - t * sx, py - cy - t * sy)
            if g < best:
                best = g
        return best

    def contains(self, a, clearance=0.0):
        if not self._inside(a[0], a[1]):
            return False
        if clearance > 0.0:
            return self.boundary_distance(a) > clearance
        return True

    def is_star_path(self, a, b, eps=None):
        """Open segment (a, b) stays strictly inside the polygon.

        Endpoints may lie on the boundary (e.g. at source images). Segments
        grazing a polygon vertex within eps are rejected.
        """
        if eps is None:
            eps = 1e-9 * self.surface.chart_scale
        d = math.dist(a, b)
        if d < eps:
            return self.contains(a, clearance=0.0)
        ax, ay = a
        bx, by = b
        if not self._inside((ax + bx) / 2, (ay + by) / 2):
            return False
        rx, ry = bx - ax, by - ay
        lr = math.hypot(rx, ry)
        n2 = rx * rx + ry * ry
        for cx, cy, _, _, sx, sy, ls, _ in self._edges:
            qx, qy = cx - ax, cy - ay
            # geom.seg_seg_proper_cross(a, b, edge start, edge end, eps)
            denom = rx * sy - ry * sx
            if denom != 0.0 and lr != 0.0 and ls != 0.0:
                t = (qx * sy - qy * sx) / denom
                et = eps / lr
                if et < t < 1.0 - et:
                    u = (qx * ry - qy * rx) / denom
                    eu = eps / ls
                    if eu < u < 1.0 - eu:
                        return False
            # geom.dist_point_seg(edge start, a, b): a vertex within eps of
            # the segment and not of its endpoints
            if n2 == 0.0:
                g = math.hypot(qx, qy)
            else:
                t = (qx * rx + qy * ry) / n2
                t = 0.0 if t < 0.0 else (1.0 if t > 1.0 else t)
                g = math.hypot(qx - t * rx, qy - t * ry)
            if g < eps and math.dist((cx, cy), a) >= eps and \
                    math.dist((cx, cy), b) >= eps:
                return False
        return True


class StarUnfolding(StarPolygon):
    def __init__(self, surface, source):
        source = surface.canonical(source)
        self.source = source
        self.atlas = DirectionAtlas.at(surface, source)
        self.theta_source = self.atlas.total

        tied = paths_to_cone_points(surface, source)
        cuts = []
        for vid, paths in tied.items():
            if not paths:
                raise CutDegeneracy(f"no minimizer to cone point {vid}")
            # every path is within eps_tie of the shortest: cut along the
            # first in atlas order
            pick = min(paths, key=lambda g: g.init_t)
            cuts.append(Cut(vid, pick.length, pick.init_t, 0.0))
        anchor_vid = min(c.vid for c in cuts)
        a0 = next(c.angle for c in cuts if c.vid == anchor_vid)
        theta = self.theta_source
        cuts.sort(key=lambda c: (c.angle - a0) % theta)
        for c in cuts:
            c.unwrapped = a0 + (c.angle - a0) % theta
        for i in range(len(cuts) - 1):
            if cuts[i + 1].unwrapped - cuts[i].unwrapped < 1e-12:
                raise CutDegeneracy(
                    f"cuts to cone points {cuts[i].vid} and "
                    f"{cuts[i + 1].vid} share a direction")
        self.cuts = cuts
        super().__init__(surface, *self._develop(surface))
        self.signed_area = polygon_signed_area(self.polygon)

    # the star-path test is looked up in this class's own namespace by the
    # benchmark's layer tracer (perfbench/tracing.py)
    is_star_path = StarPolygon.is_star_path

    # -- polygon assembly --------------------------------------------------

    def _develop(self, surface):
        """Chain the wedge frames; returns (source images, cone images)."""
        cuts = self.cuts
        k = len(cuts)
        theta = self.theta_source
        cone_theta = [surface.cone_points[surface.vid_to_cone[c.vid]].theta
                      for c in cuts]

        def local_cone(i, lift=False):
            ang = cuts[i].unwrapped + (theta if lift else 0.0)
            r = cuts[i].length
            return (r * math.cos(ang), r * math.sin(ang))

        wedges = [Iso.identity()]
        for n in range(k - 1):
            g = wedges[n]
            nxt = n + 1
            local_next = local_cone(nxt)
            p_img = g.apply(local_next)
            phi_n = g.apply((0.0, 0.0))
            r = cuts[nxt].length
            ux = (phi_n[0] - p_img[0]) / r
            uy = (phi_n[1] - p_img[1]) / r
            th = cone_theta[nxt]
            c, s = math.cos(th), math.sin(th)
            wx = c * ux - s * uy
            wy = s * ux + c * uy
            phi_next = (p_img[0] + r * wx, p_img[1] + r * wy)
            wedges.append(Iso.from_two_points(local_next, (0.0, 0.0),
                                              p_img, phi_next))
        self.wedges = wedges

        # closure: the last wedge predicts cone image 0 and source image 0
        g = wedges[-1]
        p_close = g.apply(local_cone(0, lift=True))
        r0 = cuts[0].length
        phi_last = g.apply((0.0, 0.0))
        ux = (phi_last[0] - p_close[0]) / r0
        uy = (phi_last[1] - p_close[1]) / r0
        th = cone_theta[0]
        c, s = math.cos(th), math.sin(th)
        phi0_check = (p_close[0] + r0 * (c * ux - s * uy),
                      p_close[1] + r0 * (s * ux + c * uy))
        dev0 = local_cone(0)
        tol = 1e-7 * surface.chart_scale * max(1.0, k)
        closure_err = max(math.dist(p_close, dev0),
                          math.dist(phi0_check, (0.0, 0.0)))
        if closure_err > tol:
            raise CutDegeneracy(
                f"unfolding failed to close (error {closure_err:.3g})")
        self.closure_error = closure_err

        source_images = [tuple(w.apply((0.0, 0.0))) for w in wedges]
        cone_images = [tuple(wedges[n].apply(local_cone(n)))
                       for n in range(k)]
        return source_images, cone_images

    # -- developing map and its inverse -------------------------------------

    def _wedge_of_unwrapped(self, t_bar):
        cuts = self.cuts
        for n in range(self.n_images - 1):
            if t_bar < cuts[n + 1].unwrapped:
                return max(n, 0)
        return self.n_images - 1

    def _lift_angle(self, t_raw):
        """Raw atlas angle -> monotone angle in [a_0, a_0 + theta)."""
        a0 = self.cuts[0].unwrapped
        return a0 + (t_raw - a0) % self.theta_source

    def _chart_to_polygon(self, wedge, lifted, final_iso):
        g = self.wedges[wedge]
        if lifted:
            g = g.compose(Iso.rotation(self.theta_source))
        return g.compose(final_iso)

    def dev_point(self, q, *, path=None):
        """Developed image of q plus the q-chart -> polygon transform.

        q must avoid the cut tree; the unique shortest path from the source
        carries the development."""
        from .geodesics import minimizers
        if path is None:
            cands = minimizers(self.surface, self.source, q)
            path = min(cands, key=lambda g: (g.length, g.init_t))
        t_bar = self._lift_angle(path.init_t)
        lifted = t_bar - path.init_t > 1e-9
        n = self._wedge_of_unwrapped(t_bar)
        t_chart = self._chart_to_polygon(n, lifted, path.final_transform)
        img = path.target_img
        if lifted:
            img = Iso.rotation(self.theta_source).apply(img)
        return self.wedges[n].apply(img), t_chart

    def fold_back(self, a, *, with_transform=False):
        """Surface point whose developed image is a (strictly inside)."""
        if not self.contains(a) or self.boundary_distance(
                a) < 1e-12 * self.surface.chart_scale:
            raise OutsidePolygon(f"{a} is not strictly inside the polygon")
        # the nearest source image that sees a, the lower index on a tie:
        # images are tried in (distance, index) order, so the first star
        # path is that one
        ranked = sorted((math.dist(a, phi), i)
                        for i, phi in enumerate(self.source_images))
        for d, i in ranked:
            if self.is_star_path(a, self.source_images[i]):
                break
        else:
            raise OutsidePolygon(f"no source image sees {a}")
        v = self.wedges[i].inverse().apply(a)
        t_bar = math.atan2(v[1], v[0])
        lo = self.cuts[i].unwrapped
        hi = (self.cuts[i + 1].unwrapped if i + 1 < self.n_images
              else self.cuts[0].unwrapped + self.theta_source)
        while t_bar < lo - 1e-9:
            t_bar += TWO_PI
        t_bar = min(max(t_bar, lo), hi)
        t_raw = t_bar % self.theta_source
        pt, t_iso = trace_ray(self.surface, self.atlas, t_raw, d)
        if not with_transform:
            return pt
        lifted = abs(t_bar - t_raw) > 1e-9
        t_chart = self._chart_to_polygon(i, lifted, t_iso)
        return pt, t_chart

    def fold_segment(self, a, b):
        """Surface polyline of the straight segment [a, b].

        The open segment must lie inside the polygon; endpoints may sit on
        the boundary only at cone images (where the folded curve ends at
        the cone point). Returns [(face, uv0, uv1), ...] per face crossed.
        """
        seg_len = math.dist(a, b)
        if seg_len == 0.0:
            return []
        delta = 1e-9
        pieces = []
        t = 0.0
        for _ in range(200):
            probe = min(t + delta, 0.5 * (t + 1.0))
            pa = (a[0] + probe * (b[0] - a[0]), a[1] + probe * (b[1] - a[1]))
            sp, t_chart = self.fold_back(pa, with_transform=True)
            inv = t_chart.inverse()
            ca = inv.apply(a)
            cb = inv.apply(b)
            s0, s1 = _clip_param_to_triangle(
                ca, cb, self.surface.corners[sp.face],
                1e-9 * self.surface.chart_scale)
            s0 = max(s0, t)
            if s1 <= s0 + delta:
                s1 = min(1.0, s0 + 2 * delta)
            p0 = (ca[0] + s0 * (cb[0] - ca[0]), ca[1] + s0 * (cb[1] - ca[1]))
            p1 = (ca[0] + s1 * (cb[0] - ca[0]), ca[1] + s1 * (cb[1] - ca[1]))
            pieces.append((sp.face, p0, p1))
            t = s1
            if t >= 1.0 - delta:
                return pieces
        raise OutsidePolygon("fold_segment exceeded its piece budget")


def _clip_param_to_triangle(a, b, tri, tol):
    """Parameter interval of segment a + s(b-a) inside the CCW triangle."""
    s0, s1 = 0.0, 1.0
    for e in range(3):
        p = tri[e]
        q = tri[(e + 1) % 3]
        ex, ey = q[0] - p[0], q[1] - p[1]
        ca = ex * (a[1] - p[1]) - ey * (a[0] - p[0])
        cb = ex * (b[1] - p[1]) - ey * (b[0] - p[0])
        # keep cross >= -tol (inside is to the left of each CCW edge)
        lim = -tol * math.hypot(ex, ey)
        if ca < lim and cb < lim:
            return (0.0, 0.0)
        if abs(cb - ca) < 1e-300:
            continue
        s_hit = (lim - ca) / (cb - ca)
        if ca < lim:
            s0 = max(s0, s_hit)
        elif cb < lim:
            s1 = min(s1, s_hit)
    return (s0, max(s0, s1))


def unfold(surface, source):
    """Build the star unfolding around `source` (phi(p) when evaluating f)."""
    return StarUnfolding(surface, source)
