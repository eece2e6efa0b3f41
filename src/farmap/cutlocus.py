"""Cut loci of the cone points, the region decomposition they induce, and
the per-region reversing isometries.

The cut locus of cone point C is computed in the plane of the star
unfolding with source C: it is the Voronoi diagram of the source images
restricted to the star polygon, folded back to the surface. Overlaying all
2N trees cuts the surface into regions; each region is developed into a
planar chart and carries one orientation-reversing isometry I_n per cone
point index (fitted from source-image positions of sampled unfoldings).
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import ConvexHull

from .errors import ArrangementDegeneracy, FitDegenerate
from .geom import (Iso, Polygon, dist_point_seg, fit_reversing_isometry,
                   polygon_signed_area, seg_seg_intersection)
from .star_unfold import StarPolygon, unfold
from .surface import SurfacePoint


@dataclass
class CutLocusTree:
    vid: int
    unfolding: object
    nodes: list            # planar points (star-polygon plane)
    node_surface: list     # SurfacePoint per node
    edges: list            # (node_a, node_b) index pairs
    polylines: list        # per edge: [(face, uv0, uv1), ...]

    def degree(self, i):
        return sum(1 for a, b in self.edges if i == a or i == b)

    def leaves(self):
        return [i for i in range(len(self.nodes)) if self.degree(i) == 1]

    def edge_points(self, per_edge=3):
        """Surface samples strictly inside tree edges."""
        out = []
        for k, (a, b) in enumerate(self.edges):
            pieces = self.polylines[k]
            total = sum(math.dist(p0, p1) for _, p0, p1 in pieces)
            for j in range(per_edge):
                s = total * (j + 1) / (per_edge + 1)
                acc = 0.0
                for face, p0, p1 in pieces:
                    seg = math.dist(p0, p1)
                    if acc + seg >= s and seg > 0:
                        w = (s - acc) / seg
                        out.append(SurfacePoint(
                            face, p0[0] + w * (p1[0] - p0[0]),
                            p0[1] + w * (p1[1] - p0[1])))
                        break
                    acc += seg
        return out

    def is_connected(self):
        if not self.nodes:
            return False
        adj = {i: set() for i in range(len(self.nodes))}
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        seen = {0}
        stack = [0]
        while stack:
            for nb in adj[stack.pop()]:
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        return len(seen) == len(self.nodes)

    def is_tree(self):
        return self.is_connected() and \
            len(self.edges) == len(self.nodes) - 1


def cut_locus(surface, vid):
    """Cut locus tree of cone point `vid` via the Voronoi characterization.

    Voronoi edges of the source images are clipped to the star polygon,
    endpoints within a merge tolerance are identified (symmetric surfaces
    produce high-degree Voronoi vertices split by rounding), and each edge
    is folded back to a surface polyline.
    """
    u = unfold(surface, surface.vertex_point(vid))
    vor = u.voronoi()
    sites = vor.points
    span = float(np.ptp(sites, axis=0).max()) * 20.0 + 10.0 * surface.diameter
    center = sites.mean(axis=0)

    raw = []
    for (i, j), rv in zip(vor.ridge_points, vor.ridge_vertices):
        v0, v1 = rv
        ij = (int(i), int(j))
        if v0 >= 0 and v1 >= 0:
            raw.append((tuple(vor.vertices[v0]), tuple(vor.vertices[v1]), ij))
            continue
        vf = vor.vertices[v1 if v0 < 0 else v0]
        mid = 0.5 * (sites[i] + sites[j])
        dvec = sites[j] - sites[i]
        normal = np.array([-dvec[1], dvec[0]])
        normal /= np.linalg.norm(normal)
        if (mid - center) @ normal < 0:
            normal = -normal
        far = mid + normal * span
        raw.append((tuple(vf), tuple(far), ij))

    tol = 1e-9 * surface.chart_scale
    snap = 1e-6 * surface.chart_scale
    merge = 2e-5 * surface.chart_scale
    segs = []
    for a, b, ij in raw:
        for p0, p1 in u.clip_segment(a, b, tol):
            # boundary contacts live at cone images; snap them there
            p0 = _snap_to(p0, u.cone_images, snap)
            p1 = _snap_to(p1, u.cone_images, snap)
            if math.dist(p0, p1) > merge:
                segs.append((p0, p1, ij))

    nodes = []

    def node_of(p):
        for k, q in enumerate(nodes):
            if math.dist(p, q) < merge:
                return k
        nodes.append(p)
        return len(nodes) - 1

    # an edge keeps the two sites of its ridge, which see all of it, and a
    # node the sites of an edge at it: fold_back goes through them
    found = {}
    node_sites = {}
    for p0, p1, ij in segs:
        a, b = node_of(p0), node_of(p1)
        if a != b:
            found.setdefault((min(a, b), max(a, b)), ((a, b), ij))
            node_sites.setdefault(a, ij)
            node_sites.setdefault(b, ij)
    edges = [e for e, _ in found.values()]
    polylines = [u.fold_segment(nodes[a], nodes[b], ij)
                 for (a, b), ij in found.values()]
    node_surface = []
    for n, p in enumerate(nodes):
        hit = next((m for m, c in enumerate(u.cone_images)
                    if math.dist(p, c) < snap), None)
        if hit is not None:
            node_surface.append(surface.vertex_point(u.cuts[hit].vid))
        else:
            node_surface.append(u.fold_back(p, node_sites[n])[0])
    return CutLocusTree(vid, u, nodes, node_surface, edges, polylines)


def _snap_to(p, targets, tol):
    best = min(targets, key=lambda c: math.dist(p, c))
    return tuple(best) if math.dist(p, best) < tol else p


# -- per-face arrangement --------------------------------------------------

def _merge_collinear(segments, tol_angle, tol_off, tol_len):
    """Union overlapping collinear segments (shared tree edges collapse)."""
    groups = []
    for a, b in segments:
        d = math.dist(a, b)
        if d < tol_len:
            continue
        ux, uy = (b[0] - a[0]) / d, (b[1] - a[1]) / d
        if (uy, ux) < (0.0, 0.0) or (abs(uy) < tol_angle and ux < 0):
            ux, uy = -ux, -uy
        off = a[0] * uy - a[1] * ux  # signed offset of the line
        t0 = a[0] * ux + a[1] * uy
        t1 = b[0] * ux + b[1] * uy
        lo, hi = min(t0, t1), max(t0, t1)
        placed = False
        for g in groups:
            if abs(g["ux"] - ux) < tol_angle and abs(g["uy"] - uy) < tol_angle \
                    and abs(g["off"] - off) < tol_off:
                g["ints"].append((lo, hi))
                placed = True
                break
        if not placed:
            groups.append({"ux": ux, "uy": uy, "off": off,
                           "ints": [(lo, hi)]})
    out = []
    for g in groups:
        ints = sorted(g["ints"])
        cur_lo, cur_hi = ints[0]
        merged = []
        for lo, hi in ints[1:]:
            if lo <= cur_hi + tol_off:
                cur_hi = max(cur_hi, hi)
            else:
                merged.append((cur_lo, cur_hi))
                cur_lo, cur_hi = lo, hi
        merged.append((cur_lo, cur_hi))
        ux, uy, off = g["ux"], g["uy"], g["off"]
        base = (off * uy, -off * ux)
        for lo, hi in merged:
            if hi - lo < tol_len:
                continue
            out.append(((base[0] + lo * ux, base[1] + lo * uy),
                        (base[0] + hi * ux, base[1] + hi * uy)))
    return out


def _face_cells(tri, segments, tol):
    """Cells of the triangle subdivided by interior chords.

    Classic planar-subdivision face extraction: vertices are merged within
    tol, edges split at every vertex on them, faces traced by taking at
    each head the clockwise-next outgoing edge after the reversed entry.
    """
    verts = [tuple(c) for c in tri]

    def vid_of(p):
        for k, q in enumerate(verts):
            if math.dist(p, q) < tol:
                return k
        verts.append(tuple(p))
        return len(verts) - 1

    base_edges = [(tuple(tri[i]), tuple(tri[(i + 1) % 3]))
                  for i in range(3)]
    all_edges = base_edges + list(segments)
    # pairwise intersections between chords
    extra = []
    for i in range(len(segments)):
        for j in range(i + 1, len(segments)):
            a, b = segments[i]
            c, d = segments[j]
            hit = seg_seg_intersection(a, b, c, d)
            if hit is None:
                continue
            t, u = hit
            if 1e-9 < t < 1 - 1e-9 and 1e-9 < u < 1 - 1e-9:
                extra.append((a[0] + t * (b[0] - a[0]),
                              a[1] + t * (b[1] - a[1])))
    for p in extra:
        vid_of(p)
    for a, b in all_edges:
        vid_of(a)
        vid_of(b)

    graph_edges = set()
    for a, b in all_edges:
        d = math.dist(a, b)
        if d < tol:
            continue
        ux, uy = (b[0] - a[0]) / d, (b[1] - a[1]) / d
        on = []
        for k, v in enumerate(verts):
            t = (v[0] - a[0]) * ux + (v[1] - a[1]) * uy
            if -tol < t < d + tol and \
                    abs((v[0] - a[0]) * uy - (v[1] - a[1]) * ux) < tol:
                on.append((t, k))
        on.sort()
        for (t0, k0), (t1, k1) in zip(on, on[1:]):
            if k0 != k1 and t1 - t0 > tol:
                graph_edges.add((min(k0, k1), max(k0, k1)))

    out_edges = {}
    for k0, k1 in graph_edges:
        out_edges.setdefault(k0, []).append(k1)
        out_edges.setdefault(k1, []).append(k0)
    for k, nbrs in out_edges.items():
        nbrs.sort(key=lambda m: math.atan2(verts[m][1] - verts[k][1],
                                           verts[m][0] - verts[k][0]))

    faces = []
    visited = set()
    for k0, k1 in graph_edges:
        for he in ((k0, k1), (k1, k0)):
            if he in visited:
                continue
            cycle = []
            cur = he
            guard = 0
            while cur not in visited:
                visited.add(cur)
                cycle.append(cur)
                u_, v_ = cur
                nbrs = out_edges[v_]
                back = nbrs.index(u_)
                nxt = nbrs[(back - 1) % len(nbrs)]
                cur = (v_, nxt)
                guard += 1
                if guard > 10 * len(graph_edges) + 10:
                    raise ArrangementDegeneracy("face walk did not close")
            poly = [verts[u_] for u_, _ in cycle]
            if polygon_signed_area(poly) > tol * tol:
                faces.append(poly)
    return faces


@dataclass
class Cell:
    """One arrangement cell of a region: its face, its index among the
    cells of that face, its outline in the face chart, and the chart ->
    region-plane transform with its inverse."""
    face: int
    index: int
    polygon: Polygon
    chart: Iso
    inverse: Iso = field(init=False)

    def __post_init__(self):
        self.inverse = self.chart.inverse()


@dataclass
class Region:
    rid: int
    cells: list            # Cell per member (face, cell), in sorted order
    polygon: Polygon       # CCW convex boundary in the region plane
    area: float
    convex_defect: float   # hull area minus cell area (should be ~0)
    isometries: list = None        # I_n per cone index
    cone_constants: list = None    # C_n(s) per cone index
    cone_order: list = None        # index n -> cone vid
    fit_residual: float = None

    def cell_of(self, sp, tol=1e-9):
        """The first cell on sp's face whose outline holds sp or passes
        within tol of it; None if there is none."""
        for cell in self.cells:
            if cell.face == sp.face and cell.polygon.contains(sp.uv, -tol):
                return cell
        return None

    def planar_cell(self, xy, tol=1e-9):
        """(cell, face coordinates) of the first cell whose outline holds
        the region-plane point xy or passes within tol of it; None if there
        is none."""
        for cell in self.cells:
            uv = cell.inverse.apply(xy)
            if cell.polygon.contains(uv, -tol):
                return cell, uv
        return None

    def chart(self, sp):
        """Region-plane coordinates of a surface point in this region."""
        cell = self.cell_of(sp)
        if cell is None:
            raise KeyError("point is not in this region")
        return cell.chart.apply(sp.uv)

    def chart_inverse(self, xy):
        hit = self.planar_cell(xy)
        if hit is None:
            raise KeyError("planar point is not in this region")
        cell, uv = hit
        return SurfacePoint(cell.face, uv[0], uv[1])

    def star_polygon(self, surface, xy):
        """Star polygon of phi(q) for the point q at chart position xy, in
        the region plane: source images I_n(xy), cone images C_n, in the
        index order of the fitted unfoldings."""
        imgs = [iso.apply(xy) for iso in self.isometries]
        return StarPolygon(surface, imgs, self.cone_constants)

    def interior_samples(self, count=5):
        """Spread points inside the region polygon, off the boundary.

        The margin shrinks progressively so that even slivers of tiny area
        yield the three non-collinear samples the isometry fit needs."""
        hull = np.array(self.polygon.vertices)
        centroid = hull.mean(axis=0)
        scale = math.sqrt(max(self.area, 1e-300))
        cands = [tuple(centroid)]
        for shrink in (0.55, 0.3, 0.75, 0.15, 0.9):
            for v in hull:
                cands.append(tuple(centroid + shrink * (v - centroid)))
        for frac in (0.05, 0.05 / 4, 0.05 / 20, 0.0):
            margin = frac * scale
            out = []
            for xy in cands:
                if margin > 0 and not self.polygon.contains(xy, margin):
                    continue
                try:
                    sp = self.chart_inverse(xy)
                except KeyError:
                    continue
                out.append((xy, sp))
                if len(out) >= count:
                    break
            if len(out) >= min(count, 3):
                return out
        return out


class RegionDecomposition:
    """Overlay of all cut loci plus the induced region structure."""

    def __init__(self, surface, trees, regions):
        self.surface = surface
        self.trees = trees
        self.regions = regions

    def locate(self, sp):
        """Region id containing the surface point (boundary points get an
        arbitrary incident region)."""
        for r in self.regions:
            if r.cell_of(sp, 1e-7) is not None:
                return r.rid
        raise KeyError("point not located in any region")


def build_regions(surface):
    """Cut the surface along all cut loci and develop each region.

    A region is a set of arrangement cells linked across face-edge
    intervals that no cut locus covers. Regions are numbered by their
    smallest (face, cell) member."""
    trees = [cut_locus(surface, cp.vid) for cp in surface.cone_points]

    scale = surface.chart_scale
    tol = 1e-7 * scale
    per_face = {f: [] for f in range(surface.n_faces)}
    for tree in trees:
        for pieces in tree.polylines:
            for face, p0, p1 in pieces:
                if math.dist(p0, p1) > tol:
                    per_face[face].append((p0, p1))

    # mirror across gluings so both sides see every on-edge segment, then
    # split interior chords from boundary blockers
    interior = {f: [] for f in per_face}
    blockers = {}
    for f, segs in per_face.items():
        merged = _merge_collinear(segs, 1e-7, tol, tol)
        for a, b in merged:
            edge = _edge_of_segment(surface, f, a, b, tol)
            if edge is None:
                interior[f].append((a, b))
            else:
                _add_blocker(surface, blockers, f, edge, a, b)
    # blockers seen from one side only: copy to the partner edge
    for (f, e), ints in list(blockers.items()):
        f2, e2, _ = surface.glue[(f, e)]
        mirrored = [(1.0 - hi, 1.0 - lo) for lo, hi in ints]
        cur = blockers.setdefault((f2, e2), [])
        cur.extend(mirrored)
    for key in blockers:
        blockers[key] = _merge_intervals(blockers[key], 1e-9)

    cells = {}
    for f in range(surface.n_faces):
        chords = _merge_collinear(interior[f], 1e-7, tol, tol)
        cells[f] = [Polygon(c) for c in
                    _face_cells(surface.corners[f], chords, tol)]

    # link cells across unblocked edge intervals: links[(f, c)] holds
    # (e, c2) when cell c of face f meets cell c2 of the face glued across
    # edge e on an interval of e that no tree covers
    links = {(f, c): set() for f in range(surface.n_faces)
             for c in range(len(cells[f]))}
    seen_pairs = set()
    for f in range(surface.n_faces):
        for e in range(3):
            f2, e2, t_into = surface.glue[(f, e)]
            if (f2, e2, f, e) in seen_pairs:
                continue
            seen_pairs.add((f, e, f2, e2))
            blocked = blockers.get((f, e), [])
            breaks = {0.0, 1.0}
            for lo, hi in blocked:
                breaks.add(max(0.0, lo))
                breaks.add(min(1.0, hi))
            a = surface.corners[f][e]
            b = surface.corners[f][(e + 1) % 3]
            for cellpoly in cells[f]:
                for v in cellpoly.vertices:
                    t = _edge_param(a, b, v, tol)
                    if t is not None:
                        breaks.add(t)
            for cellpoly in cells[f2]:
                a2 = surface.corners[f2][e2]
                b2 = surface.corners[f2][(e2 + 1) % 3]
                for v in cellpoly.vertices:
                    t = _edge_param(a2, b2, v, tol)
                    if t is not None:
                        breaks.add(1.0 - t)
            marks = sorted(breaks)
            for lo, hi in zip(marks, marks[1:]):
                if hi - lo < 10 * tol / max(math.dist(a, b), tol):
                    continue
                tm = 0.5 * (lo + hi)
                if any(blo - 1e-9 <= tm <= bhi + 1e-9
                       for blo, bhi in blocked):
                    continue
                pm = (a[0] + tm * (b[0] - a[0]), a[1] + tm * (b[1] - a[1]))
                c1 = _cell_at(cells[f], pm, tol)
                pm2 = t_into.inverse().apply(pm)
                c2 = _cell_at(cells[f2], pm2, tol)
                if c1 is None or c2 is None:
                    raise ArrangementDegeneracy(
                        f"no cell found along edge ({f},{e})")
                links[(f, c1)].add((e, c2))
                links[(f2, c2)].add((e2, c1))

    # each region starts at the smallest cell that no region holds yet
    regions = []
    charts = {}
    for seed in sorted(links):
        if seed not in charts:
            regions.append(_develop_region(surface, cells, links, seed,
                                           len(regions), charts, tol))
    return RegionDecomposition(surface, trees, regions)


def _edge_of_segment(surface, f, a, b, tol):
    """Edge index if segment [a, b] lies on a side of face f's triangle."""
    tri = surface.corners[f]
    for e in range(3):
        p, q = tri[e], tri[(e + 1) % 3]
        if dist_point_seg(a, p, q) < tol and dist_point_seg(b, p, q) < tol:
            return e
    return None


def _edge_param(a, b, v, tol):
    d = math.dist(a, b)
    ux, uy = (b[0] - a[0]) / d, (b[1] - a[1]) / d
    off = abs((v[0] - a[0]) * uy - (v[1] - a[1]) * ux)
    if off > tol:
        return None
    t = ((v[0] - a[0]) * ux + (v[1] - a[1]) * uy) / d
    if -tol / d < t < 1.0 + tol / d:
        return min(1.0, max(0.0, t))
    return None


def _add_blocker(surface, blockers, f, e, a, b):
    p = surface.corners[f][e]
    q = surface.corners[f][(e + 1) % 3]
    d = math.dist(p, q)
    ux, uy = (q[0] - p[0]) / d, (q[1] - p[1]) / d
    t0 = ((a[0] - p[0]) * ux + (a[1] - p[1]) * uy) / d
    t1 = ((b[0] - p[0]) * ux + (b[1] - p[1]) * uy) / d
    lo, hi = min(t0, t1), max(t0, t1)
    blockers.setdefault((f, e), []).append((max(0.0, lo), min(1.0, hi)))


def _merge_intervals(ints, tol):
    ints = sorted(ints)
    out = []
    for lo, hi in ints:
        if out and lo <= out[-1][1] + tol:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return out


def _cell_at(cells, p, tol):
    best, best_d = None, math.inf
    for c, poly in enumerate(cells):
        if poly.contains(p):
            return c
        d = poly.boundary_distance(p)
        if d < best_d:
            best, best_d = c, d
    return best if best_d < 10 * tol else None


def _develop_region(surface, cells, links, seed, rid, charts, tol):
    """Develop the region of cell `seed` by a depth-first walk over the
    cell links, crossing each cell's links in (edge, partner cell) order;
    records each reached cell's chart -> region-plane transform in
    `charts`."""
    charts[seed] = Iso.identity()
    members = [seed]
    stack = [seed]
    while stack:
        f, c = stack.pop()
        w = charts[(f, c)]
        for e, c2 in sorted(links[(f, c)]):
            f2, _, t_into = surface.glue[(f, e)]
            w2 = w.compose(t_into)
            if (f2, c2) in charts:
                probe = cells[f2][c2].vertices[0]
                if math.dist(charts[(f2, c2)].apply(probe),
                             w2.apply(probe)) > 100 * tol:
                    raise ArrangementDegeneracy(
                        f"region {rid} develops inconsistently")
            else:
                charts[(f2, c2)] = w2
                members.append((f2, c2))
                stack.append((f2, c2))

    cell_list = []
    pts = []
    area = 0.0
    for (f, c) in sorted(members):
        poly = cells[f][c]
        w = charts[(f, c)]
        cell_list.append(Cell(f, c, poly, w))
        area += abs(polygon_signed_area(poly.vertices))
        pts.extend(w.apply(v) for v in poly.vertices)
    hull = ConvexHull(np.array(pts))
    boundary = [pts[i] for i in hull.vertices]
    defect = hull.volume - area  # 2d hull "volume" is the area
    return Region(rid, cell_list, Polygon(boundary), area, defect)


# -- per-region isometries --------------------------------------------------

def region_isometries(surface, region):
    """Fit the 2N orientation-reversing isometries I_n and the constants
    C_n(s) from star unfoldings at interior sample points.

    The unfolding at each sample q is anchored to the region chart through
    the developing transform of the shortest path phi(q) -> q, so all
    samples express source images in the same frame.
    """
    pts = region.interior_samples(count=4)
    if len(pts) < 3:
        raise FitDegenerate(
            f"region {region.rid}: only {len(pts)} interior samples")
    xs = [xy for xy, _ in pts]
    if _collinear(xs):
        raise FitDegenerate(f"region {region.rid}: samples are collinear")

    per_index_src = None
    per_index_dst = None
    cone_dst = None
    order = None
    for xy, sp in pts:
        src = surface.antipode(sp)
        u = unfold(surface, src)
        this_order = [c.vid for c in u.cuts]
        if order is None:
            order = this_order
            k = len(order)
            per_index_src = [[] for _ in range(k)]
            per_index_dst = [[] for _ in range(k)]
            cone_dst = [[] for _ in range(k)]
        elif this_order != order:
            raise ArrangementDegeneracy(
                f"region {region.rid}: cone indexing varies across samples "
                f"({order} vs {this_order})")
        img, t_chart = u.dev_point(sp)
        anchor = region.cell_of(sp).chart.compose(t_chart.inverse())
        for n in range(len(order)):
            per_index_src[n].append(xy)
            per_index_dst[n].append(anchor.apply(u.source_images[n]))
            cone_dst[n].append(anchor.apply(u.cone_images[n]))

    isos = []
    consts = []
    worst = 0.0
    for n in range(len(order)):
        iso, rms = fit_reversing_isometry(per_index_src[n],
                                          per_index_dst[n])
        worst = max(worst, rms)
        isos.append(iso)
        arr = np.array(cone_dst[n])
        spread = float(np.max(np.ptp(arr, axis=0)))
        worst = max(worst, spread)
        consts.append(tuple(arr.mean(axis=0).tolist()))
    region.isometries = isos
    region.cone_constants = consts
    region.cone_order = order
    region.fit_residual = worst
    return region


def _collinear(pts, rel=1e-6):
    arr = np.array(pts)
    if len(arr) < 3:
        return True
    arr = arr - arr.mean(axis=0)
    s = np.linalg.svd(arr, compute_uv=False)
    return s[-1] < rel * (s[0] + 1e-300)

