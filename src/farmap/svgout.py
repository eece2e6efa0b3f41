"""Deterministic SVG emitters: star polygons, cut-locus sketches, and the
classified-curve overlay on an unfolded net.

Output is plain SVG text with fixed float formatting and no timestamps,
so identical inputs give byte-identical files.
"""

import math

from .geom import Iso

CURVE_COLORS = {
    "multi-valued": "#d62728",   # red
    "limit": "#1f77b4",          # blue
    "neither": "#2ca02c",        # green
}
TREE_PALETTE = ["#e41a1c", "#377eb8", "#4daf4a", "#984ea3",
                "#ff7f00", "#a65628", "#f781bf", "#999999"]


def _fmt(x):
    return f"{x:.6f}"


class SvgCanvas:
    def __init__(self, stroke_scale=1.0):
        self.items = []
        self.min_x = self.min_y = math.inf
        self.max_x = self.max_y = -math.inf
        self.stroke_scale = stroke_scale

    def _grow(self, pts):
        for x, y in pts:
            self.min_x = min(self.min_x, x)
            self.max_x = max(self.max_x, x)
            self.min_y = min(self.min_y, y)
            self.max_y = max(self.max_y, y)

    def polyline(self, pts, color="#000000", width=1.0, closed=False):
        if len(pts) < 2:
            return
        self._grow(pts)
        tag = "polygon" if closed else "polyline"
        coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in pts)
        self.items.append(
            f'<{tag} points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="{_fmt(width * self.stroke_scale)}" '
            f'stroke-linecap="round" stroke-linejoin="round"/>')

    def dot(self, p, r=2.0, color="#000000"):
        self._grow([p])
        self.items.append(
            f'<circle cx="{_fmt(p[0])}" cy="{_fmt(p[1])}" '
            f'r="{_fmt(r * self.stroke_scale)}" fill="{color}"/>')

    def text(self, p, s, size=10.0, color="#333333"):
        self._grow([p])
        self.items.append(
            f'<text x="{_fmt(p[0])}" y="{_fmt(p[1])}" '
            f'font-size="{_fmt(size * self.stroke_scale)}" '
            f'font-family="monospace" fill="{color}">{s}</text>')

    def render(self):
        pad = 0.05 * max(self.max_x - self.min_x,
                         self.max_y - self.min_y, 1e-9)
        x0 = self.min_x - pad
        y0 = self.min_y - pad
        w = self.max_x - self.min_x + 2 * pad
        h = self.max_y - self.min_y + 2 * pad
        head = (f'<svg xmlns="http://www.w3.org/2000/svg" '
                f'viewBox="{_fmt(x0)} {_fmt(y0)} {_fmt(w)} {_fmt(h)}" '
                f'width="800" height="{_fmt(800 * h / w)}">\n'
                f'<g transform="translate(0,{_fmt(2 * y0 + h)}) '
                f'scale(1,-1)">\n')
        return head + "\n".join(self.items) + "\n</g>\n</svg>\n"


def star_polygon_svg(unfolding):
    """Star polygon with labeled source and cone-point images."""
    c = SvgCanvas(stroke_scale=0.004 * unfolding.surface.diameter)
    c.polyline(list(unfolding.vertices), color="#000000", width=1.2,
               closed=True)
    for n, p in enumerate(unfolding.source_images):
        c.dot(p, r=2.0, color="#d62728")
        c.text((p[0], p[1]), f"phi{n + 1}", size=8, color="#d62728")
    for n, p in enumerate(unfolding.cone_images):
        c.dot(p, r=2.0, color="#1f77b4")
        c.text((p[0], p[1]), f"C{n + 1}", size=8, color="#1f77b4")
    return c.render()


def develop_net(surface):
    """BFS development of every face into one plane: face -> Iso."""
    placed = {0: Iso.identity()}
    queue = [0]
    while queue:
        f = queue.pop(0)
        for e in range(3):
            f2, _, t_into = surface.glue[(f, e)]
            if f2 not in placed:
                placed[f2] = placed[f].compose(t_into)
                queue.append(f2)
    return placed


def net_svg(surface, dec=None, curves=None):
    """Overlay on the unfolded net: cut loci colored per cone point and
    the classified curves in red/blue/green."""
    net = develop_net(surface)
    c = SvgCanvas(stroke_scale=0.004 * surface.diameter)
    for f in range(surface.n_faces):
        tri = [net[f].apply(p) for p in surface.corners[f]]
        c.polyline(tri, color="#cccccc", width=0.6, closed=True)
    if dec is not None:
        for tree in dec.trees:
            color = TREE_PALETTE[tree.vid % len(TREE_PALETTE)]
            for pieces in tree.polylines:
                for face, a, b in pieces:
                    c.polyline([net[face].apply(a), net[face].apply(b)],
                               color=color, width=0.8)
    if curves is not None and dec is not None:
        for curve in curves:
            region = dec.regions[curve.region_id]
            color = CURVE_COLORS.get(curve.label, "#000000")
            for seg in _curve_to_net(surface, region, curve.polyline, net):
                c.polyline(seg, color=color, width=1.4)
    return c.render()


def _curve_to_net(surface, region, polyline, net):
    """Map a region-plane polyline onto the net, splitting at cell jumps."""
    segs = []
    cur = []
    cur_cell = None
    for xy in polyline:
        hit = region.planar_cell(xy, 1e-7)
        if hit is None:
            if len(cur) >= 2:
                segs.append(cur)
            cur = []
            cur_cell = None
            continue
        cell, uv = hit
        pt = net[cell.face].apply(uv)
        if cur_cell is not None and cell is not cur_cell:
            if len(cur) >= 2:
                segs.append(cur)
            cur = []
        cur.append(pt)
        cur_cell = cell
    if len(cur) >= 2:
        segs.append(cur)
    return segs
