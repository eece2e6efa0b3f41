"""Brute-force distance oracle: Dijkstra on a subdivided surface graph.

Graph nodes sit at dyadic points of the original triangulation edges
(level k puts 2**k + 1 nodes per edge); within every face all boundary
nodes are joined by straight chords, so a graph path is a genuine surface
path and the reported distance is always an upper bound on the true one.
Refining the level only adds nodes, so distances never increase.

The distance field is then extended to the full face lattice by relaxing
over the face's boundary nodes, which localizes the farthest point to one
subdivision cell.
"""

import math
import weakref

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import dijkstra as _sp_dijkstra


class OracleField:
    """Distances from one source on the subdivided mesh."""

    def __init__(self, surface, level, node_face_uv, values, mesh_edge):
        self.surface = surface
        self.level = level
        self.node_face_uv = node_face_uv  # node id -> (face, (u, v))
        self.values = values              # node id -> distance upper bound
        self.mesh_edge = mesh_edge        # max subdivided edge length

    def max_value(self):
        return float(np.max(self.values))

    def argmax_point(self):
        from .surface import SurfacePoint
        i = int(np.argmax(self.values))
        f, (u, v) = self.node_face_uv[i]
        return SurfacePoint(f, u, v)


class _SubdividedGraph:
    """Boundary-node graph and field lattice, shared by all queries at one
    level."""

    def __init__(self, surface, level):
        self.level = level
        n_seg = 2 ** level
        node_id = {}
        coords = {}          # (face, node) -> uv  for faces that see it
        self.mesh_edge = 0.0

        def canon_edge(f, e):
            f2, e2, _ = surface.glue[(f, e)]
            return min((f, e), (f2, e2))

        for f in range(surface.n_faces):
            cs = surface.corners[f]
            for e in range(3):
                a = np.array(cs[e])
                b = np.array(cs[(e + 1) % 3])
                self.mesh_edge = max(self.mesh_edge,
                                     float(np.linalg.norm(b - a)) / n_seg)
                ce = canon_edge(f, e)
                flip = ce != (f, e)
                for k in range(n_seg + 1):
                    t = k / n_seg
                    key = (("v", surface.face_vids[f][e]) if k == 0 else
                           ("v", surface.face_vids[f][(e + 1) % 3])
                           if k == n_seg else
                           ("e", ce, n_seg - k if flip else k))
                    if key not in node_id:
                        node_id[key] = len(node_id)
                    nid = node_id[key]
                    coords.setdefault(f, {})[nid] = tuple(a + t * (b - a))
        self.node_id = node_id
        self.face_nodes = {f: sorted(coords[f]) for f in coords}
        self.face_node_uv = {
            f: np.array([coords[f][nid] for nid in self.face_nodes[f]])
            for f in coords}
        self.n_nodes = len(node_id)

        # the lattice of `oracle_distance_field`, which no source changes:
        # per face, the distances from its points to the face's boundary
        # nodes, and the field's (face, uv) rows
        self.lattice_dist = []
        self.node_face_uv = []
        for f in range(surface.n_faces):
            cs = np.array(surface.corners[f])
            lat = []
            for i in range(n_seg + 1):
                for j in range(n_seg + 1 - i):
                    b0 = i / n_seg
                    b1 = j / n_seg
                    lat.append(b0 * cs[0] + b1 * cs[1]
                               + (1 - b0 - b1) * cs[2])
            lat = np.array(lat)
            buv = self.face_node_uv[f]
            self.lattice_dist.append(
                np.sqrt(((lat[:, None, :] - buv[None, :, :]) ** 2).sum(-1)))
            self.node_face_uv += [(f, (u, v)) for u, v in lat.tolist()]

        rows, cols, vals = [], [], []
        for f in range(surface.n_faces):
            ids = np.array(self.face_nodes[f])
            uv = self.face_node_uv[f]
            i, j = np.triu_indices(len(ids), 1)
            rows.append(ids[i])
            cols.append(ids[j])
            vals.append(np.sqrt(((uv[i] - uv[j]) ** 2).sum(-1)))
        rows, cols, vals = (np.concatenate(x) for x in (rows, cols, vals))
        # a chord between two nodes on one triangulation edge is seen from
        # both faces at that edge; it enters once, at its shorter length
        order = np.lexsort((vals, cols, rows))
        rows, cols, vals = rows[order], cols[order], vals[order]
        first = np.r_[True, (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])]
        self.chords = (rows[first], cols[first], vals[first])

    def distances_from(self, surface, p):
        """Dijkstra distances from surface point p to all boundary nodes."""
        src = self.n_nodes
        # one chord per node: a node in two of p's faces enters once
        chords = {}
        for f, uv_p in _chart_copies(surface, p).items():
            d = np.sqrt(((self.face_node_uv[f] - np.array(uv_p)) ** 2).sum(-1))
            for nid, dn in zip(self.face_nodes[f], d.tolist()):
                chords[nid] = min(chords.get(nid, math.inf), dn)
        rows, cols, vals = self.chords
        rows = np.concatenate([rows, np.full(len(chords), src)])
        cols = np.concatenate([cols, list(chords)])
        vals = np.concatenate([vals, list(chords.values())])
        n = self.n_nodes + 1
        mat = coo_matrix((vals, (rows, cols)), shape=(n, n))
        dist = _sp_dijkstra(mat, directed=False, indices=src)
        return dist[:self.n_nodes]


def _chart_copies(surface, p):
    """face -> uv of p in every face chart that holds it: its own face,
    the partner face across an edge, or every face at a cone point."""
    copies = {p.face: p.uv}
    kind, info = surface.classify(p)
    if kind == "edge":
        f2, uv2 = surface.transport(*info, p.uv)
        copies.setdefault(f2, uv2)
    elif kind == "vertex":
        for f, c in surface.vertex_cycles[info]:
            copies.setdefault(f, surface.corners[f][c])
    return copies


# surface -> {level: graph}. Graphs hold no reference to their surface,
# so an entry goes away with its surface.
_GRAPHS = weakref.WeakKeyDictionary()


def _graph(surface, level):
    graphs = _GRAPHS.setdefault(surface, {})
    if level not in graphs:
        graphs[level] = _SubdividedGraph(surface, level)
    return graphs[level]


def oracle_distance(surface, p, q, level):
    """Graph upper bound on dist(p, q): boundary-node Dijkstra from p plus
    one straight chord to q inside q's face(s); points sharing a face also
    get the direct chord."""
    g = _graph(surface, level)
    bdist = g.distances_from(surface, p)
    copies = _chart_copies(surface, q)
    best = math.inf
    gap = surface.chart_gap(p, q)
    if p.face in copies and gap is not None:
        best = gap
    for f, uv_q in copies.items():
        d = np.sqrt(((g.face_node_uv[f] - np.array(uv_q)) ** 2).sum(-1))
        best = min(best, float((d + bdist[g.face_nodes[f]]).min()))
    return best


def oracle_distance_field(surface, p, level):
    """Upper-bound distance field from p on the level-`level` lattice.

    Lattice nodes are the barycentric points (i, j)/2**level of every face;
    each value is min over the face's boundary nodes b of d(b) + |b - x|.
    """
    if level < 0:
        raise ValueError("subdivision level must be >= 0")
    g = _graph(surface, level)
    bdist = g.distances_from(surface, p)
    values = np.concatenate([(d + bdist[g.face_nodes[f]]).min(axis=1)
                             for f, d in enumerate(g.lattice_dist)])
    return OracleField(surface, level, g.node_face_uv, values, g.mesh_edge)
