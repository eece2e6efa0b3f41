import gc
import math
import weakref

import numpy as np

from farmap import oracle, presets
from farmap.surface import SurfacePoint


def test_graph_is_freed_with_its_surface():
    s = presets.regular_octahedron()
    d = oracle.oracle_distance(s, s.vertex_point(0), s.vertex_point(1), 2)
    assert d > 0.0
    surface_ref = weakref.ref(s)
    graph_ref = weakref.ref(oracle._graph(s, 2))
    del s
    gc.collect()
    assert surface_ref() is None
    assert graph_ref() is None


def test_chords_are_counted_once():
    """Nodes on one triangulation edge belong to both faces at that edge,
    and so does a source on an edge or at a cone point; every chord must
    still weigh its length once. From a cone point V, each node of an
    incident face is at most its chord from V; from a source just off V,
    at most that offset plus the chord."""
    s = presets.regular_octahedron()
    vid = 0
    g = oracle._graph(s, 2)
    corner_f, corner_c = s.vertex_cycles[vid][0]
    v = s.corners[corner_f][corner_c]
    centroid = np.mean(s.corners[corner_f], axis=0)
    off = 1e-6 * s.chart_scale
    w = (centroid - v) / np.linalg.norm(centroid - v)
    near = SurfacePoint(corner_f, v[0] + off * w[0], v[1] + off * w[1])
    for src, slack in ((s.vertex_point(vid), 0.0), (near, off)):
        d = g.distances_from(s, src)
        for f, c in s.vertex_cycles[vid]:
            corner = s.corners[f][c]
            for nid, uv in zip(g.face_nodes[f], g.face_node_uv[f]):
                chord = math.dist(corner, uv)
                assert d[nid] <= (slack + chord) * (1 + 1e-12)
