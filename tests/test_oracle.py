import gc
import weakref

from farmap import oracle, presets


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
