import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from farmap.cutlocus import cut_locus
from farmap.errors import SearchBudgetExceeded
from farmap.farthest import evaluate_f
from farmap.geodesics import (DirectionAtlas, distance, lunes, minimizers,
                              paths_to_cone_points)
from farmap.geom import dist_point_seg
from farmap.oracle import oracle_distance_field
from farmap.surface import SurfacePoint, build_from_vertices

SQRT2 = math.sqrt(2.0)
SQRT6 = math.sqrt(6.0)


def test_distance_identity(octa, fresh_rng):
    r = fresh_rng(0)
    for _ in range(5):
        p = octa.random_point(r)
        assert distance(octa, p, p) == 0.0


def test_distance_symmetry(octa, perturbed, fresh_rng):
    r = fresh_rng(1)
    for s in (octa, perturbed):
        for _ in range(15):
            p, q = s.random_point(r), s.random_point(r)
            assert distance(s, p, q) == pytest.approx(
                distance(s, q, p), abs=1e-12)


def test_octahedron_vertex_distances(octa):
    v0 = octa.vertex_point(0)
    anti = octa.cone_points[0].antipode
    for vid in range(1, 6):
        d = distance(octa, v0, octa.vertex_point(vid))
        want = SQRT6 if vid == anti else SQRT2
        assert d == pytest.approx(want, abs=1e-12)


def test_triangle_inequality(octa, fresh_rng):
    r = fresh_rng(2)
    for _ in range(15):
        p, q, w = (octa.random_point(r) for _ in range(3))
        dpq = distance(octa, p, q)
        dqw = distance(octa, q, w)
        dpw = distance(octa, p, w)
        assert dpw <= dpq + dqw + 1e-10


def test_minimizer_count_same_face(octa, fresh_rng):
    r = fresh_rng(3)
    f = 0
    c = np.mean(octa.corners[f], axis=0)
    p = SurfacePoint(f, c[0], c[1])
    q = SurfacePoint(f, c[0] + 0.05, c[1] + 0.02)
    paths = minimizers(octa, p, q)
    assert len(paths) == 1


def test_minimizers_to_antipode_even(octa, perturbed, fresh_rng):
    r = fresh_rng(4)
    for s in (octa, perturbed):
        for _ in range(6):
            p = s.random_point(r)
            paths = minimizers(s, p, s.antipode(p))
            assert len(paths) >= 2
            assert len(paths) % 2 == 0


def test_octahedron_antipodal_vertices_four_minimizers(octa):
    v0 = octa.vertex_point(0)
    v1 = octa.vertex_point(octa.cone_points[0].antipode)
    paths = minimizers(octa, v0, v1)
    assert len(paths) == 4
    for g in paths:
        assert g.length == pytest.approx(SQRT6, abs=1e-12)


def test_minimizer_interiors_avoid_cone_points(octa, fresh_rng):
    r = fresh_rng(5)
    for _ in range(8):
        p, q = octa.random_point(r), octa.random_point(r)
        for g in minimizers(octa, p, q):
            for frac in (0.2, 0.4, 0.6, 0.8):
                pt = g.point_at(frac * g.length)
                tri = octa.corners[pt.face]
                gap = min(math.dist(pt.uv, c) for c in tri)
                assert gap > octa.eps_geom


def test_minimizers_skip_a_cone_point_next_to_the_source(cube):
    """From a source 1.4e-8 off a cube corner V the search also finds the
    path p -> V -> C, which bends at V; minimizers drops it, and agrees
    with the cone-point maps."""
    p = SurfacePoint(1, 1.3416407864998741e-08, 4.4721359549995795e-09)
    paths = minimizers(cube, p, cube.vertex_point(7))
    assert len(paths) == len(paths_to_cone_points(cube, p)[7]) == 7
    tol = 1e-12 * cube.chart_scale
    for g in paths:
        for face, a, b in g.polyline:
            for corner, vid in zip(cube.corners[face],
                                   cube.face_vids[face]):
                assert vid == 7 or dist_point_seg(corner, a, b) >= tol


def test_distinct_minimizers_meet_only_at_endpoints(octa):
    v0 = octa.vertex_point(0)
    v1 = octa.vertex_point(octa.cone_points[0].antipode)
    paths = minimizers(octa, v0, v1)
    fracs = np.linspace(0.1, 0.9, 9)
    for i in range(len(paths)):
        for j in range(i + 1, len(paths)):
            for fa in fracs:
                pa = paths[i].point_at(fa * paths[i].length)
                for fb in fracs:
                    pb = paths[j].point_at(fb * paths[j].length)
                    gap = octa.chart_gap(pa, pb)
                    if gap is not None:
                        assert gap > 1e-6


def _radius(surface, p):
    """d(p): distance from p to its farthest points."""
    return evaluate_f(surface, p).radius


def test_radius_is_lipschitz(octa, fresh_rng):
    r = fresh_rng(6)
    for _ in range(15):
        p, q = octa.random_point(r), octa.random_point(r)
        dr = abs(_radius(octa, p) - _radius(octa, q))
        assert dr <= distance(octa, p, q) + octa.eps_geom


def test_search_budget_guard(octa):
    v0 = octa.vertex_point(0)
    v1 = octa.vertex_point(octa.cone_points[0].antipode)
    with pytest.raises(SearchBudgetExceeded):
        distance(octa, v0, v1, budget=2)


def test_oracle_upper_bound_and_agreement(octa, fresh_rng):
    r = fresh_rng(7)
    p = octa.random_point(r)
    fld = oracle_distance_field(octa, p, 5)
    for _ in range(20):
        q = octa.random_point(r)
        d = distance(octa, p, q)
        # nearest lattice node to q gives an upper bound within mesh noise
        best = min(
            (fld.values[i] for i, (f, uv) in enumerate(fld.node_face_uv)
             if f == q.face and math.dist(uv, q.uv) < 2.5 * fld.mesh_edge),
            default=None)
        assert best is not None
        assert best > d - 2.5 * fld.mesh_edge


def test_oracle_vertex_values_exact_bound(octa):
    p = octa.vertex_point(0)
    fld = oracle_distance_field(octa, p, 6)
    for vid in range(1, 6):
        q = octa.vertex_point(vid)
        d = distance(octa, p, q)
        vals = [fld.values[i]
                for i, (f, uv) in enumerate(fld.node_face_uv)
                if octa.chart_gap(SurfacePoint(f, uv[0], uv[1]), q)
                not in (None,) and
                octa.chart_gap(SurfacePoint(f, uv[0], uv[1]), q) < 1e-9]
        best = min(vals)
        assert best >= d - 1e-12
        assert best - d < 2 * fld.mesh_edge


def test_oracle_pointwise_monotone(octa, fresh_rng):
    r = fresh_rng(8)
    p = octa.random_point(r)
    prev = None
    for lev in range(0, 4):
        fld = oracle_distance_field(octa, p, lev)
        if prev is not None:
            coarse_idx = {}
            k = 0
            n = 2 ** (lev - 1)
            for f in range(octa.n_faces):
                for i in range(n + 1):
                    for j in range(n + 1 - i):
                        coarse_idx[(f, i, j)] = k
                        k += 1
            fine_idx = {}
            k = 0
            for f in range(octa.n_faces):
                for i in range(2 * n + 1):
                    for j in range(2 * n + 1 - i):
                        fine_idx[(f, i, j)] = k
                        k += 1
            for (f, i, j), ka in coarse_idx.items():
                kb = fine_idx[(f, 2 * i, 2 * j)]
                assert fld.values[kb] <= prev.values[ka] + 1e-12
        prev = fld


def test_lune_equation_random_pairs(octa, perturbed, fresh_rng):
    r = fresh_rng(10)
    for s in (octa, perturbed):
        deficit = {cp.vid: cp.deficit for cp in s.cone_points}
        for _ in range(6):
            p = s.random_point(r)
            q = s.antipode(p)
            ls = lunes(s, p, q)
            assert sum(l.alpha_p for l in ls) == pytest.approx(
                2 * math.pi, abs=1e-9)
            assert sum(l.alpha_q for l in ls) == pytest.approx(
                2 * math.pi, abs=1e-9)
            for l in ls:
                star = sum(deficit[v] for v in l.cone_vids)
                assert l.alpha_p + l.alpha_q == pytest.approx(
                    star, abs=1e-7)


def test_lune_single_minimizer_case(octa, fresh_rng):
    r = fresh_rng(11)
    f = 0
    c = np.mean(octa.corners[f], axis=0)
    p = SurfacePoint(f, c[0], c[1])
    q = SurfacePoint(f, c[0] + 0.1, c[1])
    ls = lunes(octa, p, q)
    assert len(ls) == 1
    assert ls[0].alpha_p == pytest.approx(2 * math.pi)
    assert ls[0].alpha_q == pytest.approx(2 * math.pi)
    # all six cone points in the single lune, eq (*) reads 4 pi = 4 pi
    assert len(ls[0].cone_vids) == 6


def test_paths_to_cone_points_complete(perturbed, fresh_rng):
    r = fresh_rng(12)
    p = perturbed.random_point(r)
    cuts = paths_to_cone_points(perturbed, p)
    assert sorted(cuts) == sorted(perturbed.vertex_cycles)
    for vid, paths in cuts.items():
        assert paths
        assert paths[0].length == pytest.approx(
            distance(perturbed, p, perturbed.vertex_point(vid)), abs=1e-12)


def test_cone_point_atlas_is_built_once(perturbed):
    for vid in sorted(perturbed.vertex_cycles):
        q = perturbed.vertex_point(vid)
        kept = DirectionAtlas.at(perturbed, q)
        assert DirectionAtlas.at(perturbed, q) is kept
        fresh = DirectionAtlas(perturbed, q)
        assert (kept.sectors, kept.total) == (fresh.sectors, fresh.total)
    p = perturbed.random_point(np.random.default_rng(0))
    assert DirectionAtlas.at(perturbed, p) is not \
        DirectionAtlas.at(perturbed, p)


def _random_symmetric_polytope(seed, half):
    """K = 2*half cone points: normalized Gaussian directions, mirrored."""
    v = np.random.default_rng(seed).normal(size=(half, 3))
    v /= np.linalg.norm(v, axis=1)[:, None]
    return build_from_vertices(np.vstack([v, -v]))


def test_search_crosses_a_window_next_to_the_source():
    """A source within ~1e-8 (barycentric) of an edge crosses that edge at
    a tiny fraction of a long path; the search must keep the crossing, so
    that the distance is symmetric."""
    s = _random_symmetric_polytope(0, 10)
    for p, vid in ((SurfacePoint(34, 0.1473255398992048,
                                 0.030321808355870176), 6),
                   (SurfacePoint(0, 0.6919852621224638,
                                 4.889880456891146e-10), 10)):
        c = s.vertex_point(vid)
        assert distance(s, p, c) == pytest.approx(distance(s, c, p),
                                                  abs=1e-12)


def _geodesic_minimizers(s, p, vid):
    """minimizers(p, C) without the paths that run through another cone
    point V. From a source next to V the search can return p -> V -> C,
    which is no geodesic."""
    kind, own = s.classify(p)
    ends = {vid, own} if kind == "vertex" else {vid}
    tol = 1e-12 * s.chart_scale

    def through_cone_point(g):
        return any(dist_point_seg(corner, a, b) < tol
                   for face, a, b in g.polyline
                   for corner, v in zip(s.corners[face], s.face_vids[face])
                   if v not in ends)

    return [g for g in minimizers(s, p, s.vertex_point(vid))
            if not through_cone_point(g)]


def _assert_query_matches_search(s, p):
    """paths_to_cone_points(p) against minimizers(p, C) for every cone
    point C: the same tie count, the same shortest length and the same cut
    direction (the smallest initial direction among the ties). C's map
    must reach past the length plus the tie tolerance."""
    got = paths_to_cone_points(s, p)
    kind, own = s.classify(p)
    want = [vid for vid in sorted(s.vertex_cycles)
            if not (kind == "vertex" and vid == own)]
    assert list(got) == want
    theta = DirectionAtlas.at(s, p).total
    for vid, paths in got.items():
        ref = _geodesic_minimizers(s, p, vid)
        assert len(paths) == len(ref)
        assert paths == sorted(paths)
        length = min(g.length for g in ref)
        assert abs(paths[0].length - length) <= 1e-12 * s.diameter
        # every state that can carry a tie was expanded
        assert s.cone_maps[vid].depth >= paths[0].length + s.eps_tie
        gap = (min(g.init_t for g in paths)
               - min(g.init_t for g in ref)) % theta
        # a direction rounds like its chart coordinates over the length
        assert min(gap, theta - gap) <= 1e-9 + 1e-12 * s.diameter / length


_cached_polytope = lru_cache(maxsize=None)(_random_symmetric_polytope)


def _near(s, rng, corner, log_offset):
    """A point of a random face, 10**log_offset * chart_scale inside it
    from a random point of one of its edges, or from one of its
    corners."""
    f = int(rng.integers(s.n_faces))
    e = int(rng.integers(3))
    a, b, c = (np.array(s.corners[f][(e + i) % 3]) for i in range(3))
    base = a if corner else a + rng.uniform(0.05, 0.95) * (b - a)
    inward = (a + b + c) / 3.0 - base if corner else c - base
    xy = base + 10.0 ** log_offset * s.chart_scale * inward / \
        np.linalg.norm(inward)
    return SurfacePoint(f, float(xy[0]), float(xy[1]))


@settings(max_examples=200)
@given(seed=st.integers(0, 3), half=st.integers(3, 10),
       point_seed=st.integers(0, 2 ** 32 - 1),
       where=st.sampled_from(("random", "edge", "corner", "cone",
                              "cut locus")),
       log_offset=st.integers(-12, -6))
def test_cone_paths_match_minimizers(seed, half, point_seed, where,
                                     log_offset):
    s = _cached_polytope(seed, half)
    rng = np.random.default_rng(point_seed)
    vids = sorted(s.vertex_cycles)
    if where == "random":
        p = s.random_point(rng)
    elif where in ("edge", "corner"):
        p = _near(s, rng, where == "corner", log_offset)
    elif where == "cone":
        p = s.vertex_point(vids[int(rng.integers(len(vids)))])
    else:
        tree = cut_locus(s, vids[int(rng.integers(len(vids)))])
        pts = tree.edge_points(per_edge=1)
        p = pts[int(rng.integers(len(pts)))]
    _assert_query_matches_search(s, p)


def test_cone_paths_reach_past_the_diameter():
    """On this K = 20 polytope, cone points 2 and 12 have farthest points
    about 1.0017 x the cone-to-cone diameter away: their maps must reach
    past the diameter to answer those points."""
    s = _random_symmetric_polytope(2, 10)
    far = []
    for vid in sorted(s.vertex_cycles):
        res = evaluate_f(s, s.antipode(s.vertex_point(vid)))
        far += [fp.point for fp in res.points
                if fp.distance > 1.001 * s.diameter]
    assert far
    for p in far:
        _assert_query_matches_search(s, p)
