import math

import numpy as np
import pytest

from farmap.errors import OutsidePolygon
from farmap.geodesics import distance
from farmap.geom import (dist_point_polygon_boundary, dist_point_seg,
                         point_in_polygon, polygon_is_simple,
                         seg_seg_proper_cross)
from farmap.surface import SurfacePoint
from farmap.star_unfold import unfold


def test_octahedron_generic_source_12gon(octa, fresh_rng):
    p = octa.random_point(fresh_rng(0))
    u = unfold(octa, p)
    assert len(u.polygon) == 12
    assert polygon_is_simple(u.polygon, 1e-9 * octa.chart_scale)
    assert u.closure_error < 1e-10
    assert u.signed_area == pytest.approx(octa.area, abs=1e-9)


def test_cube_face_center_16gon(cube):
    f = 0
    c = np.mean(cube.corners[f], axis=0)
    u = unfold(cube, SurfacePoint(f, c[0], c[1]))
    assert len(u.polygon) == 16
    assert polygon_is_simple(u.polygon, 1e-9 * cube.chart_scale)


def test_cone_point_source_polygon(octa, perturbed):
    for s in (octa, perturbed):
        n = s.n_cone_points
        for vid in range(n):
            u = unfold(s, s.vertex_point(vid))
            assert len(u.polygon) == 2 * (n - 1)
            assert polygon_is_simple(u.polygon, 1e-9 * s.chart_scale)
            assert u.closure_error < 1e-10


def test_edge_length_invariants(perturbed, fresh_rng):
    r = fresh_rng(1)
    for _ in range(6):
        u = unfold(perturbed, perturbed.random_point(r))
        k = u.n_images
        for n in range(k):
            assert math.dist(u.source_images[n], u.cone_images[n]) == \
                pytest.approx(u.cuts[n].length, abs=1e-10)
            assert math.dist(u.source_images[n],
                             u.cone_images[(n + 1) % k]) == \
                pytest.approx(u.cuts[(n + 1) % k].length, abs=1e-10)


def test_source_image_angles_sum_to_cone_total(octa, fresh_rng):
    """The wedge angles at the source images add up to the total angle
    around the source."""
    p = octa.random_point(fresh_rng(2))
    u = unfold(octa, p)
    k = u.n_images
    total = 0.0
    for n in range(k):
        a = np.array(u.cone_images[n]) - np.array(u.source_images[n])
        b = np.array(u.cone_images[(n + 1) % k]) - \
            np.array(u.source_images[n])
        cosang = (a @ b) / (np.linalg.norm(a) * np.linalg.norm(b))
        total += math.acos(min(1.0, max(-1.0, cosang)))
    assert total == pytest.approx(2 * math.pi, abs=1e-9)


def test_fold_back_round_trip(octa, perturbed, fresh_rng):
    r = fresh_rng(3)
    for s in (octa, perturbed):
        u = unfold(s, s.random_point(r))
        for _ in range(6):
            q = s.random_point(r)
            dev, t_chart = u.dev_point(q)
            assert u.contains(dev)
            back = u.fold_back(dev)
            assert s.chart_gap(q, back) < 1e-10
            assert math.dist(t_chart.apply(q.uv), dev) < 1e-10


def _visible_images(u, a):
    """Indices i with [a, phi_i] a star path, with their distances."""
    return [(i, math.dist(a, phi)) for i, phi in enumerate(u.source_images)
            if u.is_star_path(a, phi)]


def _distance_from_source(u, a):
    vis = _visible_images(u, a)
    if not vis:
        raise OutsidePolygon(f"no source image sees {a}")
    return min(d for _, d in vis)


def test_fold_back_distance_consistency(octa, fresh_rng):
    r = fresh_rng(4)
    p = octa.random_point(r)
    u = unfold(octa, p)
    for _ in range(6):
        q = octa.random_point(r)
        dev, _ = u.dev_point(q)
        d_star = _distance_from_source(u, dev)
        assert d_star == pytest.approx(distance(octa, p, q), abs=1e-10)
        # every visible image is at least that far
        for i, d in _visible_images(u, dev):
            assert d >= d_star - 1e-12


def test_fold_back_rejects_boundary(octa, fresh_rng):
    u = unfold(octa, octa.random_point(fresh_rng(5)))
    with pytest.raises(OutsidePolygon):
        u.fold_back(u.source_images[0])
    far = (1e6, 1e6)
    with pytest.raises(OutsidePolygon):
        u.fold_back(far)


def test_is_star_path_degenerate_and_crossing(octa, fresh_rng):
    u = unfold(octa, octa.random_point(fresh_rng(6)))
    inner = np.mean(u.polygon, axis=0)
    ctr = tuple(inner)
    if u.contains(ctr):
        assert u.is_star_path(ctr, ctr)
    # a segment between two non-adjacent reflex corners leaves the polygon
    cones = u.cone_images
    a = cones[0]
    b = cones[len(cones) // 2]
    mid = ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)
    if not u.contains(mid):
        assert not u.is_star_path(a, b)


def test_fold_segment_is_isometric(octa, fresh_rng):
    r = fresh_rng(7)
    u = unfold(octa, octa.random_point(r))
    for _ in range(5):
        a = u.dev_point(octa.random_point(r))[0]
        b = u.dev_point(octa.random_point(r))[0]
        if not (u.is_star_path(a, b) and u.contains(a) and u.contains(b)):
            continue
        pieces = u.fold_segment(a, b)
        total = sum(math.dist(p0, p1) for _, p0, p1 in pieces)
        assert total == pytest.approx(math.dist(a, b), rel=1e-6)


def _ref_contains(poly, a, clearance=0.0):
    if not point_in_polygon(a, poly):
        return False
    if clearance > 0.0:
        return dist_point_polygon_boundary(a, poly) > clearance
    return True


def _ref_is_star_path(poly, a, b, eps):
    """The star-path test written with the geom helpers."""
    if math.dist(a, b) < eps:
        return _ref_contains(poly, a)
    mid = ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)
    if not point_in_polygon(mid, poly):
        return False
    n = len(poly)
    if any(seg_seg_proper_cross(a, b, poly[i], poly[(i + 1) % n], eps)
           for i in range(n)):
        return False
    for v in poly:
        if math.dist(v, a) < eps or math.dist(v, b) < eps:
            continue
        if dist_point_seg(v, a, b) < eps:
            return False
    return True


def _test_segments(u, s, rng, eps):
    """Random segments, segments from interior points to every polygon
    vertex (an endpoint on the boundary), boundary chords, segments of
    length under eps, and lines through a vertex shifted sideways by
    multiples of eps (grazing the vertex, or just missing it)."""
    poly = u.polygon
    lo = np.min(poly, axis=0) - 0.1 * s.chart_scale
    hi = np.max(poly, axis=0) + 0.1 * s.chart_scale

    def pt(xy):
        return (float(xy[0]), float(xy[1]))

    inner = [u.dev_point(s.random_point(rng))[0] for _ in range(4)]
    for _ in range(40):
        yield pt(rng.uniform(lo, hi)), pt(rng.uniform(lo, hi))
    for a in inner:
        for v in poly:
            yield a, v
        yield a, (a[0] + 0.3 * eps, a[1] - 0.2 * eps)
    for _ in range(20):
        i, j = rng.choice(len(poly), size=2, replace=False)
        yield poly[i], poly[j]
    for v in poly:
        ang = rng.uniform(0.0, 2 * math.pi)
        d = (math.cos(ang), math.sin(ang))
        for shift in (0.0, 0.5, 0.999, 1.001, 3.0):
            off = (-d[1] * shift * eps, d[0] * shift * eps)
            la, lb = rng.uniform(0.01, 0.5, size=2) * s.chart_scale
            yield ((v[0] + off[0] + la * d[0], v[1] + off[1] + la * d[1]),
                   (v[0] + off[0] - lb * d[0], v[1] + off[1] - lb * d[1]))


def test_table_predicates_match_geom_reference(octa, cube, perturbed,
                                               fresh_rng):
    """is_star_path, contains and boundary_distance read a per-polygon
    edge table; their decisions and distances equal the geom helpers'
    bit for bit."""
    r = fresh_rng(8)
    outcomes = set()
    for s in (octa, cube, perturbed):
        eps = 1e-9 * s.chart_scale
        for _ in range(3):
            u = unfold(s, s.random_point(r))
            poly = u.polygon
            for a, b in _test_segments(u, s, r, eps):
                want = _ref_is_star_path(poly, a, b, eps)
                assert u.is_star_path(a, b) == want
                assert u.is_star_path(a, b, 10 * eps) == \
                    _ref_is_star_path(poly, a, b, 10 * eps)
                outcomes.add(want)
                # the horizontal through a vertex probes the parity rule at
                # its rounding-sensitive crossings
                level = [(p[0] + dx * s.chart_scale, p[1])
                         for p in (a, b) for dx in (-0.3, 0.0, 0.3)]
                for p in [a, b, ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)] + \
                        level:
                    assert u.boundary_distance(p) == \
                        dist_point_polygon_boundary(p, poly)
                    for clearance in (0.0, eps, 0.01 * s.chart_scale):
                        assert u.contains(p, clearance) == \
                            _ref_contains(poly, p, clearance)
    assert outcomes == {True, False}
