import math

import numpy as np
import pytest

from farmap import presets
from farmap.cutlocus import cut_locus
from farmap.errors import OutsidePolygon
from farmap.geodesics import distance
from farmap.geom import dist_point_seg, polygon_is_simple, seg_seg_proper_cross
from farmap.surface import SurfacePoint, build_from_vertices
from farmap.star_unfold import unfold


def _random_symmetric_polytope(seed, half):
    """K = 2*half cone points: normalized Gaussian directions, mirrored."""
    v = np.random.default_rng(seed).normal(size=(half, 3))
    v /= np.linalg.norm(v, axis=1)[:, None]
    return build_from_vertices(np.vstack([v, -v]))


def test_octahedron_generic_source_12gon(octa, fresh_rng):
    p = octa.random_point(fresh_rng(0))
    u = unfold(octa, p)
    assert len(u.vertices) == 12
    assert polygon_is_simple(u.vertices, 1e-9 * octa.chart_scale)
    assert u.closure_error < 1e-10
    assert u.signed_area == pytest.approx(octa.area, abs=1e-9)


def test_cube_face_center_16gon(cube):
    f = 0
    c = np.mean(cube.corners[f], axis=0)
    u = unfold(cube, SurfacePoint(f, c[0], c[1]))
    assert len(u.vertices) == 16
    assert polygon_is_simple(u.vertices, 1e-9 * cube.chart_scale)


def test_cone_point_source_polygon(octa, perturbed):
    for s in (octa, perturbed):
        n = s.n_cone_points
        for vid in range(n):
            u = unfold(s, s.vertex_point(vid))
            assert len(u.vertices) == 2 * (n - 1)
            assert polygon_is_simple(u.vertices, 1e-9 * s.chart_scale)
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


def _edge_points(s, rng):
    """One random point inside every face edge, in that face's chart."""
    for f in range(s.n_faces):
        for e in range(3):
            a, b = s.corners[f][e], s.corners[f][(e + 1) % 3]
            t = float(rng.uniform(0.1, 0.9))
            yield SurfacePoint(f, a[0] + t * (b[0] - a[0]),
                               a[1] + t * (b[1] - a[1]))


def _visible_images(u, a):
    """Indices i with [a, phi_i] a star path, with their distances."""
    return [(i, math.dist(a, phi)) for i, phi in enumerate(u.source_images)
            if u.is_star_path(a, phi)]


def _seeing(u, a):
    """The indices of `_visible_images`: the images fold_back may take."""
    return [i for i, _ in _visible_images(u, a)]


def test_fold_back_round_trip(octa, perturbed, fresh_rng):
    """dev_point's transform reads q in q's own face chart, also for points
    on a face edge, where the shortest path may end in the partner face."""
    r = fresh_rng(3)
    for s in (octa, perturbed, presets.antiprism(0.9)):
        u = unfold(s, s.random_point(r))
        for q in [s.random_point(r) for _ in range(6)] + \
                list(_edge_points(s, r)):
            dev, t_chart = u.dev_point(q)
            assert u.contains(dev)
            back = u.fold_back(dev, _seeing(u, dev))[0]
            assert s.chart_gap(q, back) < 1e-10
            assert math.dist(t_chart.apply(q.uv), dev) < 1e-10


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
    phi = u.source_images[0]
    with pytest.raises(OutsidePolygon):
        u.fold_back(phi, _seeing(u, phi))
    far = (1e6, 1e6)
    with pytest.raises(OutsidePolygon):
        u.fold_back(far, _seeing(u, far))


def test_is_star_path_degenerate_and_crossing(octa, fresh_rng):
    u = unfold(octa, octa.random_point(fresh_rng(6)))
    inner = np.mean(u.vertices, axis=0)
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
    """Random star-path segments, folded through the images that see both
    ends (the triangle with such an image lies in the polygon, so the
    image sees the whole segment), and the cut-locus tree edges, folded
    through their ridge sites as cut_locus does: the two images nearest
    the edge's midpoint."""
    r = fresh_rng(7)
    u = unfold(octa, octa.random_point(r))
    cases = []
    for _ in range(5):
        a = u.dev_point(octa.random_point(r))[0]
        b = u.dev_point(octa.random_point(r))[0]
        if not (u.is_star_path(a, b) and u.contains(a) and u.contains(b)):
            continue
        images = sorted(set(_seeing(u, a)) & set(_seeing(u, b)))
        if images:
            cases.append((u, a, b, images))
    for s in (octa, _random_symmetric_polytope(0, 10)):
        tree = cut_locus(s, min(s.vertex_cycles))
        cases += [(tree.unfolding, tree.nodes[i], tree.nodes[j],
                   _ridge_sites(tree, i, j)) for i, j in tree.edges]
    assert len(cases) > 10
    for u, a, b, images in cases:
        pieces = u.fold_segment(a, b, images)
        total = sum(math.dist(p0, p1) for _, p0, p1 in pieces)
        assert total == pytest.approx(math.dist(a, b), rel=1e-6)


def _ridge_sites(tree, i, j):
    """The two source images nearest the midpoint of tree edge (i, j): the
    sites of the Voronoi ridge the edge lies on."""
    a, b = tree.nodes[i], tree.nodes[j]
    mid = ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)
    imgs = tree.unfolding.source_images
    return sorted(range(len(imgs)), key=lambda n: math.dist(mid, imgs[n]))[:2]


def _surface_gap(s, p, q):
    """Chart distance of two nearby surface points, or their geodesic
    distance when they lie in charts that share no edge."""
    p, q = s.canonical(p), s.canonical(q)
    gap = s.chart_gap(p, q)
    return distance(s, p, q) if gap is None else gap


def _point_in_polygon(p, poly):
    """Even-odd rule, the reference loop of the edge-table predicates."""
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


def _dist_point_polygon_boundary(p, poly):
    n = len(poly)
    return min(dist_point_seg(p, poly[i], poly[(i + 1) % n])
               for i in range(n))


def _ref_contains(poly, a, clearance=0.0):
    if clearance < 0.0:
        # the region-cell test: inside, or within -clearance of the boundary
        return (_point_in_polygon(a, poly)
                or _dist_point_polygon_boundary(a, poly) < -clearance)
    if not _point_in_polygon(a, poly):
        return False
    if clearance > 0.0:
        return _dist_point_polygon_boundary(a, poly) > clearance
    return True


def _ref_is_star_path(poly, a, b, eps):
    """The star-path test written with the reference loops."""
    if math.dist(a, b) < eps:
        return _ref_contains(poly, a)
    mid = ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)
    if not _point_in_polygon(mid, poly):
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


def _test_segments(poly, inner, rng, eps, scale):
    """Random segments, segments from the interior points `inner` to every
    polygon vertex (an endpoint on the boundary), boundary chords, segments
    of length under eps, and lines through a vertex shifted sideways by
    multiples of eps (grazing the vertex, or just missing it)."""
    lo = np.min(poly, axis=0) - 0.1 * scale
    hi = np.max(poly, axis=0) + 0.1 * scale

    def pt(xy):
        return (float(xy[0]), float(xy[1]))

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
            la, lb = rng.uniform(0.01, 0.5, size=2) * scale
            yield ((v[0] + off[0] + la * d[0], v[1] + off[1] + la * d[1]),
                   (v[0] + off[0] - lb * d[0], v[1] + off[1] - lb * d[1]))


def _box_miss_segments(poly, rng, eps, scale):
    """Segments whose box misses the box of an edge by 0.5, 1.5, 2.5 or
    4 eps, on both sides of the 2 eps skip margin of `is_star_path`. Past
    each side of the edge's box, beyond the edge's extreme vertex v there:
    a segment along that side, level with v, and one from beside v
    outwards. The outward segment starts that far from the box, which
    probes the skip margin of `contains` too."""
    n = len(poly)
    for k in range(n):
        ends = (poly[k], poly[(k + 1) % n])
        for axis in (0, 1):
            for sign in (-1.0, 1.0):
                v = max(ends, key=lambda p: sign * p[axis])
                for mult in (0.5, 1.5, 2.5, 4.0):
                    a = list(v)
                    a[axis] += sign * mult * eps
                    la, lb = (rng.uniform(0.01, 0.5, size=2) * scale).tolist()
                    along_a, along_b = list(a), list(a)
                    along_a[1 - axis] -= la
                    along_b[1 - axis] += lb
                    yield tuple(along_a), tuple(along_b)
                    ang = rng.uniform(-1.4, 1.4)
                    w = [0.0, 0.0]
                    w[axis] = sign * math.cos(ang)
                    w[1 - axis] = math.sin(ang)
                    yield tuple(a), (a[0] + la * w[0], a[1] + la * w[1])


def _inner_points(poly, rng, count=4):
    """Random points inside the polygon by the reference even-odd rule."""
    lo = np.min(poly, axis=0)
    hi = np.max(poly, axis=0)
    out = []
    while len(out) < count:
        p = tuple(float(c) for c in rng.uniform(lo, hi))
        if _point_in_polygon(p, poly):
            out.append(p)
    return out


def _polygon_probes(poly, rng, scale):
    """Vertices; points on every edge and just off it, on both sides,
    inside and beyond the region-cell tolerances 1e-9 and 1e-7; points
    level with each vertex; random points around the polygon."""
    n = len(poly)
    for k, v in enumerate(poly):
        yield v
        yield (v[0] - 0.3 * scale, v[1])
        yield (v[0] + 0.3 * scale, v[1])
        w = poly[(k + 1) % n]
        ex, ey = w[0] - v[0], w[1] - v[1]
        le = math.hypot(ex, ey)
        for s in (0.5, rng.uniform()):
            m = (v[0] + s * ex, v[1] + s * ey)
            for off in (0.0, 0.5e-9, 2e-9, 0.5e-7, 2e-7, -0.5e-7, -2e-7):
                yield (m[0] - off * ey / le, m[1] + off * ex / le)
    lo = np.min(poly, axis=0) - 0.1 * scale
    hi = np.max(poly, axis=0) + 0.1 * scale
    for _ in range(20):
        yield tuple(float(c) for c in rng.uniform(lo, hi))


def _assert_star_predicates(u, inner, rng, level_probes):
    """is_star_path and contains on `_test_segments` and
    `_box_miss_segments` of the star polygon u, and boundary_distance and
    contains at the test segments' ends and midpoints (with
    `level_probes`, also at points level with the ends), equal the
    reference loops'. Returns the set of reference star-path outcomes."""
    scale = u.surface.chart_scale
    eps = 1e-9 * scale
    poly = u.vertices
    outcomes = set()
    for a, b in _test_segments(poly, inner, rng, eps, scale):
        want = _ref_is_star_path(poly, a, b, eps)
        assert u.is_star_path(a, b) == want
        assert u.is_star_path(a, b, eps=10 * eps) == \
            _ref_is_star_path(poly, a, b, 10 * eps)
        outcomes.add(want)
        probes = [a, b, ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)]
        if level_probes:
            # the horizontal through a vertex probes the parity rule at
            # its rounding-sensitive crossings
            probes += [(p[0] + dx * scale, p[1])
                       for p in (a, b) for dx in (-0.3, 0.0, 0.3)]
        for p in probes:
            assert u.boundary_distance(p) == \
                _dist_point_polygon_boundary(p, poly)
            for clearance in (0.0, eps, 0.01 * scale):
                assert u.contains(p, clearance) == \
                    _ref_contains(poly, p, clearance)
    for a, b in _box_miss_segments(poly, rng, eps, scale):
        for e in (eps, 10 * eps):
            assert u.is_star_path(a, b, eps=e) == \
                _ref_is_star_path(poly, a, b, e)
        for clearance in (eps, -eps):
            assert u.contains(a, clearance) == \
                _ref_contains(poly, a, clearance)
    return outcomes


def _dev_images(u, s, rng, count=4):
    """Images in the unfolding u of random points of the surface s."""
    return [u.dev_point(s.random_point(rng))[0] for _ in range(count)]


def test_table_predicates_match_geom_reference(octa, cube, perturbed,
                                               octa_regions,
                                               perturbed_regions, fresh_rng):
    """is_star_path, contains, boundary_distance and inside_grid read a
    per-polygon edge table; their decisions and distances equal the
    reference loops' bit for bit, on star polygons, region outlines and
    region cells. The star polygons are unfoldings of the presets and of
    random symmetric polytopes with K = 10 and 20, where the box test
    skips most edges, and the region star polygons of the octahedron."""
    r = fresh_rng(8)
    outcomes = set()
    for s in (octa, cube, perturbed):
        for _ in range(3):
            u = unfold(s, s.random_point(r))
            outcomes |= _assert_star_predicates(u, _dev_images(u, s, r), r,
                                                True)
    for half in (5, 10):
        for seed in range(4):
            s = _random_symmetric_polytope(seed, half)
            u = unfold(s, s.random_point(r))
            outcomes |= _assert_star_predicates(u, _dev_images(u, s, r), r,
                                                False)
    for region in octa_regions.regions:
        (xy, _), = region.interior_samples(1)
        u = region.star_polygon(octa, xy)
        outcomes |= _assert_star_predicates(
            u, _inner_points(u.vertices, r), r, False)
    assert outcomes == {True, False}
    banded = 0
    for dec in (octa_regions, perturbed_regions):
        scale = dec.surface.chart_scale
        for region in dec.regions:
            for polygon in [region.polygon] + [c.polygon
                                               for c in region.cells]:
                poly = polygon.vertices
                probes = list(_polygon_probes(poly, r, scale))
                x, y = np.array(probes).T.reshape(2, 1, -1)
                assert polygon.inside_grid(x, y).tolist() == \
                    [[_point_in_polygon(p, poly) for p in probes]]
                for p in probes:
                    assert polygon.boundary_distance(p) == \
                        _dist_point_polygon_boundary(p, poly)
                    for clearance in (0.0, 1e-9 * scale, 0.01 * scale,
                                      -1e-9, -1e-7):
                        assert polygon.contains(p, clearance) == \
                            _ref_contains(poly, p, clearance)
                    banded += polygon.contains(p, -1e-7) and \
                        not _point_in_polygon(p, poly)
    assert banded > 0
