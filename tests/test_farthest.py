import dataclasses
import functools
import math
from itertools import combinations
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from farmap import farthest, presets
from farmap.dynamics import iterate
from farmap.errors import FarmapError, OutsideFace, VoronoiDegeneracy
from farmap.farthest import (FarthestPoint, evaluate_f, good_triples,
                             ranked_good_triples, triple_conditions)
from farmap.geodesics import distance, minimizers
from farmap.geom import circumcenter
from farmap.oracle import oracle_distance_field
from farmap.star_unfold import StarUnfolding, unfold
from farmap.surface import SurfacePoint

from test_star_unfold import (_random_symmetric_polytope, _ref_contains,
                              _ref_is_star_path, _surface_gap)


def test_good_triple_bound(octa, cube, perturbed, fresh_rng):
    r = fresh_rng(0)
    for s in (octa, cube, perturbed):
        bound = s.n_cone_points - 2
        for _ in range(8):
            u = unfold(s, s.random_point(r))
            gts = good_triples(u)
            assert len(gts) <= bound


def test_good_triple_conditions_enforced(octa, fresh_rng):
    r = fresh_rng(1)
    u = unfold(octa, octa.random_point(r))
    for g in good_triples(u):
        assert u.contains(g.center, clearance=0.5 * octa.eps_geom)
        i, j, k = g.indices
        for idx in (i, j, k):
            assert u.is_star_path(g.center, u.source_images[idx])
            assert math.dist(g.center, u.source_images[idx]) == \
                pytest.approx(g.radius, abs=1e-9)
        for n in range(u.n_images):
            if n in g.indices:
                continue
            if u.is_star_path(g.center, u.source_images[n]):
                assert math.dist(g.center, u.source_images[n]) >= \
                    g.radius - 1e-9


def test_good_triple_radius_matches_surface_distance(octa, perturbed,
                                                     fresh_rng):
    """Each image of a good triple sees its circumcenter along a developed
    shortest path (Aronov-O'Rourke), so folding back through any one of
    them gives the same surface point, at the triple's radius."""
    r = fresh_rng(2)
    k20 = _random_symmetric_polytope(0, 10)
    for s in (octa, perturbed, k20):
        u = unfold(s, s.random_point(r))
        gts = good_triples(u)
        assert gts
        for g in gts:
            q = u.fold_back(g.center, g.indices)[0]
            assert distance(s, u.source, q) == pytest.approx(g.radius,
                                                             abs=1e-9)
            for n in g.indices:
                qn = u.fold_back(g.center, (n,))[0]
                assert _surface_gap(s, q, qn) < 1e-9 * s.diameter


def test_farthest_point_outside_its_face_is_an_error(octa, monkeypatch):
    """A triple's farthest point that folds back outside its face raises
    OutsideFace instead of entering an orbit."""
    (x0, y0), (x1, y1), (x2, y2) = octa.corners[0]
    # barycentric (1.2, 0.8, -1): beyond the edge of face 0 opposite
    # corner 2, which canonical() leaves in face 0's chart
    outside = SurfacePoint(0, 1.2 * x0 + 0.8 * x1 - x2,
                           1.2 * y0 + 0.8 * y1 - y2)
    assert not octa.contains(octa.canonical(outside))
    monkeypatch.setattr(StarUnfolding, "fold_back",
                        lambda u, a, images: (outside, None))
    c = np.mean(octa.corners[0], axis=0)
    with pytest.raises(OutsideFace, match="lies outside its face"):
        evaluate_f(octa, SurfacePoint(0, c[0], c[1]))


def test_evaluate_f_vs_oracle(octa, perturbed, fresh_rng):
    r = fresh_rng(3)
    for s in (octa, perturbed):
        for _ in range(3):
            p = s.random_point(r)
            res = evaluate_f(s, p)
            fld = oracle_distance_field(s, res.source, 5)
            # oracle max is a lattice upper-bound field; its max cannot
            # undershoot the radius by more than one cell
            assert fld.max_value() >= res.radius - 2 * fld.mesh_edge
            assert res.radius >= fld.max_value() - 2 * fld.mesh_edge
            amax = fld.argmax_point()
            gap = min(distance(s, amax, fp.point) for fp in res.points)
            assert gap <= 2 * fld.mesh_edge


def test_radius_properties(octa, fresh_rng):
    r = fresh_rng(4)
    for _ in range(10):
        p = octa.random_point(r)
        res = evaluate_f(octa, p)
        assert res.radius == pytest.approx(
            evaluate_f(octa, octa.antipode(p)).radius, abs=1e-9)
        assert res.radius >= max(c.length for c in res.unfolding.cuts) - 1e-12
        assert res.radius > 0


def test_vertex_source_evaluation(octa):
    for vid in range(6):
        p = octa.vertex_point(vid)
        res = evaluate_f(octa, p)
        assert res.unfolding.n_images == 5
        fld = oracle_distance_field(octa, res.source, 5)
        assert abs(res.radius - fld.max_value()) <= 2 * fld.mesh_edge


def test_farthest_points_have_three_minimizers(perturbed, fresh_rng):
    r = fresh_rng(5)
    for _ in range(5):
        p = perturbed.random_point(r)
        res = evaluate_f(perturbed, p)
        for fp in res.points:
            if fp.provenance != "triple":
                continue
            paths = minimizers(perturbed, res.source, fp.point)
            assert len(paths) >= 3


def test_farthest_point_uniqueness_consequence(perturbed, fresh_rng):
    """A non-cone point is farthest from at most one source."""
    r = fresh_rng(6)
    for _ in range(4):
        p1 = perturbed.random_point(r)
        p2 = perturbed.random_point(r)
        res1 = evaluate_f(perturbed, p1)
        res2 = evaluate_f(perturbed, p2)
        d12 = distance(perturbed, p1, p2)
        if d12 < 1e-3:
            continue
        for fp1 in res1.points:
            for fp2 in res2.points:
                if fp1.provenance == fp2.provenance == "triple":
                    gap = distance(perturbed, fp1.point, fp2.point)
                    assert gap > perturbed.eps_geom


def _active_indices(res, fp):
    """Source-image indices whose distance to fp's planar image is minimal
    within the tie tolerance and whose segment is a star path (the
    minimizers from the source to fp)."""
    u = res.unfolding
    return [n for n, phi in enumerate(u.source_images)
            if math.dist(phi, fp.center) <= fp.distance + u.surface.eps_tie
            and u.is_star_path(fp.center, phi)]


def test_face_center_is_fixed_point(octa):
    """The face center of the regular octahedron is a generalized fixed
    point: every triple ties there and all circumcenters coincide on it."""
    f = 0
    c = np.mean(octa.corners[f], axis=0)
    p = SurfacePoint(f, c[0], c[1])
    res = evaluate_f(octa, p)
    assert len(res.points) == 1
    fp = res.points[0]
    gap = distance(octa, p, fp.point)
    assert gap < 1e-9
    # the antipodal pair is joined by many minimizers at this point
    assert len(_active_indices(res, fp)) == 6


def test_multi_valued_across_branch_jump(octa):
    """Bisect onto the multi-valued curve: between the face center and a
    corner the selected farthest point jumps branches, and exactly at the
    crossing both branches tie within eps_tie."""
    f = 0
    c = np.mean(octa.corners[f], axis=0)
    a = np.array([c[0], c[1]])
    b = np.array(octa.corners[f][0]) * 0.55 + a * 0.45

    def fpt(t):
        xy = a + t * (b - a)
        res = evaluate_f(octa, SurfacePoint(f, xy[0], xy[1]))
        fp = max(res.points, key=lambda q: q.distance)
        return np.array([fp.point.u, fp.point.v]), res

    lo, hi = 0.40, 0.45
    ref_lo, _ = fpt(lo)
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        cur, _ = fpt(mid)
        if np.linalg.norm(cur - ref_lo) < 0.05:
            lo = mid
            ref_lo = cur
        else:
            hi = mid
    _, res = fpt(0.5 * (lo + hi))
    assert len(res.points) >= 2
    for fp in res.points:
        assert fp.distance == pytest.approx(res.radius, abs=octa.eps_tie)
    # distinct farthest points genuinely far apart (multi-valued, not a tie
    # of coincident circumcenters)
    pts = res.points
    assert max(distance(octa, pts[0].point, fp.point)
               for fp in pts[1:]) > 0.01


def test_triple_conditions_slack(octa, fresh_rng):
    u = unfold(octa, octa.random_point(fresh_rng(7)))
    gts = good_triples(u)
    for g in gts:
        assert triple_conditions(u, g.indices) is not None
        assert triple_conditions(u, g.indices, slack=1e-3) is not None


def _brute_force_good_triples(u):
    """Reference: every one of the C(K, 3) image triples tested."""
    found = (triple_conditions(u, t)
             for t in combinations(range(u.n_images), 3))
    return [g for g in found if g is not None]


def _assert_same_triples(u):
    got = [(g.indices, g.center, g.radius) for g in good_triples(u)]
    want = [(g.indices, g.center, g.radius)
            for g in _brute_force_good_triples(u)]
    assert got == want


def _ref_triple_conditions(u, triple):
    """`triple_conditions` at its default tolerances, written with the
    reference loops of test_star_unfold: (indices, center, radius), or
    None."""
    eps = 1e-9 * u.surface.chart_scale
    slack = 1e-12 * u.surface.chart_scale
    poly = u.vertices
    imgs = u.source_images
    c = circumcenter(*(imgs[n] for n in triple))
    if c is None or not _ref_contains(poly, c, eps):
        return None
    if not all(_ref_is_star_path(poly, c, imgs[n], eps) for n in triple):
        return None
    r = math.dist(c, imgs[triple[0]])
    for n in range(u.n_images):
        if n not in triple and math.dist(c, imgs[n]) < r - slack and \
                _ref_is_star_path(poly, c, imgs[n], eps):
            return None
    return triple, c, r


def test_good_triples_match_reference_at_k20():
    """good_triples equals the reference test of all C(20, 3) triples on
    the benchmark's K = 20 inputs: the recipe polytopes of seeds 0-3 and,
    of the eight points default_rng(0) draws on each, the first two,
    unfolded from their antipodes as evaluate_f does."""
    rng = np.random.default_rng(0)
    checked = 0
    for seed in range(4):
        s = _random_symmetric_polytope(seed, 10)
        points = [s.random_point(rng) for _ in range(8)]
        for p in points[:2]:
            u = unfold(s, s.antipode(p))
            assert u.n_images == 20
            want = [g for g in (_ref_triple_conditions(u, t) for t in
                                combinations(range(u.n_images), 3))
                    if g is not None]
            got = [(g.indices, g.center, g.radius) for g in good_triples(u)]
            assert got == want
            checked += len(want)
    assert checked > 0


@given(seed=st.integers(0, 3), half=st.integers(3, 10),
       point_seed=st.integers(0, 2 ** 32 - 1), at_cone=st.booleans())
def test_voronoi_good_triples_match_brute_force(seed, half, point_seed,
                                                at_cone):
    s = _random_symmetric_polytope(seed, half)
    rng = np.random.default_rng(point_seed)
    if at_cone:
        vids = sorted(s.vertex_cycles)
        src = s.vertex_point(vids[int(rng.integers(len(vids)))])
    else:
        src = s.random_point(rng)
    _assert_same_triples(unfold(s, src))


NEAR_COCIRCULAR = ("regular-octahedron", "cube", "antiprism:h=0.9",
                   "antiprism:h=1.9", "perturbed-octahedron:seed=1")


@given(name=st.sampled_from(NEAR_COCIRCULAR), face=st.integers(0, 11),
       log_offset=st.integers(-12, -2), angle=st.floats(0.0, 2 * math.pi))
def test_voronoi_good_triples_near_cocircular(name, face, log_offset,
                                              angle):
    """Sources at and next to face centers, where on the symmetric presets
    four or more source images are (nearly) cocircular."""
    s = presets.make(name)
    f = face % s.n_faces
    c = np.mean(s.corners[f], axis=0)
    r = 10.0 ** log_offset * s.chart_scale
    for p in (SurfacePoint(f, c[0], c[1]),
              SurfacePoint(f, c[0] + r * math.cos(angle),
                           c[1] + r * math.sin(angle))):
        _assert_same_triples(unfold(s, p))


@pytest.mark.parametrize("name", NEAR_COCIRCULAR)
def test_voronoi_good_triples_cone_sources(name):
    s = presets.make(name)
    for vid in sorted(s.vertex_cycles):
        _assert_same_triples(unfold(s, s.vertex_point(vid)))


def test_collinear_images_raise_typed_error():
    line = SimpleNamespace(source_images=[(float(i), 0.0) for i in range(5)],
                           n_images=5)
    with pytest.raises(VoronoiDegeneracy):
        StarUnfolding.voronoi(line)


def test_result_unfolding_rebuilds_identically(perturbed, fresh_rng):
    r = fresh_rng(9)
    for _ in range(3):
        res = evaluate_f(perturbed, perturbed.random_point(r))
        u = unfold(perturbed, res.source)
        rebuilt = res.unfolding
        assert rebuilt is not u
        assert rebuilt.vertices == u.vertices
        assert rebuilt.source_images == u.source_images
        assert rebuilt.cone_images == u.cone_images
        assert rebuilt.cuts == u.cuts
        assert res.unfolding is rebuilt
    supplied = unfold(perturbed, perturbed.antipode(res.source))
    assert evaluate_f(perturbed, res.source,
                      unfolding=supplied).unfolding is supplied


def test_result_good_rebuilds_what_evaluate_f_found(perturbed, fresh_rng):
    """A result keeps no good-triple list, also when the caller supplies
    the unfolding: `good` is rebuilt from the unfolding on first access,
    in index order, and holds the triple of every farthest point that
    evaluate_f found. A list passed in (dataclasses.replace) is kept as
    given."""
    r = fresh_rng(10)
    for _ in range(3):
        p = perturbed.random_point(r)
        res = evaluate_f(perturbed, p)
        supplied = evaluate_f(perturbed, p, unfolding=res.unfolding)
        assert res._good is None and supplied._good is None
        rebuilt = res.good
        assert rebuilt == _full_scan_good(res.unfolding)
        assert res.good is rebuilt
        found = {fp.indices for fp in res.points
                 if fp.provenance == "triple"}
        assert found <= {g.indices for g in rebuilt}
    padded = dataclasses.replace(res, good=rebuilt + rebuilt[:1])
    assert padded.good == rebuilt + rebuilt[:1]
    assert padded.radius == res.radius


def test_tie_width_does_not_change_radius():
    """A wide reporting tie width must not widen the unfolding's cut
    choice: a cut picked among near-ties can be longer than the distance
    to its cone point, and its length is then no radius."""
    s = _random_symmetric_polytope(2, 10)
    p = s.random_point(np.random.default_rng([1, 0, 2]))
    narrow = evaluate_f(s, p)
    wide = evaluate_f(s, p, eps_tie=0.0925)
    assert wide.radius == narrow.radius


def _full_scan_good(u):
    """Reference: every Voronoi candidate tested, in index order."""
    found = (triple_conditions(u, t)
             for t in sorted(farthest._voronoi_candidates(u)))
    return [g for g in found if g is not None]


def _assert_ranked_pass(u):
    """The ranked pass down to a floor is the full scan ranked by
    (-radius, indices) and cut at the floor: at no floor, at the longest
    cut (the floor of a curve sample), and at and just above each good
    radius."""
    full = sorted(_full_scan_good(u), key=lambda g: (-g.radius, g.indices))
    floors = [-math.inf, max(c.length for c in u.cuts)]
    for g in full:
        floors += [g.radius, math.nextafter(g.radius, math.inf)]
    for floor in floors:
        want = [g for g in full if g.radius >= floor]
        assert list(ranked_good_triples(u, floor)) == want


@given(seed=st.integers(0, 3), half=st.integers(3, 10),
       point_seed=st.integers(0, 2 ** 32 - 1), at_cone=st.booleans())
def test_ranked_pass_with_floor_matches_full_scan(seed, half, point_seed,
                                                  at_cone):
    s = _random_symmetric_polytope(seed, half)
    rng = np.random.default_rng(point_seed)
    if at_cone:
        vids = sorted(s.vertex_cycles)
        src = s.vertex_point(vids[int(rng.integers(len(vids)))])
    else:
        src = s.random_point(rng)
    _assert_ranked_pass(unfold(s, src))


@given(name=st.sampled_from(NEAR_COCIRCULAR), face=st.integers(0, 11),
       log_offset=st.integers(-12, -2), angle=st.floats(0.0, 2 * math.pi))
def test_ranked_pass_with_floor_near_cocircular(name, face, log_offset,
                                                angle):
    s = presets.make(name)
    f = face % s.n_faces
    c = np.mean(s.corners[f], axis=0)
    r = 10.0 ** log_offset * s.chart_scale
    for p in (SurfacePoint(f, c[0], c[1]),
              SurfacePoint(f, c[0] + r * math.cos(angle),
                           c[1] + r * math.sin(angle))):
        _assert_ranked_pass(unfold(s, p))


def _full_scan_f(surface, p, eps_tie):
    """evaluate_f by the rule the ranked pass replaced, as (source, radius,
    points): every good triple found, then sorted by radius and cut at the
    tie band below the largest."""
    u = unfold(surface, surface.antipode(p))
    gts = _full_scan_good(u)
    m1 = max((g.radius for g in gts), default=-math.inf)
    m2 = max(c.length for c in u.cuts)
    merge_tol = max(1e-9 * surface.chart_scale, 1e-3 * eps_tie)
    points = []
    if m1 >= m2 - eps_tie:
        kept = []
        for g in sorted(gts, key=lambda g: -g.radius):
            if g.radius < m1 - eps_tie:
                break
            if not any(math.dist(c.center, g.center) < merge_tol
                       for c in kept):
                kept.append(g)
        for g in kept:
            pt = surface.canonical(u.fold_back(g.center, g.indices)[0])
            if not surface.contains(pt):
                raise OutsideFace(
                    f"farthest point {pt} lies outside its face")
            points.append(FarthestPoint(pt, "triple", g.center, g.radius,
                                        g.indices))
    if m2 >= m1 - eps_tie:
        for n, cut in enumerate(u.cuts):
            if cut.length >= m2 - eps_tie:
                points.append(FarthestPoint(
                    surface.vertex_point(cut.vid), "cone",
                    u.cone_images[n], cut.length, (n,)))
    return u.source, max(m1, m2), points


def _outcome(fn):
    try:
        return fn()
    except FarmapError as e:
        return type(e), str(e)


def _assert_matches_full_scan(s, p, tie):
    """evaluate_f and the full-scan rule return identical results or raise
    the same typed error, at the default tie width and at wide ones, where
    the tie band reaches below the longest cut."""
    eps_tie = s.eps_tie if tie is None else tie * s.diameter

    def ranked():
        res = evaluate_f(s, p, eps_tie=eps_tie)
        return res.source, res.radius, res.points

    assert _outcome(ranked) == _outcome(lambda: _full_scan_f(s, p, eps_tie))


@functools.lru_cache(maxsize=None)
def _polytope_and_limit(seed, half):
    """A recipe polytope and a limit of f on it, which has at least four
    minimizers from its antipode: its source images are cocircular."""
    s = _random_symmetric_polytope(seed, half)
    return s, iterate(s, s.random_point(np.random.default_rng(seed))).limit


def _near(s, kind, offset, rng):
    """A point `offset` x chart_scale from a random corner or edge of a
    random face, on the face side."""
    f = int(rng.integers(s.n_faces))
    e = int(rng.integers(3))
    a, b, c = (np.array(s.corners[f][(e + k) % 3]) for k in range(3))
    d = offset * s.chart_scale
    if kind == "vertex":
        x = a + d * (c + b - 2 * a) / np.linalg.norm(c + b - 2 * a)
    else:
        t = b - a
        n = np.array([-t[1], t[0]]) / np.linalg.norm(t)
        if np.dot(n, c - a) < 0:
            n = -n
        x = a + rng.uniform(0.05, 0.95) * t + d * n
    return SurfacePoint(f, float(x[0]), float(x[1]))


TIE_WIDTHS = (None, 1e-3, 3e-2, 0.2)    # x diameter; None: the surface's
_preset = functools.lru_cache(maxsize=None)(presets.make)


@given(seed=st.integers(0, 3), half=st.integers(3, 10),
       point_seed=st.integers(0, 2 ** 32 - 1),
       kind=st.sampled_from(["random", "cone", "limit", "edge", "vertex"]),
       log_offset=st.integers(-12, -6), angle=st.floats(0.0, 2 * math.pi),
       tie=st.sampled_from(TIE_WIDTHS))
def test_evaluate_f_matches_full_scan_rule(seed, half, point_seed, kind,
                                           log_offset, angle, tie):
    """Random points, cone points, points next to a limit of f (nearly
    cocircular source images), and points 1e-12..1e-6 x chart_scale from
    face edges and corners, on recipe polytopes with K = 6..20."""
    s, limit = _polytope_and_limit(seed, half)
    rng = np.random.default_rng(point_seed)
    offset = 10.0 ** log_offset
    if kind == "random":
        p = s.random_point(rng)
    elif kind == "cone":
        vids = sorted(s.vertex_cycles)
        p = s.vertex_point(vids[int(rng.integers(len(vids)))])
    elif kind == "limit":
        r = offset * s.chart_scale
        p = SurfacePoint(limit.face, limit.u + r * math.cos(angle),
                         limit.v + r * math.sin(angle))
        if not s.contains(p):
            p = limit
    else:
        p = _near(s, kind, offset, rng)
    _assert_matches_full_scan(s, p, tie)


@given(name=st.sampled_from(NEAR_COCIRCULAR), face=st.integers(0, 11),
       log_offset=st.integers(-12, -2), angle=st.floats(0.0, 2 * math.pi),
       tie=st.sampled_from(TIE_WIDTHS))
def test_evaluate_f_matches_full_scan_rule_near_cocircular(
        name, face, log_offset, angle, tie):
    """At and next to the face centers of the symmetric presets, where
    many good triples tie and their circumcenters coincide, so the tie
    order decides which triple folds back."""
    s = _preset(name)
    f = face % s.n_faces
    c = np.mean(s.corners[f], axis=0)
    r = 10.0 ** log_offset * s.chart_scale
    for p in (SurfacePoint(f, c[0], c[1]),
              SurfacePoint(f, c[0] + r * math.cos(angle),
                           c[1] + r * math.sin(angle))):
        _assert_matches_full_scan(s, p, tie)
