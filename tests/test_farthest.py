import dataclasses
import math
from itertools import combinations
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from farmap import farthest, presets
from farmap.errors import OutsideFace, VoronoiDegeneracy
from farmap.farthest import (evaluate_f, good_triples, max_good_radius,
                             triple_conditions)
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


def test_result_good_rebuilds_what_evaluate_f_found(perturbed, fresh_rng,
                                                    monkeypatch):
    """A result keeps no good-triple list: `good` is rebuilt from the
    unfolding on first access and equals the list evaluate_f computed.
    A list passed in (dataclasses.replace) is kept as given."""
    found = []
    real = farthest.good_triples

    def recording(u):
        found.append(real(u))
        return found[-1]

    monkeypatch.setattr(farthest, "good_triples", recording)
    r = fresh_rng(10)
    for _ in range(3):
        found.clear()
        res = evaluate_f(perturbed, perturbed.random_point(r))
        computed, = found
        rebuilt = res.good
        assert rebuilt is not computed
        assert rebuilt == computed
        assert res.good is rebuilt
    padded = dataclasses.replace(res, good=computed + computed[:1])
    assert padded.good == computed + computed[:1]
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


def _assert_max_good_radius(u):
    want = max((g.radius for g in good_triples(u)), default=-math.inf)
    assert max_good_radius(u) == want


@given(seed=st.integers(0, 3), half=st.integers(3, 10),
       point_seed=st.integers(0, 2 ** 32 - 1), at_cone=st.booleans())
def test_max_good_radius_matches_good_triples(seed, half, point_seed,
                                              at_cone):
    s = _random_symmetric_polytope(seed, half)
    rng = np.random.default_rng(point_seed)
    if at_cone:
        vids = sorted(s.vertex_cycles)
        src = s.vertex_point(vids[int(rng.integers(len(vids)))])
    else:
        src = s.random_point(rng)
    _assert_max_good_radius(unfold(s, src))


@given(name=st.sampled_from(NEAR_COCIRCULAR), face=st.integers(0, 11),
       log_offset=st.integers(-12, -2), angle=st.floats(0.0, 2 * math.pi))
def test_max_good_radius_near_cocircular(name, face, log_offset, angle):
    s = presets.make(name)
    f = face % s.n_faces
    c = np.mean(s.corners[f], axis=0)
    r = 10.0 ** log_offset * s.chart_scale
    for p in (SurfacePoint(f, c[0], c[1]),
              SurfacePoint(f, c[0] + r * math.cos(angle),
                           c[1] + r * math.sin(angle))):
        _assert_max_good_radius(unfold(s, p))
