import math

import numpy as np
import pytest

from farmap import presets
from farmap.cutlocus import (_cell_transform, build_regions, cut_locus,
                             region_isometries)
from farmap.errors import ArrangementDegeneracy
from farmap.geom import polygon_signed_area
from farmap.geodesics import minimizers
from farmap.star_unfold import unfold

TWO_PI = 2.0 * math.pi


def test_octahedron_tree_structure(octa):
    for vid in range(6):
        tree = cut_locus(octa, vid)
        assert tree.is_tree()
        # all other cone points lie on the tree; the antipode is an
        # interior point (>= 2 minimizers by central symmetry) and the
        # rest are leaves
        on_tree = {octa.classify(sp)[1] for sp in tree.node_surface
                   if octa.classify(sp)[0] == "vertex"}
        assert on_tree == set(range(6)) - {vid}
        anti = octa.cone_points[octa.vid_to_cone[vid]].antipode
        leaf_vids = {octa.classify(tree.node_surface[i])[1]
                     for i in tree.leaves()}
        assert leaf_vids == set(range(6)) - {vid, anti}


def test_tree_edge_points_have_two_minimizers(octa):
    tree = cut_locus(octa, 0)
    src = octa.vertex_point(0)
    for sp in tree.edge_points(per_edge=2):
        paths = minimizers(octa, src, sp)
        assert len(paths) >= 2


def test_octahedron_regions_are_faces(octa_regions, octa):
    dec = octa_regions
    assert len(dec.regions) == 8
    for r in dec.regions:
        assert len(r.polygon) == 3
        assert r.area == pytest.approx(octa.area / 8, abs=1e-9)
        assert abs(r.convex_defect) < 1e-9
    total = sum(r.area for r in dec.regions)
    assert total == pytest.approx(octa.area, abs=1e-9)


def test_antiprism_region_census():
    for h, expect in ((0.9, {3, 4, 6}), (math.sqrt(2.0), {3}),
                      (1.9, {3, 4, 6})):
        s = presets.antiprism(h)
        s.diameter
        dec = build_regions(s)
        census = {len(r.polygon) for r in dec.regions}
        assert census == expect
        assert sum(r.area for r in dec.regions) == pytest.approx(
            s.area, abs=1e-8)
        for tree in dec.trees:
            assert tree.is_tree()


def _phi_region_map(dec):
    """Region id permutation induced by the antipodal map."""
    out = {}
    for r in dec.regions:
        samples = r.interior_samples(count=1)
        if not samples:
            raise ArrangementDegeneracy(
                f"region {r.rid} admits no interior sample")
        _, sp = samples[0]
        out[r.rid] = dec.locate(dec.surface.antipode(sp))
    return out


def test_phi_permutes_regions(octa_regions, perturbed_regions):
    for dec in (octa_regions, perturbed_regions):
        perm = _phi_region_map(dec)
        assert sorted(perm.values()) == sorted(perm)
        for rid, rid2 in perm.items():
            assert perm[rid2] == rid
            assert dec.regions[rid].area == pytest.approx(
                dec.regions[rid2].area, abs=1e-9)


def test_isometries_are_reversing_and_exact(octa_regions, octa, fresh_rng):
    r = fresh_rng(0)
    region = octa_regions.regions[0]
    for iso in region.isometries:
        assert iso.det() == pytest.approx(-1.0, abs=1e-9)
        assert iso.max_deviation_from_isometry() < 1e-9
    assert region.fit_residual < 1e-9
    # fresh samples: I_n(Psi(q)) reproduces the unfolding's source images
    worst = 0.0
    for _ in range(5):
        sp = None
        while sp is None:
            cand = octa.random_point(r)
            if octa_regions.locate(cand) == region.rid:
                sp = cand
        u = unfold(octa, octa.antipode(sp))
        img, t_chart = u.dev_point(sp)
        w = next(wz for fc, poly, wz in region.cells if fc == sp.face)
        anchor = w.compose(t_chart.inverse())
        x = w.apply(sp.uv)
        assert [c.vid for c in u.cuts] == region.cone_order
        for n, iso in enumerate(region.isometries):
            pred = iso.apply(x)
            true = anchor.apply(u.source_images[n])
            worst = max(worst, math.dist(pred, true))
        # cone constants are independent of the sample
        for n in range(len(region.isometries)):
            cpt = anchor.apply(u.cone_images[n])
            assert math.dist(cpt, region.cone_constants[n]) < 1e-9
    assert worst < 100 * octa.eps_geom


def test_composition_rotation_angles(octa_regions, octa):
    """I_j o I_i^{-1} rotates by the deficit sum between the indices,
    measured clockwise in the region chart (the chart sits on the far side
    of the orientation-reversing antipodal map); it is a translation
    exactly when the sum is 2 pi."""
    deficit = {cp.vid: cp.deficit for cp in octa.cone_points}
    region = octa_regions.regions[0]
    k = len(region.isometries)
    for i in range(k):
        for j in range(i + 1, k):
            comp = region.isometries[j].compose(
                region.isometries[i].inverse())
            ang = comp.rotation_angle()
            want = sum(deficit[region.cone_order[n]]
                       for n in range(i + 1, j + 1))
            gap = abs((-ang - want) % TWO_PI)
            gap = min(gap, TWO_PI - gap)
            assert gap < 1e-9
            if abs(want - TWO_PI) < 1e-12:
                # rotation part trivial, translation part nonzero
                assert abs(math.sin(ang)) < 1e-9
                assert math.hypot(*comp.translation()) > 1e-6


def test_perturbed_region_isometries(perturbed_regions, perturbed):
    for region in perturbed_regions.regions:
        assert region.fit_residual < 1e-8
        for iso in region.isometries:
            assert iso.det() == pytest.approx(-1.0, abs=1e-8)


@pytest.mark.parametrize("name", ["octa", "perturbed"])
def test_region_star_polygon_is_the_anchored_unfolding(name, request):
    """At points off the fit samples, the star polygon a region builds from
    its isometries is the exact unfolding moved into the region chart:
    source images, cone images, cut lengths, index order and a CCW
    boundary."""
    s = request.getfixturevalue(name)
    dec = request.getfixturevalue(f"{name}_regions")
    tol = 1e-11 * s.diameter
    checked = 0
    for region in dec.regions:
        cen = np.mean(region.polygon, axis=0)
        for v in region.polygon:
            xy = tuple(float(c) for c in cen + 0.45 * (np.array(v) - cen))
            sp = region.chart_inverse(xy)
            u = unfold(s, s.antipode(sp))
            assert [c.vid for c in u.cuts] == region.cone_order
            _, t_chart = u.dev_point(sp)
            anchor = _cell_transform(region, sp).compose(t_chart.inverse())
            poly = region.star_polygon(s, xy)
            assert poly.n_images == u.n_images
            for n in range(u.n_images):
                assert math.dist(anchor.apply(u.source_images[n]),
                                 poly.source_images[n]) < tol
                assert math.dist(anchor.apply(u.cone_images[n]),
                                 poly.cone_images[n]) < tol
                assert abs(math.dist(poly.source_images[n],
                                     poly.cone_images[n])
                           - u.cuts[n].length) < tol
            assert polygon_signed_area(poly.polygon) == pytest.approx(
                u.signed_area, abs=tol)
            assert u.signed_area > 0
            checked += 1
    assert checked >= 3 * len(dec.regions)
