"""Acceptance suite: every criterion runs at its stated tolerance and
prints one PASS/FAIL line."""

import json
import math
import time

import numpy as np
import pytest

from farmap import presets
from farmap.cli import main as cli_main
from farmap.curves import (LIMIT, MULTI_VALUED, NEITHER,
                           check_rational_representation, hyperbola_form,
                           trace_curves)
from farmap.cutlocus import build_regions, region_isometries
from farmap.dynamics import (certify_limit, iterate, periodicity_scan,
                             synthetic_cycle_orbit)
from farmap.farthest import evaluate_f, good_triples
from farmap.geodesics import distance, lunes, minimizers
from farmap.geom import polygon_is_simple
from farmap.oracle import oracle_distance, oracle_distance_field
from farmap.star_unfold import unfold

TWO_PI = 2.0 * math.pi


def _report(n, ok, detail):
    print(f"\nACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n}: {detail}"


@pytest.fixture(scope="module")
def surfaces():
    out = {
        "regular-octahedron": presets.regular_octahedron(),
        "cube": presets.cube(),
        "perturbed-1": presets.perturbed_octahedron(1),
        "perturbed-2": presets.perturbed_octahedron(2),
        "antiprism-0.9": presets.antiprism(0.9),
        "antiprism-reg": presets.antiprism(math.sqrt(2.0)),
        "antiprism-1.9": presets.antiprism(1.9),
    }
    for s in out.values():
        s.diameter
    return out


@pytest.fixture(scope="module")
def orbit_batch(surfaces):
    """>= 1000 orbits across presets, with limit certificates."""
    plan = (("regular-octahedron", 400, 101),
            ("perturbed-1", 300, 202),
            ("perturbed-2", 300, 303))
    batch = []
    for name, count, seed in plan:
        s = surfaces[name]
        rng = np.random.default_rng(seed)
        for _ in range(count):
            orb = iterate(s, s.random_point(rng), max_steps=500)
            cert = certify_limit(s, orb) if orb.status == "converged" \
                else None
            batch.append((name, s, orb, cert))
    return batch


@pytest.fixture(scope="module")
def region_data(surfaces):
    out = {}
    for name in ("regular-octahedron", "perturbed-1", "perturbed-2"):
        s = surfaces[name]
        dec = build_regions(s)
        for r in dec.regions:
            region_isometries(s, r)
        out[name] = dec
    return out


def test_acceptance_1_gauss_bonnet(surfaces):
    t0 = time.time()
    worst = 0.0
    for name, s in surfaces.items():
        worst = max(worst, abs(sum(s.deficits()) - 4 * math.pi))
    elapsed = time.time() - t0
    _report(1, worst < 1e-7 and elapsed < 1.0,
            f"worst |sum deficits - 4pi| = {worst:.2e}, {elapsed:.2f}s")


def test_acceptance_2_oracle_equivalence(surfaces):
    t0 = time.time()
    worst_pair = 0.0
    worst_cell = 0.0
    for name in ("regular-octahedron", "perturbed-1", "perturbed-2"):
        s = surfaces[name]
        rng = np.random.default_rng(7)
        # distance agreement on 50 random pairs
        for _ in range(50):
            p, q = s.random_point(rng), s.random_point(rng)
            d_exact = distance(s, p, q)
            d_oracle = oracle_distance(s, p, q, 6)
            gap = d_oracle - d_exact
            assert gap > -1e-9, "oracle undercut the exact distance"
            worst_pair = max(worst_pair, gap)
        # farthest point within one oracle mesh cell of the argmax; the
        # candidate tie width matches the oracle's own resolving power
        # (an argmax cannot discriminate branches closer than its noise)
        mesh = oracle_distance_field(s, s.vertex_point(0), 6).mesh_edge
        for _ in range(50):
            p = s.random_point(rng)
            res = evaluate_f(s, p, eps_tie=2 * mesh)
            fld = oracle_distance_field(s, res.source, 6)
            amax = fld.argmax_point()
            gap = min(distance(s, amax, fp.point) for fp in res.points)
            worst_cell = max(worst_cell, gap / fld.mesh_edge)
        assert worst_pair < 2 * mesh
    elapsed = time.time() - t0
    _report(2, worst_cell <= 2.0 and elapsed < 120.0,
            f"worst pair gap {worst_pair:.2e}, worst argmax offset "
            f"{worst_cell:.2f} cells, {elapsed:.0f}s")


def test_acceptance_3_star_unfolding_embedding(surfaces):
    t0 = time.time()
    plan = ("regular-octahedron", "cube", "perturbed-1", "antiprism-0.9")
    count = 0
    for name in plan:
        s = surfaces[name]
        rng = np.random.default_rng(11)
        n = s.n_cone_points
        sources = [s.random_point(rng) for _ in range(46)]
        sources += [s.vertex_point(v) for v in range(min(4, n))]
        for p in sources:
            u = unfold(s, p)
            kind, _ = s.classify(p)
            # 4N-gon generically, 2(2N-1)-gon for a cone-point source
            # (here n = 2N is the cone point count)
            want = 2 * n if kind != "vertex" else 2 * (n - 1)
            assert len(u.vertices) == want
            assert polygon_is_simple(u.vertices, 1e-9 * s.chart_scale)
            k = u.n_images
            for m in range(k):
                assert abs(math.dist(u.source_images[m], u.cone_images[m])
                           - u.cuts[m].length) < s.eps_geom
                assert abs(math.dist(u.source_images[m],
                                     u.cone_images[(m + 1) % k])
                           - u.cuts[(m + 1) % k].length) < s.eps_geom
            count += 1
    elapsed = time.time() - t0
    _report(3, count == 200 and elapsed < 60.0,
            f"{count} sources, all polygons simple, {elapsed:.0f}s")


def test_acceptance_4_good_triple_bound(surfaces):
    violations = 0
    checked = 0
    for name in ("regular-octahedron", "cube", "perturbed-1"):
        s = surfaces[name]
        rng = np.random.default_rng(13)
        bound = s.n_cone_points - 2
        for _ in range(40):
            u = unfold(s, s.random_point(rng))
            if len(good_triples(u)) > bound:
                violations += 1
            checked += 1
    _report(4, violations == 0,
            f"{checked} sources, 0 violations of the 2N-2 bound")


def test_acceptance_5_no_periodic_points(orbit_batch):
    hits = 0
    for name, s, orb, _ in orbit_batch:
        hits += len(periodicity_scan(s, orb, max_period=20))
    # detector sensitivity: the injected fixture must be caught
    s = orbit_batch[0][1]
    rng = np.random.default_rng(999)
    fake = synthetic_cycle_orbit(s, s.random_point(rng),
                                 s.random_point(rng))
    detected = len(periodicity_scan(s, fake, max_period=20)) > 0
    _report(5, hits == 0 and detected,
            f"{len(orbit_batch)} orbits, {hits} periodic hits, "
            f"injected cycle detected={detected}")


def test_acceptance_6_convergence(orbit_batch):
    n_conv = 0
    mono_ok = True
    for name, s, orb, _ in orbit_batch:
        if orb.status == "converged" and orb.converged_step <= 500:
            n_conv += 1
        for i in range(len(orb.radii) - 1):
            if orb.radii[i + 1] < orb.radii[i] - s.eps_tie:
                mono_ok = False
    _report(6, n_conv == len(orbit_batch) and mono_ok,
            f"{n_conv}/{len(orbit_batch)} converged within 500 steps, "
            f"radii monotone={mono_ok}")


def test_acceptance_7_limit_set_is_fixed_set(orbit_batch):
    worst = 0.0
    count_ok = True
    for name, s, orb, cert in orbit_batch:
        assert cert is not None
        worst = max(worst, cert.fixed_point_residual / s.diameter)
        if not cert.on_cone_point:
            if cert.minimizer_count < 4 or cert.minimizer_count % 2 != 0:
                count_ok = False
    _report(7, worst < 1e-6 and count_ok,
            f"worst residual {worst:.2e} x diam, minimizer counts even "
            f">= 4: {count_ok}")


def test_acceptance_8_hyperbola_residuals(orbit_batch, region_data,
                                          surfaces):
    worst = 0.0
    octa_all_degenerate = True
    perturbed_nondegen = 0
    for name, s, orb, cert in orbit_batch:
        dec = region_data[name]
        region, cell = dec.locate(cert.limit)
        res = evaluate_f(s, cert.limit)
        hf = hyperbola_form(s, region, cell.chart.apply(cert.limit.uv),
                            level=res.radius)
        worst = max(worst, hf.residual / s.diameter ** 2)
        if name == "regular-octahedron" and not hf.degenerate:
            octa_all_degenerate = False
        if name.startswith("perturbed") and not hf.degenerate:
            if abs(abs(hf.r1) - abs(hf.r2)) > s.eps_geom:
                perturbed_nondegen += 1
    ok = worst < 1e-6 and octa_all_degenerate and perturbed_nondegen >= 1
    _report(8, ok,
            f"worst residual {worst:.2e} x diam^2, octahedron degenerate="
            f"{octa_all_degenerate}, perturbed non-degenerate arcs="
            f"{perturbed_nondegen}")


def test_acceptance_9a_figure_classes_and_stability(tmp_path):
    outs = []
    for k in range(2):
        out = tmp_path / f"run{k}"
        rc = cli_main(["curves", "--preset", "regular-octahedron",
                       "--res", "96", "--seed", "1", "--out", str(out)])
        assert rc == 0
        outs.append(out)
    svg1 = (outs[0] / "curves.svg").read_bytes()
    svg2 = (outs[1] / "curves.svg").read_bytes()
    stable = svg1 == svg2
    data = json.loads((outs[0] / "curves.json").read_text())
    labels = {c["label"] for c in data["curves"]}
    ok = stable and labels == {MULTI_VALUED, LIMIT, NEITHER}
    _report("9a", ok,
            f"label classes {sorted(labels)}, golden SVG byte-stable="
            f"{stable}")


def test_acceptance_9b_antiprism_census(surfaces):
    census_ok = True
    trees_ok = True
    for name in ("antiprism-0.9", "antiprism-reg", "antiprism-1.9"):
        s = surfaces[name]
        dec = build_regions(s)
        shapes = {len(r.polygon.vertices) for r in dec.regions}
        for tree in dec.trees:
            if not tree.is_tree():
                trees_ok = False
            span = {s.classify(sp)[1] for sp in tree.node_surface
                    if s.classify(sp)[0] == "vertex"}
            if span != set(range(6)) - {tree.vid}:
                trees_ok = False
        if name != "antiprism-reg" and not {3, 4, 6} <= shapes:
            census_ok = False
    _report("9b", census_ok and trees_ok,
            "cut loci are trees spanning the other cone points; region "
            "census includes triangles, quadrilaterals, hexagons at "
            "non-regular heights")


def test_acceptance_9c_antiprism_tree_leaf_count(surfaces):
    """Each cut-locus tree has 2N-2 leaves: the cone points other than
    the source C and its antipode phi(C).

    The antipodal map sends a minimizer g from C to phi(C) to the
    reversed path t -> phi(g(L - t)), again a minimizer from C to phi(C)
    but with midpoint phi(g(L/2)) != g(L/2), so minimizers to the
    antipode come in pairs. A cone point's degree in the tree equals its
    number of minimizers from the source, so phi(C) is an interior node
    of even degree >= 2. Every other cone point is a leaf with exactly
    one minimizer, and no leaf lies off a cone point. Degrees are
    cross-checked against the geodesic engine's minimizer count.
    """
    ok = True
    observed = {}
    for name in ("antiprism-0.9", "antiprism-reg", "antiprism-1.9"):
        s = surfaces[name]
        cones = {cp.vid for cp in s.cone_points}
        dec = build_regions(s)
        observed[name] = []
        for t in dec.trees:
            src = s.vertex_point(t.vid)
            anti = s.cone_points[s.vid_to_cone[t.vid]].antipode
            node_vids = {}
            for i, sp in enumerate(t.node_surface):
                kind, vid = s.classify(sp)
                if kind == "vertex":
                    node_vids[i] = vid
            leaves = [node_vids.get(i) for i in t.leaves()]
            anti_deg = [t.degree(i) for i, v in node_vids.items()
                        if v == anti]
            n_anti = len(minimizers(s, src, s.vertex_point(anti)))
            leaf_mins = [len(minimizers(s, src, s.vertex_point(v)))
                         for v in leaves if v is not None]
            ok = ok and (
                None not in leaves
                and len(leaves) == len(set(leaves)) == s.n_cone_points - 2
                and set(leaves) == cones - {t.vid, anti}
                and anti_deg == [n_anti]
                and n_anti >= 2 and n_anti % 2 == 0
                and leaf_mins == [1] * len(leaves))
            observed[name].append(
                (t.vid, sorted(leaves, key=str), anti, anti_deg, n_anti,
                 leaf_mins))
    _report("9c", ok,
            "per tree (source, leaf cone points, antipode, antipode "
            f"degree, antipode minimizers, leaf minimizers): {observed}")


def test_acceptance_10_lune_equation(surfaces):
    checked = 0
    worst = 0.0
    alpha_q_ok = True
    for name in ("regular-octahedron", "perturbed-1", "perturbed-2"):
        s = surfaces[name]
        deficit = {cp.vid: cp.deficit for cp in s.cone_points}
        rng = np.random.default_rng(17)
        n_pairs = 34 if name == "regular-octahedron" else 33
        for _ in range(n_pairs):
            p = s.random_point(rng)
            # q in F(p): farthest from p, i.e. the f-image of phi(p)
            res = evaluate_f(s, s.antipode(p))
            q = res.points[0].point
            ls = lunes(s, p, q)
            for l in ls:
                star = sum(deficit[v] for v in l.cone_vids)
                worst = max(worst, abs(l.alpha_p + l.alpha_q - star))
                if l.alpha_q >= math.pi:
                    alpha_q_ok = False
            checked += 1
    _report(10, worst < 1e-7 and alpha_q_ok and checked >= 100,
            f"{checked} farthest pairs, worst lune residual {worst:.2e}, "
            f"alpha_q < pi everywhere: {alpha_q_ok}")


def test_acceptance_11_rational_representation(surfaces, region_data):
    s = surfaces["regular-octahedron"]
    dec = region_data["regular-octahedron"]
    worst = 0.0
    comps = 0
    checked = 0
    for region in dec.regions:
        curves = trace_curves(s, region, resolution=96)
        w, n, nc = check_rational_representation(s, region, curves,
                                                 n_samples=100)
        worst = max(worst, w)
        comps += nc
        checked += n
    _report(11, worst < 100 * s.eps_geom and comps >= 16,
            f"{checked} samples across {comps} components, worst formula "
            f"gap {worst:.2e} (bound {100 * s.eps_geom:.2e})")
