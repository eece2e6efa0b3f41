import pytest

from farmap.dynamics import (certify_limit, iterate, orbit_csv_rows,
                             periodicity_scan, synthetic_cycle_orbit)
from farmap.errors import NotConverged
from farmap.farthest import evaluate_f
from farmap.geodesics import distance
from farmap.surface import SurfacePoint


def test_orbits_converge_with_monotone_radii(octa, fresh_rng):
    r = fresh_rng(0)
    for _ in range(12):
        orb = iterate(octa, octa.random_point(r), max_steps=500)
        assert orb.status == "converged"
        assert orb.converged_step <= 500
        for i in range(len(orb.radii) - 1):
            assert orb.radii[i + 1] >= orb.radii[i] - octa.eps_tie


def test_fixed_point_restart(octa, fresh_rng):
    orb = iterate(octa, octa.random_point(fresh_rng(1)), max_steps=500)
    lim = orb.limit
    again = iterate(octa, lim, max_steps=50)
    assert again.status == "converged"
    assert again.converged_step <= 3
    assert distance(octa, again.limit, lim) < 10 * octa.eps_tie


def test_certificates(octa, perturbed, fresh_rng):
    r = fresh_rng(2)
    for s in (octa, perturbed):
        for _ in range(5):
            orb = iterate(s, s.random_point(r), max_steps=500)
            cert = certify_limit(s, orb)
            assert cert.fixed_point_residual < 1e-6 * s.diameter
            if not cert.on_cone_point:
                assert cert.minimizer_count >= 4
                assert cert.minimizer_count % 2 == 0
            # L-consistency: d at the limit equals the radius tail
            assert cert.radius == pytest.approx(orb.radii[-1],
                                                abs=1e-6 * s.diameter)


def test_certify_requires_convergence(octa, fresh_rng):
    orb = iterate(octa, octa.random_point(fresh_rng(3)), max_steps=2)
    if orb.status == "converged":
        pytest.skip("orbit converged within two steps")
    with pytest.raises(NotConverged):
        certify_limit(octa, orb)


def test_no_periodic_points(octa, fresh_rng):
    r = fresh_rng(4)
    for _ in range(10):
        orb = iterate(octa, octa.random_point(r), max_steps=500)
        assert periodicity_scan(octa, orb) == []


def test_synthetic_cycle_detected(octa, fresh_rng):
    r = fresh_rng(5)
    p, q = octa.random_point(r), octa.random_point(r)
    fake = synthetic_cycle_orbit(octa, p, q, repeats=8)
    hits = periodicity_scan(octa, fake)
    assert hits
    assert (0, 2) in hits
    assert all(n % 2 == 0 for _, n in hits)  # multiples of the true period


def test_f_squared_consequence(octa, fresh_rng):
    """Where an orbit has settled, the antipode of the limit is itself a
    farthest point of the limit (two-step return forces the antipode)."""
    orb = iterate(octa, octa.random_point(fresh_rng(6)), max_steps=500)
    lim = orb.limit
    res = evaluate_f(octa, lim)
    anti = octa.antipode(lim)
    # p in f(p) means phi(p) in F(p): dist(phi(lim), F(lim)) ~ 0, where
    # F(lim) are the farthest points from lim = f-points of phi(lim)
    res_rev = evaluate_f(octa, anti)
    gap = min(distance(octa, anti, fp.point) for fp in res_rev.points)
    assert gap < 1e-5 * octa.diameter


def test_orbit_csv_rows(octa, fresh_rng):
    orb = iterate(octa, octa.random_point(fresh_rng(7)), max_steps=500)
    rows = orbit_csv_rows(orb)
    assert len(rows) == len(orb.points)
    assert rows[0][0] == 0


def test_selection_is_deterministic(octa, fresh_rng):
    p = octa.random_point(fresh_rng(8))
    o1 = iterate(octa, p, max_steps=60)
    o2 = iterate(octa, p, max_steps=60)
    assert len(o1.points) == len(o2.points)
    for a, b in zip(o1.points, o2.points):
        assert a.key() == b.key()


@pytest.mark.parametrize("surface,start", [
    ("perturbed", SurfacePoint(1, 0.592642152783583, 0.71957447158697)),
    ("perturbed2", SurfacePoint(6, 0.62495, 0.62704)),
], ids=["perturbed-octahedron:seed=1", "perturbed-octahedron:seed=2"])
def test_orbit_through_a_source_next_to_a_cone_point_converges(
        request, surface, start):
    """On these orbits a step's source lies within 3e-7 of a cone point.
    Two other cone points each have two paths, one around either side of
    it, whose lengths differ by less than eps_tie; the cut runs along the
    shorter one, so the cuts do not cross and the unfolding closes."""
    s = request.getfixturevalue(surface)
    orb = iterate(s, start, max_steps=500)
    assert orb.status == "converged"
    cert = certify_limit(s, orb)
    assert cert.fixed_point_residual < s.eps_fix
