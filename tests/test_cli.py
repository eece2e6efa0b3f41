import hashlib
import json
import math
from pathlib import Path

import pytest

from farmap import presets
from farmap.cli import RunConfig, main
from farmap.farthest import evaluate_f
from farmap.geodesics import distance
from farmap.surface import SurfacePoint

GOLDEN = Path(__file__).parent / "golden"


def test_validate_octahedron(tmp_path):
    rc = main(["validate", "--preset", "regular-octahedron",
               "--out", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "validate.json").read_text())
    assert report["ok"]
    assert abs(report["deficit_sum"] - 4 * math.pi) < 1e-7
    assert report["n_cone_points"] == 6


def test_validate_rejects_asymmetric_input(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"vertices": [
        [1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0],
        [0, 0, 1], [0, 0.3, -1]]}))
    rc = main(["validate", "--input", str(bad), "--out", str(tmp_path)])
    assert rc == 2


def test_missing_input_is_usage_error(tmp_path):
    rc = main(["validate", "--out", str(tmp_path)])
    assert rc == 1


def test_non_object_json_is_usage_error(tmp_path):
    bad = tmp_path / "list.json"
    bad.write_text(json.dumps([1, 2, 3]))
    rc = main(["validate", "--input", str(bad), "--out", str(tmp_path)])
    assert rc == 1


def test_net_without_gluings_is_usage_error(tmp_path, octa):
    spec = octa.to_net_spec()
    del spec["gluings"]
    net = tmp_path / "net.json"
    net.write_text(json.dumps(spec))
    rc = main(["validate", "--input", str(net), "--out", str(tmp_path)])
    assert rc == 1


@pytest.mark.parametrize("face", [
    [[0.0, 0.0], [1.0, 0.0]],
    [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
    [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
    [[0.0], [1.0], [0.0]],
])
def test_net_face_without_three_2d_corners_is_usage_error(tmp_path, octa,
                                                          face):
    spec = octa.to_net_spec()
    spec["faces"][0] = face
    net = tmp_path / "net.json"
    net.write_text(json.dumps(spec))
    rc = main(["validate", "--input", str(net), "--out", str(tmp_path)])
    assert rc == 1


def test_non_numeric_vertices_is_usage_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"vertices": [["a", 0, 0], [1, "b", 0]]}))
    rc = main(["validate", "--input", str(bad), "--out", str(tmp_path)])
    assert rc == 1


@pytest.mark.parametrize("vertices", [
    [[1, 0], [-1, 0], [0, 1], [0, -1]],
    5,
])
def test_vertices_not_3d_points_is_usage_error(tmp_path, vertices):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"vertices": vertices}))
    rc = main(["validate", "--input", str(bad), "--out", str(tmp_path)])
    assert rc == 1


def test_vertices_file_roundtrip(tmp_path):
    src = tmp_path / "octa.json"
    src.write_text(json.dumps({"vertices": [
        [1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0],
        [0, 0, 1], [0, 0, -1]]}))
    rc = main(["validate", "--input", str(src), "--out", str(tmp_path)])
    assert rc == 0


def test_net_file_loading(tmp_path, octa):
    net = tmp_path / "net.json"
    net.write_text(json.dumps(octa.to_net_spec()))
    rc = main(["validate", "--input", str(net), "--out", str(tmp_path)])
    assert rc == 0


def test_unfold_golden_snapshot(tmp_path):
    rc = main(["unfold", "--preset", "regular-octahedron",
               "--point", "0,0.62,0.35", "--out", str(tmp_path)])
    assert rc == 0
    got = (tmp_path / "star_unfolding.svg").read_bytes()
    want = (GOLDEN / "star_unfolding_octahedron.svg").read_bytes()
    assert got == want


def test_unfold_cube_16gon(tmp_path):
    rc = main(["unfold", "--preset", "cube", "--seed", "4",
               "--out", str(tmp_path)])
    assert rc == 0
    svg = (tmp_path / "star_unfolding.svg").read_text()
    assert svg.count("phi") == 8


def test_orbit_command_and_determinism(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    for out in (out1, out2):
        rc = main(["orbit", "--preset", "regular-octahedron",
                   "--orbits", "4", "--seed", "11", "--out", str(out)])
        assert rc == 0
    assert (out1 / "orbits.csv").read_bytes() == \
        (out2 / "orbits.csv").read_bytes()
    assert (out1 / "orbit_certificates.json").read_bytes() == \
        (out2 / "orbit_certificates.json").read_bytes()
    rows = (out1 / "orbits.csv").read_text().strip().splitlines()
    assert rows[0].startswith("orbit,steps,status")
    assert len(rows) == 5
    for row in rows[1:]:
        assert ",converged," in row
    # the per-step log has monotone radii
    log = (out1 / "orbit_log.csv").read_text().strip().splitlines()[1:]
    by_orbit = {}
    for line in log:
        parts = line.split(",")
        if parts[5]:
            by_orbit.setdefault(parts[0], []).append(float(parts[5]))
    for radii in by_orbit.values():
        for a, b in zip(radii, radii[1:]):
            assert b >= a - 1e-6


@pytest.mark.parametrize("preset,want", [
    ("perturbed-octahedron:seed=1",
     "0374c1e148bdceaa003a93696393dff3957f0a7ee212d40af691a657be4a9282"),
    ("antiprism:h=0.9",
     "649449e43dc88ac4a6a2d21bfd1e4463937be5914dc5a85347c5138a0aaaeee9"),
    ("cube",
     "fdf9f85958d2ad8dfc3c382ba57f006120a110d3bac7be228e236acb0c26e384"),
    ("regular-octahedron",
     "e4030997d1ad4b712c41dddfe84ea6166879c85d3b94962e54e8674e0bb770b6"),
], ids=["perturbed-octahedron:seed=1", "antiprism:h=0.9", "cube",
        "regular-octahedron"])
def test_curves_output_digest_is_pinned(tmp_path, preset, want):
    """curves.json, pinned byte for byte: a change to curve tracing that
    moves any float or decision shows here. The antiprism has two-cell
    regions, whose fit samples lie on a face edge, and regions numbered
    by their smallest (face, cell) member."""
    rc = main(["curves", "--preset", preset,
               "--res", "24", "--seed", "1", "--out", str(tmp_path)])
    assert rc == 0
    digest = hashlib.sha256((tmp_path / "curves.json").read_bytes())
    assert digest.hexdigest() == want


@pytest.mark.parametrize("preset, want", [
    ("cube", {
        "orbits.csv": "dea79fc80728527a4659306635d0ed3b"
                      "6dae0727cc88e5946a2842f37819dfef",
        "orbit_certificates.json": "64537692c61d435c29cebd8d7bebf15a"
                                   "62214182dded1b279af5c2eca164c2ac",
        "orbit_log.csv": "1fbe3fa3f5b9281085c709036f1e38ab"
                         "d7fcce0e7946c164b0a0c53686acdd23",
    }),
    ("regular-octahedron", {
        "orbits.csv": "3a623cc5e3562eddccb8e2f05c979ebf"
                      "f24a4a0c56949bca532d9749651776f3",
        "orbit_certificates.json": "145953c810c63ce0c6f2b8fafae15a11"
                                   "fd93afbd81d79f0da642e1cb8493ed4c",
        "orbit_log.csv": "3378e4a27cafc7243a12bb8fe2069d2c"
                         "64071e4be37d3d7075230d995562a380",
    }),
    ("perturbed-octahedron:seed=1", {
        "orbits.csv": "0d44bcddc5e3ae4eedbf679b75f3efcd"
                      "7d7e60db7ff30566af87667296f8d519",
        "orbit_certificates.json": "9d2e41cf162057da3e065467dbb979f2"
                                   "6265a202fc0e7fbc51612a0de146a231",
        "orbit_log.csv": "023237a565074eee7f251ea30dbd040b"
                         "9590b1c325b1e5a81029b0251588b918",
    }),
], ids=["cube", "regular-octahedron", "perturbed-octahedron:seed=1"])
def test_orbit_output_digests_are_pinned(tmp_path, preset, want):
    """The three orbit files of four seeded orbits, pinned byte for byte."""
    rc = main(["orbit", "--preset", preset, "--orbits", "4", "--seed", "0",
               "--out", str(tmp_path)])
    assert rc == 0
    for name, digest in want.items():
        assert hashlib.sha256(
            (tmp_path / name).read_bytes()).hexdigest() == digest, name


def test_cube_source_next_to_an_edge_folds_into_its_faces(tmp_path, cube):
    """On this cube start the source, the antipode of a limit, lies within
    1e-9 x chart_scale of an edge of face 5, so rays from it start on that
    edge. They may not leave through it: the orbits certify, and every
    farthest point of each limit lies inside its face at the limit's
    radius."""
    rc = main(["orbit", "--preset", "cube", "--orbits", "2",
               "--seed", "2946223120", "--out", str(tmp_path)])
    assert rc == 0
    certs = json.loads((tmp_path / "orbit_certificates.json").read_text())
    assert max(c["fixed_point_residual"] for c in certs) < cube.eps_fix
    for c in certs:
        res = evaluate_f(cube, SurfacePoint(*c["limit"]))
        for fp in res.points:
            assert cube.contains(fp.point)
            assert distance(cube, res.source, fp.point) == pytest.approx(
                res.radius, abs=cube.eps_tie)


def test_run_config_tolerances_come_from_the_surface(tmp_path):
    s = presets.make("perturbed-octahedron:seed=1")
    cfg = RunConfig(surface=s, out=str(tmp_path))
    assert cfg.tol_geom == s.eps_geom
    assert cfg.tol_fix == s.eps_fix
    assert cfg.tol_conv == s.eps_conv
    assert cfg.tol_curve == s.eps_curve


def test_default_tolerance_flags_change_no_output(tmp_path):
    """Each --tol-* flag set to the repr of its default writes the same
    files as a run without the flags."""
    s = presets.make("regular-octahedron")
    base = ["orbit", "--preset", "regular-octahedron", "--orbits", "2",
            "--seed", "0"]
    flags = []
    for name in ("geom", "fix", "conv", "curve"):
        flags += [f"--tol-{name}", repr(getattr(s, f"eps_{name}"))]
    assert main(base + ["--out", str(tmp_path / "a")]) == 0
    assert main(base + flags + ["--out", str(tmp_path / "b")]) == 0
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


def test_report_selftest_cycle_flips_theorem1(tmp_path):
    rc = main(["report", "--preset", "regular-octahedron", "--orbits", "2",
               "--seed", "3", "--selftest-inject-cycle",
               "--out", str(tmp_path)])
    assert rc == 2
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["theorem1_ok"] is False
    assert report["theorem3_ok"] is True


def test_report_json_roundtrip(tmp_path):
    rc = main(["report", "--preset", "regular-octahedron", "--orbits", "2",
               "--seed", "5", "--out", str(tmp_path)])
    assert rc == 0
    text = (tmp_path / "report.json").read_text()
    report = json.loads(text)
    assert json.loads(json.dumps(report)) == report
    for k in (1, 2, 3, 4):
        assert report[f"theorem{k}_ok"] is True
