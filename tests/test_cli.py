import json
import math
from pathlib import Path

import pytest

from farmap.cli import main

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
