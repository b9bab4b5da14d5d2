import json
import math

import numpy as np
import pytest

from gutkin.cli import main


@pytest.fixture()
def table5(tmp_path):
    path = tmp_path / "t5.json"
    assert main(["table", "--n", "5", "--a0", "1", "--an", "0.05",
                 "--out", str(path)]) == 0
    return path


@pytest.fixture()
def spheroid_spec(tmp_path):
    path = tmp_path / "e.json"
    path.write_text(json.dumps({"d": 3, "A": [4, 0, 0, 0, 1, 0, 0, 0, 1]}))
    return path


class TestRoots:
    def test_n4(self, capsys):
        assert main(["roots", "--n", "4"]) == 0
        out = capsys.readouterr().out
        assert float(out.strip()) == pytest.approx(math.atan(math.sqrt(5)), abs=1e-10)

    def test_n5_json(self, capsys):
        assert main(["--json", "roots", "--n", "5"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["roots"] == pytest.approx([math.atan(math.sqrt(5 / 3))], abs=1e-10)

    def test_n3_invalid(self):
        assert main(["roots", "--n", "3"]) == 2


class TestTable:
    def test_writes_delta(self, table5):
        doc = json.loads(table5.read_text())
        assert doc["gutkin"]["delta"] == pytest.approx(0.91174, abs=1e-5)
        assert doc["a0"] == 1.0

    def test_nonconvex(self, tmp_path):
        assert main(["table", "--n", "5", "--a0", "1", "--an", "2",
                     "--out", str(tmp_path / "bad.json")]) == 2

    def test_roundtrip_bitwise(self, table5, tmp_path):
        from gutkin.support_geometry import load_table, save_table
        curve, meta = load_table(table5)
        out2 = tmp_path / "copy.json"
        save_table(out2, curve)
        doc1 = json.loads(table5.read_text())
        doc2 = json.loads(out2.read_text())
        assert doc1["a0"] == doc2["a0"]
        assert doc1["harmonics"] == doc2["harmonics"]


class TestVerify:
    def test_at_own_delta(self, table5, capsys):
        assert main(["--json", "verify", "--table", str(table5)]) == 0
        assert json.loads(capsys.readouterr().out)["residual"] < 1e-8

    def test_off_delta(self, table5):
        doc = json.loads(table5.read_text())
        delta = doc["gutkin"]["delta"] + 0.1
        assert main(["verify", "--table", str(table5),
                     "--delta", str(delta)]) == 1

    @pytest.mark.parametrize("delta", ["0.8", "0.02"])
    def test_circle(self, tmp_path, delta):
        path = tmp_path / "circle.json"
        path.write_text(json.dumps({"a0": 1.0, "harmonics": [], "gutkin": None}))
        assert main(["verify", "--table", str(path), "--delta", delta]) == 0

    def test_no_delta_without_metadata(self, tmp_path, capsys):
        path = tmp_path / "circle.json"
        path.write_text(json.dumps({"a0": 1.0, "harmonics": [], "gutkin": None}))
        assert main(["verify", "--table", str(path)]) == 2
        assert "no delta given" in capsys.readouterr().err


    @pytest.mark.parametrize("doc", [{"harmonics": []}, {"a0": 1.0, "harmonics": [{"cos": 0.1}]}])
    def test_malformed_table(self, tmp_path, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", "--table", str(path), "--delta", "0.8"]) == 2


class TestOrbit:
    def test_circle_rows(self, tmp_path):
        path = tmp_path / "circle.json"
        path.write_text(json.dumps({"a0": 1.0, "harmonics": [], "gutkin": None}))
        out = tmp_path / "orbit.csv"
        assert main(["orbit", "--table", str(path), "--p", "0.5", "--phi", "0",
                     "--steps", "6", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "step,p,phi,psi_back,psi_fwd,angle_back,angle_fwd"
        assert len(lines) == 7
        for row in lines[1:]:
            vals = row.split(",")
            assert float(vals[1]) == pytest.approx(0.5, abs=1e-10)
            assert float(vals[5]) == pytest.approx(math.pi / 3, abs=1e-10)

    def test_rows_match_reflect_geometric(self, table5, tmp_path):
        from gutkin.billiard2d import OrientedLine2D, reflect_geometric
        from gutkin.support_geometry import load_table
        out = tmp_path / "orbit.csv"
        assert main(["orbit", "--table", str(table5), "--p", "0.31", "--phi", "0.9",
                     "--steps", "8", "--out", str(out)]) == 0
        rows = [r.split(",") for r in out.read_text().splitlines()[1:]]
        curve, _ = load_table(table5)
        line = OrientedLine2D(0.31, 0.9)
        want = []
        for step in range(8):
            nxt, chord = reflect_geometric(curve, line)
            want.append([str(step)] + [f"{v:.17g}" for v in (
                line.p, line.phi, chord.psi_back[0], chord.psi_fwd[0],
                chord.angle_back[0], chord.angle_fwd[0])])
            line = nxt
        assert rows == want

    @pytest.mark.parametrize("p, message", [
        ("1.5", "error: line (p=1.5, phi=0.3) misses the table\n"),
        (repr(math.cos(5e-7)), "error: near-tangent chord\n"),
    ])
    def test_failed_orbit(self, tmp_path, capsys, p, message):
        path = tmp_path / "circle.json"
        path.write_text(json.dumps({"a0": 1.0, "harmonics": [], "gutkin": None}))
        assert main(["orbit", "--table", str(path), "--p", p, "--phi", "0.3",
                     "--steps", "4", "--out", str(tmp_path / "o.csv")]) == 2
        assert capsys.readouterr().err == message

    def test_out_is_directory(self, table5, tmp_path, capsys):
        assert main(["orbit", "--table", str(table5), "--p", "0.5", "--phi", "0",
                     "--steps", "3", "--out", str(tmp_path)]) == 2
        assert "is a directory" in capsys.readouterr().err


class TestPhasePortrait:
    def test_deterministic_outputs(self, table5, tmp_path):
        args = ["phase-portrait", "--table", str(table5), "--p-grid", "3",
                "--phi-grid", "2", "--steps", "10"]
        csv1, svg1 = tmp_path / "a.csv", tmp_path / "a.svg"
        csv2, svg2 = tmp_path / "b.csv", tmp_path / "b.svg"
        assert main(args + ["--out", str(csv1), "--svg", str(svg1)]) == 0
        assert main(args + ["--out", str(csv2), "--svg", str(svg2)]) == 0
        assert csv1.read_bytes() == csv2.read_bytes()
        assert svg1.read_bytes() == svg2.read_bytes()

    def test_rows_match_scalar_orbits(self, table5, tmp_path):
        from gutkin.billiard2d import OrientedLine2D, reflect_geometric
        from gutkin.support_geometry import load_table
        out = tmp_path / "pp.csv"
        assert main(["phase-portrait", "--table", str(table5), "--p-grid", "3",
                     "--phi-grid", "2", "--steps", "5", "--out", str(out)]) == 0
        rows = [r.split(",") for r in out.read_text().splitlines()[1:]]
        curve, _ = load_table(table5)
        h_min = min(curve.h(np.linspace(0, 2 * math.pi, 1024, endpoint=False)))
        starts = [(pf * h_min, phi0) for pf in np.linspace(-0.9, 0.9, 3)
                  for phi0 in np.linspace(0.0, 2 * math.pi, 2, endpoint=False)]
        want = []
        for orbit_id, (p, phi) in enumerate(starts):
            line = OrientedLine2D(p, phi)
            want.append([str(orbit_id), "0", f"{line.p:.17g}", f"{line.phi:.17g}"])
            for step in range(1, 6):
                line, _ = reflect_geometric(curve, line)
                want.append([str(orbit_id), str(step), f"{line.p:.17g}", f"{line.phi:.17g}"])
        assert rows == want

    def test_svg_is_directory(self, table5, tmp_path):
        assert main(["phase-portrait", "--table", str(table5), "--p-grid", "2",
                     "--phi-grid", "1", "--steps", "2", "--svg", str(tmp_path)]) == 2

    def test_circle_horizontal_lines(self, tmp_path):
        path = tmp_path / "circle.json"
        path.write_text(json.dumps({"a0": 1.0, "harmonics": [], "gutkin": None}))
        out = tmp_path / "pp.csv"
        assert main(["phase-portrait", "--table", str(path), "--p-grid", "3",
                     "--phi-grid", "1", "--steps", "15", "--out", str(out)]) == 0
        rows = [r.split(",") for r in out.read_text().splitlines()[1:]]
        by_orbit = {}
        for orb, _, p, _ in rows:
            by_orbit.setdefault(orb, []).append(float(p))
        for ps in by_orbit.values():
            assert max(ps) - min(ps) < 1e-10


@pytest.mark.parametrize("command", [
    ["orbit", "--p", "0.1", "--phi", "0.2", "--steps", "3", "--out", "o.csv"],
    ["verify", "--delta", "0.8"],
    ["rigidity", "--delta1", "0.3", "--delta2", "1.0"],
])
def test_nonconvex_table_rejected(tmp_path, monkeypatch, capsys, command):
    # h = 1 + 0.5 cos 2phi: rho = 1 - 1.5 cos 2phi dips to -0.5
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.json").write_text(
        json.dumps({"a0": 1, "harmonics": [{"k": 2, "cos": 0.5, "sin": 0}]}))
    assert main(command[:1] + ["--table", "bad.json"] + command[1:]) == 2
    assert "curvature radius" in capsys.readouterr().err


class TestRigidity:
    def test_gutkin_strip(self, table5, capsys):
        assert main(["--json", "rigidity", "--table", str(table5),
                     "--delta1", "0.9117382909684876",
                     "--delta2", str(math.pi / 2)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["quadrature"] == pytest.approx(9.35e-3, rel=1e-2)
        assert doc["relative_gap"] < 1e-6

    def test_circle_zero(self, tmp_path, capsys):
        path = tmp_path / "circle.json"
        path.write_text(json.dumps({"a0": 1.0, "harmonics": [], "gutkin": None}))
        assert main(["--json", "rigidity", "--table", str(path),
                     "--delta1", "0.3", "--delta2", "1.0"]) == 0
        assert abs(json.loads(capsys.readouterr().out)["quadrature"]) < 1e-10

    def test_bad_strip(self, table5):
        assert main(["rigidity", "--table", str(table5),
                     "--delta1", "1.0", "--delta2", "0.5"]) == 2


class TestEllipsoid:
    def test_sphere_constant_incidence(self, tmp_path):
        spec = tmp_path / "s.json"
        spec.write_text(json.dumps({"d": 3, "A": [1, 0, 0, 0, 1, 0, 0, 0, 1]}))
        out = tmp_path / "orbit.csv"
        assert main(["ellipsoid", "--spec", str(spec), "--delta", "0.6",
                     "--steps", "40", "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        angles = [float(r.split(",")[-1]) for r in rows]
        assert max(angles) - min(angles) < 1e-10

    def test_quadric_residual(self, spheroid_spec, tmp_path):
        out = tmp_path / "orbit.csv"
        assert main(["ellipsoid", "--spec", str(spheroid_spec), "--delta", "0.5",
                     "--steps", "30", "--out", str(out)]) == 0
        Ainv = np.diag([0.25, 1.0, 1.0])
        for row in out.read_text().splitlines()[1:]:
            P = np.array([float(v) for v in row.split(",")[1:4]])
            assert abs(P @ Ainv @ P - 1.0) < 1e-12


    def test_grazing_line(self, spheroid_spec, tmp_path, capsys):
        assert main(["ellipsoid", "--spec", str(spheroid_spec),
                     "--n=0.6873947407022538,0.5269927090470677,-0.4997671008240877",
                     "--m=-0.004189549631558638,0.690987976605847,0.7228682134780698",
                     "--steps", "1", "--out", str(tmp_path / "o.csv")]) == 2
        assert "grazes" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--n", "--m"])
    def test_line_flag_alone(self, spheroid_spec, tmp_path, flag):
        assert main(["ellipsoid", "--spec", str(spheroid_spec), flag, "1,0,0",
                     "--steps", "3", "--out", str(tmp_path / "o.csv")]) == 2

    @pytest.mark.parametrize("delta", ["-0.5", "2"])
    def test_delta_out_of_range(self, spheroid_spec, tmp_path, capsys, delta):
        out = tmp_path / "o.csv"
        assert main(["ellipsoid", "--spec", str(spheroid_spec), "--delta", delta,
                     "--steps", "3", "--out", str(out)]) == 2
        assert "delta must be in (0, pi/2]" in capsys.readouterr().err
        assert not out.exists()

    def test_dimension_cap_before_quadric(self, tmp_path, capsys):
        # A is not positive definite: the cap must refuse it before Cholesky runs
        spec = tmp_path / "big.json"
        spec.write_text(json.dumps({"d": 17, "A": [0.0] * 17 * 17}))
        assert main(["ellipsoid", "--spec", str(spec), "--steps", "3",
                     "--out", str(tmp_path / "o.csv")]) == 2
        assert "capped at 16" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["rigidity", "--delta1", "0.3", "--delta2", "1.0"],
    ["phase-portrait", "--steps", "3"],
])
@pytest.mark.parametrize("doc", [
    '{"a0": NaN, "harmonics": []}',
    '{"a0": Infinity, "harmonics": [{"k": 2, "cos": 0.1, "sin": 0}]}',
])
def test_non_finite_table_rejected(tmp_path, capsys, command, doc):
    path = tmp_path / "bad.json"
    path.write_text(doc)
    assert main(command[:1] + ["--table", str(path)] + command[1:]) == 2
    assert capsys.readouterr().err == "error: table coefficients must be finite\n"


class TestSpecValidation:
    @pytest.mark.parametrize("doc", [{"A": [1, 0, 0, 1]},
                                     {"d": 2, "A": [1, 0, 0]},
                                     {"d": 0, "A": []},
                                     [1, 0, 0, 1],
                                     {"d": 1, "A": [2.0]}])
    @pytest.mark.parametrize("command", ["ellipsoid", "gradient-check"])
    def test_malformed_spec(self, tmp_path, capsys, doc, command):
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps(doc))
        argv = [command, "--spec", str(spec)]
        if command == "ellipsoid":
            argv += ["--out", str(tmp_path / "o.csv")]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: spec")

    @pytest.mark.parametrize("entry", ["NaN", "Infinity"])
    @pytest.mark.parametrize("command", ["ellipsoid", "gradient-check"])
    def test_non_finite_spec(self, tmp_path, capsys, entry, command):
        spec = tmp_path / "bad.json"
        spec.write_text(f'{{"d": 2, "A": [1, 0, 0, {entry}]}}')
        out = tmp_path / "o.csv"
        argv = [command, "--spec", str(spec)]
        if command == "ellipsoid":
            argv += ["--steps", "3", "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: A must have finite entries\n"
        assert not out.exists()


class TestFlagValidation:
    BASE = {
        "orbit": ["--table", "{table}", "--p", "0.3", "--phi", "0", "--out", "{out}"],
        "phase-portrait": ["--table", "{table}"],
        "ellipsoid": ["--spec", "{spec}", "--out", "{out}"],
        "chords": ["--surface", "ellipsoid", "--delta", "0.5", "--out", "{out}"],
    }

    @pytest.mark.parametrize("command, flag, value", [
        ("orbit", "--steps", "-3"),
        ("phase-portrait", "--steps", "0"),
        ("phase-portrait", "--p-grid", "0"),
        ("phase-portrait", "--phi-grid", "-1"),
        ("ellipsoid", "--steps", "-2"),
        ("chords", "--step", "0"),
        ("chords", "--radius", "0"),
        ("chords", "--length", "-1"),
        ("chords", "--axes", "2,1"),
        ("chords", "--axes", "2,0,1"),
    ])
    def test_out_of_range(self, table5, spheroid_spec, tmp_path, capsys,
                          command, flag, value):
        subs = {"{table}": str(table5), "{spec}": str(spheroid_spec),
                "{out}": str(tmp_path / "o.csv")}
        argv = [command] + [subs.get(a, a) for a in self.BASE[command]] + [flag, value]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} ") and err.count("\n") == 1


class TestGradientCheck:
    def test_spheroid(self, spheroid_spec, capsys):
        assert main(["--json", "gradient-check", "--spec", str(spheroid_spec),
                     "--pairs", "30"]) == 0
        assert json.loads(capsys.readouterr().out)["max_residual"] < 1e-7

    @pytest.mark.parametrize("pairs", ["0", "-1"])
    def test_no_pairs(self, spheroid_spec, pairs):
        assert main(["gradient-check", "--spec", str(spheroid_spec),
                     "--pairs", pairs]) == 2


class TestChords:
    def test_sphere_report(self, tmp_path):
        out = tmp_path / "chords.csv"
        assert main(["chords", "--surface", "sphere", "--radius", "1",
                     "--delta", str(math.pi / 6), "--length", "2",
                     "--step", "0.001", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "s,k,tau,l,ldot,R5,R6,R9,D_numeric,D_analytic,A_coeff"
        ls = [float(r.split(",")[3]) for r in lines[1:]]
        assert max(abs(v - 1.0) for v in ls) < 1e-8
