import argparse
import json
import math
import warnings

import numpy as np
import pytest

from gutkin import cli
from gutkin.cli import main

FMT = "{:.17g}"


def reference_write_csv(path, header, rows):
    """The per-value CSV writer the column writer replaced, kept as its reference."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(FMT.format(v) if isinstance(v, float) else str(v)
                             for v in row) + "\n")


def reference_write_svg(path, xs, ys, size=640, margin=20):
    """The per-point SVG writer the array writer replaced, kept as its reference."""
    xs = np.asarray(xs)
    ys = np.asarray(ys)
    x0, x1 = 0.0, 2 * math.pi
    pad = 0.05 * (ys.max() - ys.min() + 1e-30)
    y0, y1 = ys.min() - pad, ys.max() + pad
    inner = size - 2 * margin
    lines = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
             f'height="{size}" viewBox="0 0 {size} {size}">',
             f'<rect width="{size}" height="{size}" fill="white"/>']
    for x, y in zip(xs, ys):
        px = margin + inner * (x - x0) / (x1 - x0)
        py = margin + inner * (1.0 - (y - y0) / (y1 - y0))
        lines.append(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="0.8" fill="black"/>')
    lines.append("</svg>")
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


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


class TestWriters:
    def test_csv_matches_per_value_writer(self, tmp_path):
        rng = np.random.default_rng(8)
        special = [-0.0, np.nan, np.inf, -np.inf, 5e-324, 1e16, 0.1, -5e-324]
        floats = np.concatenate(
            [special, rng.normal(size=2000) * 10.0 ** rng.integers(-300, 300, 2000)])
        ints = np.concatenate([np.arange(floats.size - 1), [2 ** 62]])
        columns = [ints, floats, floats[::-1], -floats]
        header = ["i", "a", "b", "c"]
        cli._write_csv(tmp_path / "new.csv", header, columns)
        reference_write_csv(tmp_path / "ref.csv", header,
                            zip(*(c.tolist() for c in columns)))
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_svg_matches_per_point_writer(self, tmp_path):
        rng = np.random.default_rng(9)
        xs = rng.uniform(0.0, 2 * math.pi, 5000)
        ys = rng.normal(size=5000) * 0.3
        cli._write_svg(tmp_path / "new.svg", xs, ys)
        reference_write_svg(tmp_path / "ref.svg", xs, ys)
        assert (tmp_path / "new.svg").read_bytes() == (tmp_path / "ref.svg").read_bytes()


@pytest.mark.parametrize("residual, code", [(1e-3, 1), (1e-9, 0)])
def test_pass_decides_exit_code(table5, spheroid_spec, monkeypatch, capsys,
                                residual, code):
    from gutkin import billiard2d, billiard_nd
    monkeypatch.setattr(billiard2d, "verify_constant_angle", lambda *a: residual)
    monkeypatch.setattr(billiard_nd, "gradient_contract_residual",
                        lambda *a: (residual, residual))
    for argv in (["verify", "--table", str(table5)],
                 ["gradient-check", "--spec", str(spheroid_spec), "--pairs", "3"]):
        assert main(["--json", *argv]) == code
        assert json.loads(capsys.readouterr().out)["pass"] is (code == 0)


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

    @pytest.mark.parametrize("a0, an", [("inf", "0.05"), ("nan", "0.05"),
                                        ("1", "nan"), ("1", "-inf")])
    def test_non_finite_coefficient(self, tmp_path, capsys, a0, an):
        out = tmp_path / "t.json"
        assert main(["table", "--n", "5", f"--a0={a0}", f"--an={an}",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: a0 and an must be finite") and err.count("\n") == 1
        assert not out.exists()

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

    @pytest.mark.parametrize("delta", ["0.8", "0.02", repr(math.pi / 2)])
    def test_circle(self, tmp_path, delta):
        path = tmp_path / "circle.json"
        path.write_text(json.dumps({"a0": 1.0, "harmonics": [], "gutkin": None}))
        assert main(["verify", "--table", str(path), "--delta", delta]) == 0

    def test_no_delta_without_metadata(self, tmp_path, capsys):
        path = tmp_path / "circle.json"
        path.write_text(json.dumps({"a0": 1.0, "harmonics": [], "gutkin": None}))
        assert main(["verify", "--table", str(path)]) == 2
        assert "no delta given" in capsys.readouterr().err

    @pytest.mark.parametrize("delta", ["nan", "0", "-0.3", "1.5708", "2", "inf"])
    def test_delta_out_of_range(self, table5, capsys, delta):
        # refused at the boundary, not followed into missing lines or a vacuous fail
        assert main(["verify", "--table", str(table5), "--delta", delta]) == 2
        assert capsys.readouterr().err == "error: delta must be in (0, pi/2]\n"

    @pytest.mark.parametrize("doc", [{"harmonics": []}, {"a0": 1.0, "harmonics": [{"cos": 0.1}]}])
    def test_malformed_table(self, tmp_path, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", "--table", str(path), "--delta", "0.8"]) == 2

    @pytest.mark.parametrize("grid", ["4", "0", "-1"])
    def test_grid_below_8(self, table5, capsys, grid):
        assert main(["verify", "--table", str(table5), "--grid", grid]) == 2
        assert capsys.readouterr().err == "error: --grid must be at least 8\n"


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
        from gutkin.support_geometry import eval_support, load_table
        out = tmp_path / "pp.csv"
        assert main(["phase-portrait", "--table", str(table5), "--p-grid", "3",
                     "--phi-grid", "2", "--steps", "5", "--out", str(out)]) == 0
        rows = [r.split(",") for r in out.read_text().splitlines()[1:]]
        curve, _ = load_table(table5)
        h, _, _, _ = eval_support(curve, np.linspace(0, 2 * math.pi, 1024, endpoint=False))
        h_min = min(h)
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

    @pytest.mark.parametrize("degree", [256, 300])
    def test_high_degree_not_aliased(self, tmp_path, capsys, degree):
        # rho = 1 + 0.3 cos(K phi); 512 phi points alias the degree-2K integrand
        path = tmp_path / "high.json"
        path.write_text(json.dumps({"a0": 1.0, "harmonics": [
            {"k": degree, "cos": 0.3 / (1 - degree ** 2), "sin": 0.0}]}))
        assert main(["--json", "rigidity", "--table", str(path),
                     "--delta1", "0.3", "--delta2", "1.2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["quadrature"] == pytest.approx(doc["closed_form"], rel=1e-12)
        assert doc["relative_gap"] < 1e-12


class TestScaleFree:
    """Tables and bodies far from unit size, which absolute thresholds once
    refused with exit 2."""

    def test_table_scaled_by_power_of_two(self, table5, tmp_path, capsys):
        scale = 2.0 ** -43
        small = tmp_path / "small.json"
        assert main(["table", "--n", "5", "--a0", repr(scale), "--an", repr(0.05 * scale),
                     "--out", str(small)]) == 0
        capsys.readouterr()
        residuals = []
        for path in (table5, small):
            assert main(["--json", "verify", "--table", str(path)]) == 0
            residuals.append(json.loads(capsys.readouterr().out)["residual"])
        assert residuals[0] == residuals[1]
        for path, p in ((table5, 0.3), (small, 0.3 * scale)):
            assert main(["orbit", "--table", str(path), "--p", repr(p), "--phi", "0.2",
                         "--steps", "200", "--out", str(tmp_path / f"{path.stem}.csv")]) == 0
        unit = np.loadtxt(tmp_path / "t5.csv", delimiter=",", skiprows=1)
        scaled = np.loadtxt(tmp_path / "small.csv", delimiter=",", skiprows=1)
        assert np.array_equal(scaled[:, 1], unit[:, 1] * scale)
        assert np.array_equal(np.delete(scaled, 1, axis=1), np.delete(unit, 1, axis=1))

    def test_tiny_table_verifies(self, tmp_path):
        path = tmp_path / "tiny.json"
        assert main(["table", "--n", "5", "--a0", "1e-13", "--an", "5e-15",
                     "--out", str(path)]) == 0
        assert main(["verify", "--table", str(path)]) == 0

    def test_large_sphere_spec(self, tmp_path):
        spec = tmp_path / "big.json"
        spec.write_text(json.dumps({"d": 3, "A": [1e14, 0, 0, 0, 1e14, 0, 0, 0, 1e14]}))
        out = tmp_path / "orbit.csv"
        assert main(["ellipsoid", "--spec", str(spec), "--delta", "0.5",
                     "--steps", "40", "--out", str(out)]) == 0
        angles = np.loadtxt(out, delimiter=",", skiprows=1)[:, -1]
        assert np.abs(angles - 0.5).max() < 1e-12


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

    @pytest.mark.parametrize("n, m, message", [
        ("nan,0,0", "0,0,0", "--n must be a nonzero finite vector"),
        ("0,0,0", "0,0,0", "--n must be a nonzero finite vector"),
        ("1,0,0", "nan,0,0", "m must be finite"),
        ("1,0,0", "0,inf,0", "m must be finite"),
    ])
    def test_non_finite_or_zero_line(self, spheroid_spec, tmp_path, capsys,
                                     n, m, message):
        out = tmp_path / "o.csv"
        assert main(["ellipsoid", "--spec", str(spheroid_spec), f"--n={n}",
                     f"--m={m}", "--steps", "3", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("n", ["1e200,1e200,0", "1e-200,1e-200,0"])
    def test_line_norm_out_of_float_range(self, spheroid_spec, tmp_path, n):
        # |n|^2 overflows or underflows, yet n is a finite nonzero direction
        out, ref = tmp_path / "o.csv", tmp_path / "ref.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for direction, path in ((n, out), ("1,1,0", ref)):
                assert main(["ellipsoid", "--spec", str(spheroid_spec), f"--n={direction}",
                             "--m=0,0,0", "--steps", "20", "--out", str(path)]) == 0
        got, want = (np.loadtxt(p, delimiter=",", skiprows=1) for p in (out, ref))
        assert got == pytest.approx(want, rel=0, abs=1e-15)

    @pytest.mark.parametrize("n, m", [("1,0", "0,0.1"), ("1,0,0,0", "0,0.1,0,0"),
                                      ("1,0,0", "0,0.1")])
    def test_line_length_not_d(self, spheroid_spec, tmp_path, capsys, n, m):
        out = tmp_path / "o.csv"
        assert main(["ellipsoid", "--spec", str(spheroid_spec), f"--n={n}",
                     f"--m={m}", "--steps", "3", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: --n and --m need d = 3 entries\n"
        assert not out.exists()

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


class TestMalformedTable:
    """A malformed table exits 2 with one line that names the key at fault."""

    RIGIDITY = ["rigidity", "--delta1", "0.3", "--delta2", "1.0"]

    def run(self, tmp_path, capsys, text, command):
        path = tmp_path / "bad.json"
        path.write_text(text)
        rc = main(command[:1] + ["--table", str(path)] + command[1:])
        return rc, capsys.readouterr().err

    @pytest.mark.parametrize("harmonics, got", [
        ('[{"k": 3, "cos": 0.01}, {"k": 0, "cos": 0.05}]', "0"),
        ('[{"k": -2, "cos": 0.01}]', "-2"),
        ('[{"k": 2.7, "cos": 0.01}]', "2.7"),
        ('[{"k": true, "cos": 0.01}]', "True"),
        ('[{"k": 0, "cos": 0.05}]', "0"),
    ])
    def test_harmonic_index(self, tmp_path, capsys, harmonics, got):
        rc, err = self.run(tmp_path, capsys, f'{{"a0": 1, "harmonics": {harmonics}}}',
                           self.RIGIDITY)
        assert (rc, err) == (2, f"error: table harmonic 'k' must be an integer >= 1, got {got}\n")

    def test_repeated_harmonic(self, tmp_path, capsys):
        rc, err = self.run(tmp_path, capsys, '{"a0": 1, "harmonics": '
                           '[{"k": 3, "cos": 0.01}, {"k": 3, "cos": 0.02}]}', self.RIGIDITY)
        assert (rc, err) == (2, "error: table harmonic k = 3 is given more than once\n")

    @pytest.mark.parametrize("a0", ["null", "[1]", "true"])
    def test_a0(self, tmp_path, capsys, a0):
        rc, err = self.run(tmp_path, capsys, f'{{"a0": {a0}, "harmonics": []}}', self.RIGIDITY)
        assert rc == 2
        assert err.startswith("error: table 'a0' must be a number, got ") and err.count("\n") == 1

    @pytest.mark.parametrize("meta, key", [
        ('{"n": 5}', "'gutkin'"),
        ('[5, 0.9]', "'gutkin'"),
        ('"5"', "'gutkin'"),
        ('{"n": 5, "delta": null}', "gutkin 'delta'"),
        ('{"n": 5, "delta": true}', "gutkin 'delta'"),
        ('{"n": null, "delta": 0.9}', "gutkin 'n'"),
    ])
    @pytest.mark.parametrize("delta_flag", [[], ["--delta", "0.9"]])
    def test_gutkin_metadata(self, tmp_path, capsys, meta, key, delta_flag):
        rc, err = self.run(tmp_path, capsys,
                           f'{{"a0": 1, "harmonics": [], "gutkin": {meta}}}',
                           ["verify", *delta_flag])
        assert rc == 2
        assert err.startswith(f"error: table {key} must be ") and err.count("\n") == 1


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
        "verify": ["--table", "{table}"],
        "gradient-check": ["--spec", "{spec}", "--pairs", "3"],
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
        ("verify", "--tol", "nan"),
        ("verify", "--tol", "-1"),
        ("verify", "--tol", "inf"),
        ("gradient-check", "--tol", "nan"),
        ("gradient-check", "--tol", "-1"),
        ("gradient-check", "--tol", "inf"),
    ])
    def test_out_of_range(self, table5, spheroid_spec, tmp_path, capsys,
                          command, flag, value):
        subs = {"{table}": str(table5), "{spec}": str(spheroid_spec),
                "{out}": str(tmp_path / "o.csv")}
        argv = [command] + [subs.get(a, a) for a in self.BASE[command]] + [flag, value]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} ") and err.count("\n") == 1


class TestInProcessCalls:
    """Repeated ``main`` calls in one process share one parser and no state."""

    def test_parser_built_once(self, table5, monkeypatch):
        assert main(["roots", "--n", "5"]) == 0
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        for argv in (["roots", "--n", "5"], ["roots", "--n", "7"],
                     ["verify", "--table", str(table5)]):
            assert main(argv) == 0
        assert built == []

    def test_verify_delta_does_not_leak(self, table5, capsys):
        own = json.loads(table5.read_text())["gutkin"]["delta"]
        assert main(["--json", "verify", "--table", str(table5), "--delta", "0.3"]) == 1
        assert json.loads(capsys.readouterr().out)["delta"] == 0.3
        assert main(["--json", "verify", "--table", str(table5)]) == 0
        assert json.loads(capsys.readouterr().out)["delta"] == own

    def test_orbit_steps_do_not_leak(self, table5, tmp_path):
        out = tmp_path / "o.csv"
        base = ["orbit", "--table", str(table5), "--p", "0.3", "--phi", "0.2",
                "--out", str(out)]
        assert main(base + ["--steps", "3"]) == 0
        assert len(out.read_text().splitlines()) == 1 + 3
        assert main(base) == 0
        assert len(out.read_text().splitlines()) == 1 + 100

    def test_svg_does_not_leak(self, table5, tmp_path):
        svg = tmp_path / "pp.svg"
        base = ["phase-portrait", "--table", str(table5), "--steps", "5",
                "--out", str(tmp_path / "pp.csv")]
        assert main(base + ["--svg", str(svg)]) == 0
        svg.unlink()
        assert main(base) == 0
        assert not list(tmp_path.glob("*.svg"))


class TestGradientCheck:
    def test_spheroid(self, spheroid_spec, capsys):
        assert main(["--json", "gradient-check", "--spec", str(spheroid_spec),
                     "--pairs", "30"]) == 0
        assert json.loads(capsys.readouterr().out)["max_residual"] < 1e-7

    @pytest.mark.parametrize("pairs", ["0", "-1"])
    def test_no_pairs(self, spheroid_spec, pairs):
        assert main(["gradient-check", "--spec", str(spheroid_spec),
                     "--pairs", pairs]) == 2

    def test_close_pairs_redrawn(self, tmp_path, monkeypatch, capsys):
        # on a circle about one pair in 30 has |n1 - n2| < 0.1; such a pair is
        # drawn again and not counted, as in this reference loop
        from gutkin.billiard_nd import Quadric, gradient_contract_residual
        A = [[2.0, 0.3], [0.3, 1.0]]
        spec = tmp_path / "e2.json"
        spec.write_text(json.dumps({"d": 2, "A": sum(A, [])}))
        monkeypatch.setenv("GUTKIN_SEED", "3")
        rng = np.random.default_rng(3)
        residuals, rejected = [], 0
        while len(residuals) < 60:
            n1 = rng.normal(size=2)
            n1 /= np.linalg.norm(n1)
            n2 = rng.normal(size=2)
            n2 /= np.linalg.norm(n2)
            if np.linalg.norm(n1 - n2) < 0.1:
                rejected += 1
                continue
            residuals.extend(gradient_contract_residual(Quadric(np.array(A)), n1, n2))
        assert rejected > 0
        assert main(["--json", "gradient-check", "--spec", str(spec), "--pairs", "60"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["pairs"] == 60 and doc["max_residual"] == max(residuals)


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

    @pytest.mark.parametrize("length, step", [("1e300", "1e-300"), ("1e20", "1e-2")])
    def test_step_count_overflow(self, tmp_path, capsys, length, step):
        out = tmp_path / "chords.csv"
        assert main(["chords", "--surface", "sphere", "--delta", "0.5",
                     "--length", length, "--step", step, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: length/step") and err.count("\n") == 1
        assert not out.exists()

    def test_ellipsoid_report_by_bisection(self, tmp_path):
        # oracle: bisect F = <A^-1 p, p> - 1 along each ray from the geodesic
        # the command integrates, A^-1 = diag(1/4, 1, 1)
        from gutkin.billiard_nd import Quadric
        from gutkin.geodesic_chords import integrate_geodesic
        out, delta = tmp_path / "ce.csv", 0.5236
        assert main(["chords", "--surface", "ellipsoid", "--axes", "2,1,1",
                     "--delta", str(delta), "--length", "3", "--step", "0.01",
                     "--out", str(out)]) == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        traj = integrate_geodesic(Quadric(np.diag([4.0, 1.0, 1.0])), [2.0, 0, 0],
                                  [0, 1.0, 0], 3.0, 0.01)
        assert np.array_equal(rows[:, 0], traj.s)
        a_inv = np.array([0.25, 1.0, 1.0])
        normal = traj.x * a_inv
        normal /= np.linalg.norm(normal, axis=1)[:, None]
        z = math.cos(delta) * traj.v - math.sin(delta) * normal
        z /= np.linalg.norm(z, axis=1)[:, None]
        lo, hi = np.full(len(z), 1e-6), np.full(len(z), 5.0)
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            p = traj.x + mid[:, None] * z
            inside = (p * p * a_inv).sum(axis=1) < 1.0
            lo, hi = np.where(inside, mid, lo), np.where(inside, hi, mid)
        assert np.abs(rows[:, 3] - 0.5 * (lo + hi)).max() < 1e-12

    @pytest.mark.parametrize("radius", [1e-13, 1e9])
    def test_sphere_far_from_unit_size(self, tmp_path, radius):
        out = tmp_path / "chords.csv"
        assert main(["chords", "--surface", "sphere", "--radius", repr(radius),
                     "--delta", "0.5236", "--length", repr(2 * radius),
                     "--step", repr(1e-3 * radius), "--out", str(out)]) == 0
        # l = 2 r sin(delta) and k = 1/r, which absolute thresholds refused
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        assert np.abs(rows[:, 3] / (2 * radius * math.sin(0.5236)) - 1).max() < 1e-12
        assert np.abs(rows[:, 1] * radius - 1).max() < 1e-9

    def test_memory_error_exit_2(self, tmp_path, capsys, monkeypatch):
        from gutkin import geodesic_chords

        def too_large(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(geodesic_chords, "integrate_geodesic", too_large)
        out = tmp_path / "chords.csv"
        assert main(["chords", "--surface", "sphere", "--delta", "0.5",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()
