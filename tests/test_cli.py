import argparse
import functools
import json
import math
import os
import re
import subprocess
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gutkin
from gutkin import billiard_nd as bnd
from gutkin import cli, csvtext
from gutkin.cli import AXIS_RANGE, main
from gutkin.geodesic_chords import MIN_DELTA

FMT = "{:.17g}"
WIDTH_OVERFLOW = "error: the table's width 2 h_bound overflows the float range\n"
DERIVATIVE_OVERFLOW = ("error: the table's derivative columns (i k)^j c_k overflow "
                       "the float range\n")


def reference_write_csv(path, header, rows):
    """The per-value CSV writer the column writer replaced, kept as its reference."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(FMT.format(v) if isinstance(v, float) else str(v)
                             for v in row) + "\n")


def reference_tables():
    """The kernel's tables as the CSV writer first built them, one decade,
    one exponent and one layout at a time, kept as the reference of
    csvtext._tables."""
    from gutkin.csvtext import _FORMS, _SPAN, _X0, DECADES, FIXED, ROW_BYTES, _split_hi

    def power(s):
        if s >= 0:
            hi = float(10 ** s)
            return hi, float(10 ** s - int(hi))
        t = 10 ** -s
        hi = 1 / t
        num, den = hi.as_integer_ratio()
        return hi, (den - num * t) / (den * t)

    def layout(form, last):
        X = form + FIXED[0]
        if X < 0:
            zeros = -X - 1
            sign, keep = 28 - zeros, [*range(29 - zeros, 32), *range(32, 32 + last)]
        elif 0 < X <= FIXED[1]:
            sign, keep = 6, [*range(7, 8 + X)]
            if last > X:
                keep += [31, *range(32 + X, 32 + last)]
        else:
            sign, keep = 29, [30]
            if last:
                keep += [31, *range(32, 32 + last)]
        tail = 1 if X <= FIXED[1] else 5 + (form == _FORMS - 1)
        return sign, keep + [*range(48, 48 + tail)]

    hi, lo = np.array([power(16 - e10) for e10 in range(DECADES[0], DECADES[1] + 1)]).T
    m, e = np.frexp(hi)
    m_hi = _split_hi(m)
    hi_hi, hi_lo = np.ldexp(m_hi, e), np.ldexp(m - m_hi, e)
    g = np.arange(10 ** 4, dtype=np.uint32)
    digits = sum((g // 10 ** (3 - k) % 10 + 48) << (8 * k) for k in range(4)).astype(np.uint32)
    trailing = (2 * sum(g % 10 ** k == 0 for k in range(1, 5))).astype(np.uint8)
    word = lambda b: int.from_bytes(b.ljust(8, b"\0"), "little")  # noqa: E731
    head = np.array([word(b"\0" * 6 + b"-%d" % d) for d in range(10)], dtype=np.uint64)
    exps = np.arange(-_X0, _SPAN - _X0)
    fixed = (FIXED[0] <= exps) & (exps <= FIXED[1])
    leads = np.array([[word(b"\0" * 5 + b"-%d." % d) for d in range(10)]]
                     + [[word(b"\0" * (4 - z) + b"-0." + b"0" * z + b"%d" % d) for d in range(10)]
                        for z in range(4)], dtype=np.uint64)
    lead = leads[np.where(fixed & (exps < 0), -exps, 0)].ravel()
    tail = np.array([word((b"" if f else b"e%+03d" % x) + sep) for sep in (b",", b"\n")
                     for x, f in zip(exps.tolist(), fixed.tolist())], dtype=np.uint64)
    form_of = np.where(fixed, exps - FIXED[0], _FORMS - 2 + (np.abs(exps) >= 100)) * 34 + 32
    rows, cols = [], []
    for form in range(_FORMS):
        for last in range(17):
            sign, keep = layout(form, last)
            row = (form * 17 + last) * 2
            rows += [row] * len(keep) + [row + 1] * (len(keep) + 1)
            cols += keep + keep + [sign]
    mask = np.zeros((_FORMS * 34, ROW_BYTES), dtype=bool)
    mask[rows, cols] = True
    return dict(hi=hi.copy(), hi_hi=hi_hi, hi_lo=hi_lo, lo=lo.copy(), digits=digits,
                trailing=trailing, head=head, lead=lead, tail=tail, form_of=form_of,
                mask=mask)


def decided(v):
    """Whether the kernel must decide the float v: zero, or a value in
    FAST_RANGE whose scaled value at the kernel's decade lies in [10^16,
    10^17) before and after rounding half to even, and is exact (10^s a
    float, s = 0..22) or 2 TIE_MARGIN or more away from a tie and above
    10^16 (an exact 1e20 scales to 10^16, which the inexact product may
    put just below it)."""
    a = abs(v)
    if a == 0:
        return True
    if not csvtext.FAST_RANGE[0] <= a <= csvtext.FAST_RANGE[1]:
        return False
    s = 16 - int(csvtext._decades(a))
    num, den = a.as_integer_ratio()
    num, den = num * 10 ** max(s, 0), den * 10 ** max(-s, 0)
    n, r = divmod(num, den)
    rounded = n + (2 * r > den or (2 * r == den and n % 2 == 1))
    far = int(0.5 / csvtext.TIE_MARGIN)
    return (10 ** 16 <= n and rounded < 10 ** 17
            and (0 <= s <= 22 or (abs(2 * r - den) * far >= 2 * den
                                  and (n > 10 ** 16 or r * far >= den))))


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
        columns = [np.arange(floats.size), floats, floats[::-1], -floats]
        self.assert_reference_bytes(tmp_path, columns, ["i", "a", "b", "c"])

    def assert_reference_bytes(self, path, columns, header=None):
        """cli._write_csv writes the bytes of reference_write_csv, and the
        kernel, given each distinct cell as a one-cell block, writes its
        '%.17g' text or leaves it, and decides every ordinary cell: a block
        that falls back whole would otherwise hide its other cells."""
        header = header or [f"c{j}" for j in range(len(columns))]
        cli._write_csv(path / "new.csv", header, columns)
        reference_write_csv(path / "ref.csv", header,
                            zip(*(np.asarray(c).tolist() for c in columns)))
        assert (path / "new.csv").read_bytes() == (path / "ref.csv").read_bytes()
        cells = np.concatenate([np.asarray(c, dtype=float) for c in columns])
        cells = np.unique(cells.view(np.int64)).view(float)
        tables, sep = csvtext._tables(), np.array([csvtext._SPAN])
        texts = [csvtext._kernel(tables, np.array([[v]]), sep) for v in cells.tolist()]
        ordinary = np.array([decided(v) for v in cells.tolist()], dtype=bool)
        self.assert_cells_exact_or_left(texts, cells, ordinary)

    def test_tables_bits_of_the_reference(self):
        # every array of the kernel, dtype and shape too, against the tables
        # built one entry at a time
        tables, want = csvtext._tables(), reference_tables()
        assert tables.keys() == want.keys()
        for key, array in want.items():
            assert tables[key].dtype == array.dtype and tables[key].shape == array.shape, key
            assert np.array_equal(tables[key], array), key

    def test_powers_of_ten_and_neighbours(self, tmp_path):
        # every 10^k from the subnormal 1e-323 to 1e308, and the floats on
        # either side of it, at both signs: the decades the scaling passes
        powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
        cells = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
        self.assert_reference_bytes(tmp_path, [cells, -cells, cells[::-1]])

    def test_fixed_and_exponent_switch(self, tmp_path):
        # '%.17g' writes X = -4..16 in fixed form: around 1e-5, 1e-4, 1e16 and
        # 1e17, a few ulps each way, and values whose 17-digit rounding
        # carries into the next decade
        cells = []
        for p in (1e-5, 1e-4, 1e16, 1e17):
            ulps = np.arange(-8, 9)
            cells += [p + ulps * np.spacing(p), p * (1.0 - np.arange(1, 40) * 1e-18),
                      p * (1.0 - np.arange(1, 40) * 1e-16)]
        cells = np.concatenate(cells)
        self.assert_reference_bytes(tmp_path, [cells, -cells])

    def test_ties_of_the_17th_digit(self, tmp_path):
        # m 2^-j with m 5^j of 18 digits ending in 5 is a tie at the 17th
        # digit (2^-25 = 2.98023223876953125e-8 is one), and its neighbours
        # are near-ties: round half to even and both sides of it
        rng = np.random.default_rng(12)
        ties = [2.0 ** -25, 2.0 ** -24 * 3]
        for j in range(1, 26):
            lo = max(1, -(-10 ** 17 // 5 ** j))
            hi = min(2 ** 53, 10 ** 18 // 5 ** j)
            if lo < hi:
                m = rng.integers(lo, hi, 40) | 1
                ties += list(np.ldexp(m.astype(float), -j))
        ties = np.array(ties)
        near = np.concatenate([ties, np.nextafter(ties, 0.0), np.nextafter(ties, np.inf)])
        assert ('%.17g' % 2.0 ** -25) == "2.9802322387695312e-08"
        self.assert_reference_bytes(tmp_path, [near, -near, near * 2.0 ** 200, near * 2.0 ** -200])

    def test_zeros_subnormals_and_non_finite(self, tmp_path):
        tiny = np.finfo(float).tiny
        cells = np.array([0.0, -0.0, 5e-324, -5e-324, tiny, -tiny, np.nextafter(tiny, 0.0),
                          2.0 ** -960, np.nextafter(2.0 ** -960, 0.0), 2.0 ** 960,
                          np.nextafter(2.0 ** 960, np.inf), np.finfo(float).max,
                          -np.finfo(float).max, np.inf, -np.inf, np.nan, 1.0, -1.0])
        self.assert_reference_bytes(tmp_path, [cells, cells[::-1]])

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_block_boundaries(self, tmp_path, extra):
        # rows filling one kernel block less a row, exactly and plus a row,
        # integer and float columns mixed
        width = 7
        rows = csvtext.CSV_BLOCK_CELLS // width + extra
        rng = np.random.default_rng(13 + extra)
        floats = rng.normal(size=(5, rows)) * 10.0 ** rng.integers(-20, 20, (5, rows))
        self.assert_reference_bytes(tmp_path, [np.arange(rows), *floats[:3],
                                               rng.integers(-10 ** 6, 10 ** 6, rows), *floats[3:]])

    def test_empty_and_single_rows(self, tmp_path):
        for rows in (0, 1, 2):
            self.assert_reference_bytes(tmp_path, [np.arange(rows), np.linspace(0.0, 1.0, rows)])

    def test_float_only_columns(self, tmp_path):
        rng = np.random.default_rng(14)
        bits = rng.integers(-2 ** 63, 2 ** 63 - 1, (3, 3000), dtype=np.int64).view(float)
        self.assert_reference_bytes(tmp_path, list(bits))

    def test_counter_columns_read_as_percent_d(self, tmp_path):
        # a counter below 2^53 is an exact float whose '%.17g' is its '%d':
        # the edges, and the orbit,step columns of phase-portrait
        # (np.repeat and np.tile) over several blocks, all in the kernel
        edges = np.array([0, 1, 2 ** 53 - 1, -1, -(2 ** 53 - 1), 9, 10, 10 ** 15])
        self.assert_reference_bytes(tmp_path, [edges, edges[::-1], np.abs(edges).astype(np.uint64)])
        assert "%d" % (2 ** 53 - 1) in (tmp_path / "new.csv").read_text()
        kept, per_orbit = 48, 201
        counters = [np.repeat(np.arange(kept), per_orbit), np.tile(np.arange(per_orbit), kept)]
        self.assert_reference_bytes(tmp_path, counters)
        block = np.stack(counters, axis=1, dtype=float)
        sep = np.tile([0, csvtext._SPAN], kept * per_orbit)
        assert csvtext._kernel(csvtext._tables(), block, sep) is not None

    @staticmethod
    def assert_cells_exact_or_left(texts, cells, ordinary):
        """Each cell's one-cell kernel text is its '%.17g' line or None (left
        to the reference formatting), and every ordinary cell has text."""
        for v, text in zip(cells.tolist(), texts):
            assert text in (None, b"%.17g\n" % v), v
        assert all(text is not None for text, o in zip(texts, ordinary.tolist()) if o)

    def test_misjudged_decades_left_to_reference(self, monkeypatch):
        # a decade one off either way puts the scaled value outside
        # [10^16, 10^17), or rounds it up to 10^17: the kernel leaves those
        # cells to '%.17g'.  Each cell is its own block, so one cell the
        # check misses shows.  The doubles nearest 1e-14, 1e23, 1e98 and
        # 1e220 lie below those powers and round up to them at 17 digits, so
        # the kernel leaves them at any decade, as it does 1e-305, out of range
        rng = np.random.default_rng(16)
        left = [1e-305, 1e-14, 1e23, 1e98, 1e220]
        carries = np.array(left + [0.0, -0.0, 1.0, 0.1])
        cells = np.concatenate([rng.normal(size=1500) * 10.0 ** rng.integers(-280, 280, 1500),
                                carries, carries, carries])
        shift = np.concatenate([rng.integers(-1, 2, 1500), np.repeat([-1, 0, 1], carries.size)])
        tables, decades, sep = csvtext._tables(), csvtext._decades, np.array([csvtext._SPAN])
        texts = []
        for v, k in zip(cells.tolist(), shift.tolist()):
            monkeypatch.setattr(csvtext, "_decades", lambda a, k=k: decades(a) + k)
            texts.append(csvtext._kernel(tables, np.array([[v]]), sep))
        self.assert_cells_exact_or_left(texts, cells, (shift == 0) & ~np.isin(cells, left))

    def test_inexact_near_ties_left_to_reference(self):
        # with 10^s_lo off by 2^-30 of itself the scaled value is off by
        # about 1e-8, inside the tie margin: exact ties beyond the exact
        # powers 10^0..10^22 then go to '%.17g', each cell its own block
        rng = np.random.default_rng(18)
        tables = dict(csvtext._tables())
        tables["lo"] = tables["lo"] * (1.0 + 2.0 ** -30)
        m = (rng.integers(1, 2 ** 20, 400) | 1).astype(float)
        ties = np.concatenate([np.ldexp(m, -rng.integers(25, 60, 400)),
                               np.ldexp(1.0, -np.arange(25, 60)), [2.0 ** -25 * 3]])
        ordinary = rng.normal(size=2000) * 10.0 ** rng.integers(-280, 280, 2000)
        cells = np.concatenate([ties, ties * 2.0 ** 200, ties * 2.0 ** -200, ordinary])
        cells = np.concatenate([cells, -cells])
        sep = np.array([csvtext._SPAN])
        texts = [csvtext._kernel(tables, np.array([[v]]), sep) for v in cells.tolist()]
        assert None in texts
        self.assert_cells_exact_or_left(texts, cells, np.isin(np.abs(cells), np.abs(ordinary)))

    def test_ordinary_values_stay_in_the_kernel(self):
        # finite normal values that are no ties and no powers of ten that
        # round up take the kernel, not '%.17g'
        rng = np.random.default_rng(17)
        block = rng.normal(size=(512, 8)) * 10.0 ** rng.integers(-280, 280, (512, 8))
        sep = np.zeros(block.size, dtype=np.intp)
        text = csvtext._kernel(csvtext._tables(), block, sep)
        assert text is not None and text.count(b",") == block.size

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(width=64), min_size=1, max_size=40))
    def test_every_field_is_percent_17g(self, tmp_path_factory, values):
        path = tmp_path_factory.mktemp("csv") / "f.csv"
        cli._write_csv(path, ["a", "b"], [np.array(values), np.array(values[::-1])])
        lines = path.read_text().splitlines()
        assert lines[0] == "a,b"
        assert [line.split(",") for line in lines[1:]] == [
            ["%.17g" % a, "%.17g" % b] for a, b in zip(values, values[::-1])]

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


class TestModuleEntry:
    """``python -m gutkin.cli``, the form in which CI runs the README block."""

    @staticmethod
    def run(*argv):
        src = os.path.dirname(os.path.dirname(gutkin.__file__))
        return subprocess.run([sys.executable, "-m", "gutkin.cli", *argv], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)

    def test_json_roots(self):
        done = self.run("--json", "roots", "--n", "5")
        assert done.returncode == 0 and done.stderr == "" and done.stdout.count("\n") == 1
        assert json.loads(done.stdout)["roots"] == pytest.approx([math.atan(math.sqrt(5 / 3))])

    def test_refused_flag(self, table5, tmp_path):
        out = tmp_path / "o.csv"
        done = self.run("orbit", "--table", str(table5), "--p", "0.5", "--phi", "0",
                        "--steps", "0", "--out", str(out))
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr == "error: --steps must be at least 1\n"
        assert not out.exists()


class TestTable:
    def test_writes_delta(self, table5):
        doc = json.loads(table5.read_text())
        assert doc["gutkin"]["delta"] == pytest.approx(0.91174, abs=1e-5)
        assert doc["a0"] == 1.0

    def test_nonconvex(self, tmp_path):
        assert main(["table", "--n", "5", "--a0", "1", "--an", "2",
                     "--out", str(tmp_path / "bad.json")]) == 2

    def test_root_index_out_of_range(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        assert main(["table", "--n", "5", "--a0", "1", "--an", "0.05", "--root-index", "1",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: root_index 1 out of range for n=5 (1 roots)\n"
        assert not out.exists()

    @pytest.mark.parametrize("a0, an", [("inf", "0.05"), ("nan", "0.05"),
                                        ("1", "nan"), ("1", "-inf")])
    def test_non_finite_coefficient(self, tmp_path, capsys, a0, an):
        out = tmp_path / "t.json"
        assert main(["table", "--n", "5", f"--a0={a0}", f"--an={an}",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: a0 and an must be finite") and err.count("\n") == 1
        assert not out.exists()

    def test_curvature_samples_overflow(self, tmp_path, capsys):
        # the convexity grid's spectrum overflows, as the table's width does:
        # the table is refused with one line, writes nothing and warns nothing
        out = tmp_path / "big.json"
        assert main(["table", "--n", "5", "--a0", "1e308", "--an", "1e307",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == WIDTH_OVERFLOW
        assert not out.exists()

    def test_width_overflow_refused(self, tmp_path, capsys):
        # every curvature sample reads +inf here: the table is refused at
        # build, and a file of it at load, by one line naming the overflow
        out = tmp_path / "big.json"
        assert main(["table", "--n", "5", "--a0", "1e308", "--an", "1e300",
                     "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", WIDTH_OVERFLOW)
        assert not out.exists()
        out.write_text(json.dumps({"a0": 1e308, "harmonics": [], "gutkin": {"n": 5, "delta": 0.9}}))
        for argv in (["verify", "--table", str(out)],
                     ["orbit", "--table", str(out), "--p", "0", "--phi", "0",
                      "--out", str(tmp_path / "o.csv")],
                     ["rigidity", "--table", str(out), "--delta1", "0.1", "--delta2", "0.5"]):
            assert main(argv) == 2
            assert capsys.readouterr() == ("", WIDTH_OVERFLOW)

    def test_derivative_overflow_refused(self, tmp_path, capsys):
        # a finite width whose k^3 |c_k| overflows: refused at build and at
        # load by one line, with no warning; where the width overflows too,
        # the width line alone
        out = tmp_path / "big.json"
        for argv, err in ((["--n", "1000", "--a0", "1e307", "--an", "1e306"], DERIVATIVE_OVERFLOW),
                          (["--n", "5", "--a0", "1e308", "--an", "9e307"], WIDTH_OVERFLOW)):
            assert main(["table", *argv, "--out", str(out)]) == 2
            assert capsys.readouterr() == ("", err)
            assert not out.exists()
        out.write_text(json.dumps({"a0": 1e307, "harmonics": [{"k": 1000, "cos": 1e301}],
                                   "gutkin": {"n": 5, "delta": 0.9}}))
        assert main(["verify", "--table", str(out)]) == 2
        assert capsys.readouterr() == ("", DERIVATIVE_OVERFLOW)

    @pytest.mark.parametrize("a0", ["1e305", "1e200", "1e306"])
    def test_huge_table_still_verifies(self, tmp_path, capsys, a0):
        # with no warning, up to tables near the float range
        out = tmp_path / "t.json"
        assert main(["table", "--n", "5", "--a0", a0, "--an", "1e100",
                     "--out", str(out)]) == 0
        assert main(["--json", "verify", "--table", str(out)]) == 0
        assert json.loads(capsys.readouterr().out.splitlines()[-1])["pass"] is True

    def test_roundtrip_bitwise(self, table5, tmp_path):
        from gutkin.support_geometry import load_table, save_table
        curve, meta = load_table(table5)
        out2 = tmp_path / "copy.json"
        save_table(out2, curve)
        doc1 = json.loads(table5.read_text())
        doc2 = json.loads(out2.read_text())
        assert doc1["a0"] == doc2["a0"]
        assert doc1["harmonics"] == doc2["harmonics"]

    def test_saved_again_byte_for_byte(self, table5, tmp_path):
        from gutkin.support_geometry import load_table, save_table
        copy = tmp_path / "copy.json"
        save_table(copy, *load_table(table5))
        assert copy.read_bytes() == table5.read_bytes()

    def test_built_pair_saves_command_bytes(self, table5, tmp_path):
        # build_gutkin_table returns the (curve, meta) pair that save_table takes
        from gutkin.support_geometry import build_gutkin_table, save_table
        built = tmp_path / "built.json"
        save_table(built, *build_gutkin_table(5, 0, 1.0, 0.05))
        assert built.read_bytes() == table5.read_bytes()


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

    @pytest.mark.parametrize("delta", ["1e-7", "1e-8", "1e-9"])
    def test_delta_below_floor(self, table5, capsys, delta):
        # one refusal for every delta below the floor, whether or not the
        # start line's p rounds onto h(delta), as it does at 1e-8
        assert main(["verify", "--table", str(table5), "--delta", delta]) == 2
        assert capsys.readouterr().err == (f"error: delta {float(delta):g} is below "
                                           "the incidence floor 1e-06\n")

    def test_delta_just_above_floor(self, table5, capsys):
        # a valid delta 1e-13 above the floor: every departure line meets the
        # boundary at or above it, and none is refused as near-tangent
        assert main(["--json", "verify", "--table", str(table5),
                     "--delta", "1.0000001e-6"]) == 0
        assert json.loads(capsys.readouterr().out)["residual"] <= 1e-15

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

    # Case ids carry the head of the message only: the full text is asserted.
    @pytest.mark.parametrize("p, message", [
        pytest.param("1.5", "error: line (p=1.5, phi=0.3) misses the table at bounce 0\n",
                     id="1.5-error: line (p=1.5, phi=0.3) misses the table\n"),
        pytest.param(repr(math.cos(5e-7)), "error: near-tangent chord: line (p=1, phi=0.3), "
                                           "incidence 5.00022e-07 at bounce 0\n",
                     id=f"{math.cos(5e-7)!r}-error: near-tangent chord\n"),
    ])
    def test_failed_orbit(self, tmp_path, capsys, p, message):
        path = tmp_path / "circle.json"
        path.write_text(json.dumps({"a0": 1.0, "harmonics": [], "gutkin": None}))
        assert main(["orbit", "--table", str(path), "--p", p, "--phi", "0.3",
                     "--steps", "4", "--out", str(tmp_path / "o.csv")]) == 2
        assert capsys.readouterr().err == message

    @pytest.mark.parametrize("flag", ["--p", "--phi"])
    def test_negative_value_in_exponent_form(self, table5, tmp_path, flag):
        # argparse takes a token that starts with '-' for an option unless it
        # reads it as a number; both spellings must run the same orbit
        written = []
        for value in ([flag, "-1e-3"], [f"{flag}=-1e-3"]):
            out = tmp_path / f"o{len(written)}.csv"
            values = {"--p": ["--p", "0.3"], "--phi": ["--phi", "0.2"], flag: value}
            assert main(["orbit", "--table", str(table5), *values["--p"], *values["--phi"],
                         "--steps", "5", "--out", str(out)]) == 0
            written.append(out.read_bytes())
        assert written[0] == written[1]

    def test_out_is_directory(self, table5, tmp_path, capsys):
        assert main(["orbit", "--table", str(table5), "--p", "0.5", "--phi", "0",
                     "--steps", "3", "--out", str(tmp_path)]) == 2
        assert "is a directory" in capsys.readouterr().err


class TestPhasePortrait:
    def test_table_near_float_range(self, tmp_path, capsys):
        # h_min comes from the grid kernel, run at the scale of h_bound, so
        # a table near the float range keeps all 48 orbits, with no warning
        path = tmp_path / "t.json"
        assert main(["table", "--n", "5", "--a0", "1e306", "--an", "1e100",
                     "--out", str(path)]) == 0
        capsys.readouterr()
        assert main(["--json", "phase-portrait", "--table", str(path), "--steps", "20"]) == 0
        assert json.loads(capsys.readouterr().out)["orbits"] == 48

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

    @pytest.mark.parametrize("artifacts", [["--out", "o.csv", "--svg", "o.svg"],
                                           ["--out", "o.csv"]])
    def test_no_orbit_kept(self, tmp_path, monkeypatch, capsys, artifacts):
        # a unit circle centred at (2, 0): h_min = -1, so every start line at
        # phi = 0 misses the table
        monkeypatch.chdir(tmp_path)
        (tmp_path / "off.json").write_text(
            json.dumps({"a0": 1, "harmonics": [{"k": 1, "cos": 2.0}], "gutkin": None}))
        assert main(["--json", "phase-portrait", "--table", "off.json",
                     "--phi-grid", "1", *artifacts]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: all 12 orbits were dropped: none was followed for 200 bounces\n"
        assert not (tmp_path / "o.csv").exists() and not (tmp_path / "o.svg").exists()

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="start lines are +-0.9 h_min about the origin, not about the table")
    def test_translation_keeps_every_orbit(self, tmp_path, capsys):
        # a unit circle keeps all 48 orbits of the default grid; translated
        # by 2, its start lines p in +-0.9 h_min lie about the origin, and
        # 24 of them miss it
        kept = []
        for harmonics in ([], [{"k": 1, "cos": 2.0}]):
            path = tmp_path / "t.json"
            path.write_text(json.dumps({"a0": 1, "harmonics": harmonics, "gutkin": None}))
            assert main(["--json", "phase-portrait", "--table", str(path)]) == 0
            kept.append(json.loads(capsys.readouterr().out)["orbits"])
        assert kept == [48, 48]

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


def _random_harmonics(degree):
    """Harmonics k = 2..degree with cos and sin drawn in turn from
    0.05 U(-1, 1) / k^3, seeded by the degree."""
    rng = np.random.default_rng(degree)
    return [{"k": k, "cos": 0.05 * rng.uniform(-1, 1) / k ** 3,
             "sin": 0.05 * rng.uniform(-1, 1) / k ** 3} for k in range(2, degree + 1)]


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
        assert json.loads(capsys.readouterr().out)["quadrature"] == 0.0

    @pytest.mark.parametrize("a0, an", [("1e200", "5e199"), ("1e306", "5e305")])
    def test_overflow_refused(self, tmp_path, capsys, a0, an):
        # the integral of these tables exceeds the float range: one line on
        # stderr and nothing on stdout
        path = tmp_path / "t.json"
        assert main(["table", "--n", "5", "--a0", a0, "--an", an, "--out", str(path)]) == 0
        capsys.readouterr()
        assert main(["--json", "rigidity", "--table", str(path),
                     "--delta1", "0.1", "--delta2", "0.5"]) == 2
        assert capsys.readouterr() == ("", "error: the strip integral overflows the float range\n")

    @pytest.mark.parametrize("an, delta1, delta2, closed", [
        # the phi sum of this table overflows at its own scale, the integral
        # does not
        ("5e199", "1e-40", "2e-40", 3.8179077387375946e280),
        # squares of its harmonics at the scale of its width underflow
        ("1e-10", "0.1", "0.5", 2.572151921404912e-21),
    ])
    def test_huge_table_integral(self, tmp_path, capsys, an, delta1, delta2, closed):
        # both routes give the finite integral, formed at the scale of
        # harmonics 2..K
        path = tmp_path / "t.json"
        assert main(["table", "--n", "5", "--a0", "1e200", "--an", an,
                     "--out", str(path)]) == 0
        capsys.readouterr()
        assert main(["--json", "rigidity", "--table", str(path),
                     "--delta1", delta1, "--delta2", delta2]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["closed_form"] == pytest.approx(closed, rel=1e-14)
        assert doc["relative_gap"] < 1e-14

    def test_bad_strip(self, table5):
        assert main(["rigidity", "--table", str(table5),
                     "--delta1", "1.0", "--delta2", "0.5"]) == 2

    @pytest.mark.parametrize("harmonics, gap", [
        *(pytest.param([{"k": k, "cos": 0.3 / (1 - k ** 2), "sin": 0.0}], 1e-12, id=str(k))
          for k in (2, 9, 256, 300)),
        pytest.param(_random_harmonics(256), 1e-14, id="random-256"),
    ])
    def test_high_degree_not_aliased(self, tmp_path, capsys, harmonics, gap):
        # a table of degree K on 2K + 1 phi points; 2K would alias the
        # degree-2K integrand.  The single-harmonic tables have rho =
        # 1 + 0.3 cos(K phi); the random one every harmonic from 2 to 256
        path = tmp_path / "high.json"
        path.write_text(json.dumps({"a0": 1.0, "harmonics": harmonics}))
        assert main(["--json", "rigidity", "--table", str(path),
                     "--delta1", "0.3", "--delta2", "1.2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["quadrature"] == pytest.approx(doc["closed_form"], rel=1e-12)
        assert doc["relative_gap"] < gap

    @pytest.mark.parametrize("an", ["0.05", "0.5"])
    def test_degree_2000(self, tmp_path, capsys, an):
        # 4001 phi points from one inverse FFT, in place of a 4001 x 2000
        # table of complex exponentials
        path = tmp_path / "t2000.json"
        assert main(["table", "--n", "2000", "--a0", "1", "--an", an, "--out", str(path)]) == 0
        capsys.readouterr()
        for strip in (["--delta1", "0.3", "--delta2", "1.2"],
                      ["--delta1", repr(json.loads(path.read_text())["gutkin"]["delta"]),
                       "--delta2", repr(math.pi / 2)]):
            doc = _json_run(capsys, ["rigidity", "--table", str(path), *strip])
            assert doc["closed_form"] > 0
            assert doc["relative_gap"] <= 1e-15

    def test_translated_circle(self, tmp_path, capsys):
        # the first harmonic adds exactly 0 to both routes
        path = tmp_path / "shifted.json"
        path.write_text(json.dumps({"a0": 1.0, "harmonics": [{"k": 1, "cos": 0.3}]}))
        assert main(["--json", "rigidity", "--table", str(path),
                     "--delta1", "0.5", "--delta2", "1.5"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["closed_form"] == doc["quadrature"] == 0.0
        assert doc["relative_gap"] == 0.0

    def test_strip_whose_closed_form_underflows(self, tmp_path, capsys):
        # k = 1000 at 1e-163: |h_k|^2 = 1e-326 underflows at the scale 1, but
        # both routes form their sums at the scale of harmonic k and keep
        # the subnormal integral, 2.6533539751405455e-314 in 40 digits
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps({"a0": 1.0, "harmonics": [{"k": 1000, "cos": 1e-163}]}))
        assert main(["--json", "rigidity", "--table", str(path),
                     "--delta1", "0.3", "--delta2", "1.2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["closed_form"] == pytest.approx(2.6533539751405455e-314, rel=1e-9)
        assert doc["quadrature"] == pytest.approx(doc["closed_form"], rel=1e-9)
        assert math.isfinite(doc["relative_gap"])

    @pytest.mark.parametrize("first", [False, True], ids=["no-k1", "k1"])
    @pytest.mark.parametrize("eps", [1e-4, 1e-8, 1e-12, 1e-16, 1e-20])
    def test_near_circle(self, tmp_path, capsys, eps, first):
        # a table eps from a circle, whose integral is O(eps^2): the quadrature
        # keeps its bits, with or without a first harmonic
        harmonics = [{"k": 5, "cos": eps, "sin": 0.3 * eps}, {"k": 7, "cos": 0.5 * eps}]
        if first:
            harmonics.append({"k": 1, "cos": 0.3, "sin": -0.2})
        path = tmp_path / "near.json"
        path.write_text(json.dumps({"a0": 1.0, "harmonics": harmonics}))
        doc = _json_run(capsys, ["rigidity", "--table", str(path),
                                 "--delta1", "0.3", "--delta2", "1.2"])
        assert doc["closed_form"] > 0
        assert doc["relative_gap"] <= 1e-15
        assert abs(doc["quadrature"] - doc["closed_form"]) <= 1e-15 * doc["closed_form"]

    @pytest.mark.parametrize("delta1, delta2", [("1e-10", "2e-10"), ("1e-12", "1.5707963"),
                                                ("0.7", "0.7000001")])
    def test_small_and_thin_strips(self, table5, capsys, delta1, delta2):
        # F(d2) - F(d1), F(x) = (x - sin x cos x)/2, cancels on these strips; the
        # closed form must still agree with the quadrature
        assert main(["--json", "rigidity", "--table", str(table5),
                     "--delta1", delta1, "--delta2", delta2]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["closed_form"] > 0
        assert doc["relative_gap"] < 1e-12


def _json_run(capsys, argv):
    assert main(["--json", *argv]) == 0
    return json.loads(capsys.readouterr().out)


def _csv_rows(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _scaled_table(tmp, s, capsys, n=5):
    """The Gutkin table of order n, a0 = s, an = 0.05 s, written by ``table``."""
    path = tmp / "t.json"
    _json_run(capsys, ["table", "--n", str(n), "--a0", repr(s), "--an", repr(0.05 * s),
                       "--out", str(path)])
    return str(path)


def _scaled_spec(tmp, s):
    """The spheroid diag(4, 1, 1) scaled by s^2, half-widths by s."""
    path = tmp / "e.json"
    path.write_text(json.dumps({"d": 3, "A": [4 * s * s, 0, 0, 0, s * s, 0, 0, 0, s * s]}))
    return str(path)


def _run_table(tmp, s, capsys):
    with open(_scaled_table(tmp, s, capsys), encoding="utf-8") as f:
        table = json.load(f)
    harmonics = table["harmonics"]
    return [(table["gutkin"]["delta"], 0), (table["a0"], 1), ([e["k"] for e in harmonics], 0),
            ([[e["cos"], e["sin"]] for e in harmonics], 1)]


def _run_verify(tmp, s, capsys, n=5, flags=()):
    doc = _json_run(capsys, ["verify", "--table", _scaled_table(tmp, s, capsys, n), *flags])
    return [(doc["delta"], 0), (doc["residual"], 0), (doc["pass"], 0)]


def _run_orbit(tmp, s, capsys):
    out = tmp / "o.csv"
    _json_run(capsys, ["orbit", "--table", _scaled_table(tmp, s, capsys), "--p", repr(0.3 * s),
                       "--phi", "0.2", "--steps", "200", "--out", str(out)])
    rows = _csv_rows(out)
    return [(rows[:, 1], 1), (np.delete(rows, 1, axis=1), 0)]


def _run_phase_portrait(tmp, s, capsys):
    out, svg = tmp / "pp.csv", tmp / "pp.svg"
    doc = _json_run(capsys, ["phase-portrait", "--table", _scaled_table(tmp, s, capsys),
                             "--out", str(out), "--svg", str(svg)])
    rows = _csv_rows(out)
    return [(rows[:, 2], 1), (np.delete(rows, 2, axis=1), 0),
            ([doc["orbits"], doc["points"]], 0), (svg.read_bytes(), None)]


def _run_rigidity(tmp, s, capsys):
    doc = _json_run(capsys, ["rigidity", "--table", _scaled_table(tmp, s, capsys),
                             "--delta1", "0.91174", "--delta2", "1.5707963"])
    return [(doc["quadrature"], 2), (doc["closed_form"], 2), (doc["relative_gap"], 0)]


def _run_ellipsoid(tmp, s, capsys, line=()):
    out = tmp / "e.csv"
    _json_run(capsys, ["ellipsoid", "--spec", _scaled_spec(tmp, s), *line,
                       "--steps", "100", "--out", str(out)])
    rows = _csv_rows(out)
    return [(rows[:, 1:4], 1), (np.delete(rows, [1, 2, 3], axis=1), 0)]


def _run_ellipsoid_line(tmp, s, capsys):
    m = (np.array([0.24, -0.192, 0.0]) * s).tolist()
    return _run_ellipsoid(tmp, s, capsys, ["--n=0.48,0.6,0.64", "--m=" + ",".join(map(repr, m))])


def _run_gradient_check(tmp, s, capsys):
    doc = _json_run(capsys, ["gradient-check", "--spec", _scaled_spec(tmp, s)])
    return [(doc["pairs"], 0), (doc["max_residual"], 1), (doc["pass"], 0)]


def _run_chords(tmp, s, capsys, surface):
    out = tmp / "c.csv"
    body = (["--radius", repr(s)] if surface == "sphere"
            else ["--axes", f"{2 * s!r},{s!r},{s!r}"])
    _json_run(capsys, ["chords", "--surface", surface, *body, "--delta", "0.5236",
                       "--length", repr(2 * s), "--step", repr(1e-2 * s), "--out", str(out)])
    # s, k, tau, l, ldot, R5, R6, R9, D_numeric, D_analytic, A_coeff
    powers = [1, -1, -1, 1, 0, 0, 0, 0, -1, -1, 1]
    return [(column, power) for column, power in zip(_csv_rows(out).T, powers)]


SCALED_RUNS = {
    "table": _run_table,
    "verify": _run_verify,
    # 8 departures on a degree-9 table, sampled on the grid kernel's padded grid
    "verify-n9-grid8": functools.partial(_run_verify, n=9, flags=["--grid", "8"]),
    "orbit": _run_orbit,
    "phase-portrait": _run_phase_portrait,
    "rigidity": _run_rigidity,
    "ellipsoid": _run_ellipsoid,
    "ellipsoid-line": _run_ellipsoid_line,
    "gradient-check": _run_gradient_check,
    "chords-sphere": functools.partial(_run_chords, surface="sphere"),
    "chords-ellipsoid": functools.partial(_run_chords, surface="ellipsoid"),
}


@pytest.mark.parametrize("scale", [2.0 ** 20, 2.0 ** 60, 2.0 ** -60, 2.0 ** 120, 2.0 ** -120],
                         ids=["2^20", "2^60", "2^-60", "2^120", "2^-120"])
@pytest.mark.parametrize("command", list(SCALED_RUNS))
def test_every_command_scale_covariant(tmp_path, capsys, command, scale):
    """Each command on inputs scaled by a power of two s: every output is the
    unit run's times s^power, bit for bit, power 0 for angles, ratios and
    verdicts; an SVG is the same bytes.  No warning is raised."""
    (tmp_path / "unit").mkdir()
    (tmp_path / "scaled").mkdir()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        want = SCALED_RUNS[command](tmp_path / "unit", 1.0, capsys)
        got = SCALED_RUNS[command](tmp_path / "scaled", scale, capsys)
    assert len(got) == len(want)
    for (w, power), (g, _) in zip(want, got):
        if power is None:
            assert g == w
        else:
            assert np.array_equal(np.asarray(g, dtype=float),
                                  np.asarray(w, dtype=float) * scale ** power)


class TestScaleFree:
    """Tables and bodies far from unit size, which absolute thresholds once
    refused with exit 2."""

    def test_rigidity_gap_scaled_by_power_of_two(self, table5, tmp_path, capsys):
        doc = json.loads(table5.read_text())
        small = tmp_path / "small.json"
        scale = 2.0 ** -60
        small.write_text(json.dumps({
            "a0": doc["a0"] * scale,
            "harmonics": [{"k": e["k"], "cos": e["cos"] * scale, "sin": e["sin"] * scale}
                          for e in doc["harmonics"]]}))
        gaps = []
        for path in (table5, small):
            assert main(["--json", "rigidity", "--table", str(path), "--delta1", "0.91174",
                         "--delta2", "1.5707963"]) == 0
            gaps.append(json.loads(capsys.readouterr().out)["relative_gap"])
        assert gaps[0] == gaps[1] < 1e-12

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


    def test_huge_ellipsoid_chords(self, tmp_path):
        # semi-axes near 1e100, whose squares' squares overflow: no warning,
        # and the report is the unit body's, scaled; by a power of two bit for
        # bit, by 1e100 to 1e-12 in the columns with a length dimension
        unit = tmp_path / "unit.csv"
        assert main(["chords", "--surface", "ellipsoid", "--axes", "2,1,1",
                     "--delta", "0.5236", "--out", str(unit)]) == 0
        want = np.loadtxt(unit, delimiter=",", skiprows=1)
        # s, k, tau, l, ldot, R5, R6, R9, D_numeric, D_analytic, A_coeff
        power = np.array([1, -1, -1, 1, 0, 0, 0, 0, -1, -1, 1])
        for scale, exact in ((2.0 ** 332, True), (1e100, False)):
            out = tmp_path / "big.csv"
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main(["chords", "--surface", "ellipsoid",
                             "--axes", f"{2 * scale!r},{scale!r},{scale!r}",
                             "--delta", "0.5236", "--length", repr(2 * math.pi * scale),
                             "--step", repr(1e-3 * scale), "--out", str(out)]) == 0
            got = np.loadtxt(out, delimiter=",", skiprows=1) / scale ** power
            if exact:
                assert np.array_equal(got, want)
            else:
                cols = [0, 1, 2, 3, 8, 9, 10]
                err = np.abs(got[:, cols] - want[:, cols]).max(axis=0)
                assert (err <= 1e-12 * np.abs(want[:, cols]).max(axis=0)).all()

    def test_huge_ellipsoid_chords_default_length(self, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["chords", "--surface", "ellipsoid", "--axes", "2e100,1e100,1e100",
                         "--delta", "0.5236", "--out", str(tmp_path / "ce.csv")]) == 0


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


    def test_negative_first_entry(self, spheroid_spec, tmp_path):
        # a comma list that starts with '-' is a value, as its '=' form is
        written = []
        for line in (["--n", "-1,0,0", "--m", "0,0.5,0"], ["--n=-1,0,0", "--m=0,0.5,0"]):
            out = tmp_path / f"o{len(written)}.csv"
            assert main(["ellipsoid", "--spec", str(spheroid_spec), *line,
                         "--steps", "5", "--out", str(out)]) == 0
            written.append(out.read_bytes())
        assert written[0] == written[1]

    @pytest.mark.parametrize("axes2, delta, steps", [((1e6, 1.0, 1.0), "1e-3", 50),
                                                     ((1e6, 1.0, 1.0), "1e-5", 1),
                                                     ((1e4, 3.0, 0.5), "1e-5", 50)],
                             ids=["needle-1e-3", "needle-1e-5", "eccentric-1e-5"])
    def test_eccentric_launch_followed(self, tmp_path, axes2, delta, steps):
        # the launched line's first chord is solved from its departure
        # point; solved from (n, m), these launches were refused at bounce 0
        # as missing the quadric or tangent to it
        spec, out = tmp_path / "e.json", tmp_path / "o.csv"
        spec.write_text(json.dumps({"d": 3, "A": np.diag(axes2).ravel().tolist()}))
        assert main(["ellipsoid", "--spec", str(spec), "--delta", delta,
                     "--steps", str(steps), "--out", str(out)]) == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
        P, incidence = rows[:, 1:4], rows[:, -1]
        assert rows.shape == (steps, 8)
        assert np.abs(np.einsum("ij,ij->i", P / axes2, P) - 1.0).max() <= 1e-15
        assert abs(incidence[0] - float(delta)) <= 1e-3 * float(delta)
        assert (incidence > 0.97 * float(delta)).all()

    @pytest.mark.xfail(strict=True, reason="the first chord of a line given by its moment "
                       "carries the rounding of f = <A^-1 m, m> - 1 (ROADMAP item 14)")
    @pytest.mark.parametrize("axes2, delta", [((1e6, 1.0, 1.0), 1e-3), ((1e4, 3.0, 0.5), 1e-4)],
                             ids=["needle-1e-3", "eccentric-1e-4"])
    def test_eccentric_line_from_its_moment(self, tmp_path, axes2, delta):
        # the launched line of --delta, given as --n and --m in 17 digits,
        # against the 50-digit first incidence of that line as given.  From
        # its departure point the launched line reads 3.4e-5 and 5.0e-6 of
        # its own 50-digit incidence off it; from the moment the CLI reads
        # 2.2e-3 and 9.93e-5, off by 1.2 and 7.2e-3 of it, and exits 0
        q = bnd.Quadric(np.diag(axes2))
        n, x = bnd.launch_line(q, np.ones(3) / math.sqrt(3), delta)
        m = bnd.orbit_nd(q, n, x, 1)[1][0]
        spec, out = tmp_path / "e.json", tmp_path / "o.csv"
        spec.write_text(json.dumps({"d": 3, "A": np.diag(axes2).ravel().tolist()}))
        assert main(["ellipsoid", "--spec", str(spec), "--n=" + ",".join(map(FMT.format, n)),
                     "--m=" + ",".join(map(FMT.format, m)), "--steps", "1",
                     "--out", str(out)]) == 0
        got = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)[0, -1]
        with mpmath.workdps(50):
            A_inv = mpmath.diag([1 / mpmath.mpf(a) for a in axes2])
            M, N = mpmath.matrix(m.tolist()), mpmath.matrix(bnd.unit_vector(n).tolist())
            alpha, beta = (N.T * A_inv * N)[0], (M.T * A_inv * N)[0]
            X = M + (mpmath.sqrt(beta ** 2 - alpha * ((M.T * A_inv * M)[0] - 1)) - beta) / alpha * N
            nu = A_inv * X / mpmath.norm(A_inv * X)
            N2 = N - 2 * (N.T * nu)[0] * nu
            want = float(mpmath.asin(abs((N2.T * nu)[0]) / mpmath.norm(N2)))
        assert abs(got - want) <= 1e-4 * want

    def test_grazing_line(self, spheroid_spec, tmp_path, capsys):
        assert main(["ellipsoid", "--spec", str(spheroid_spec),
                     "--n=0.6873947407022538,0.5269927090470677,-0.4997671008240877",
                     "--m=-0.004189549631558638,0.690987976605847,0.7228682134780698",
                     "--steps", "1", "--out", str(tmp_path / "o.csv")]) == 2
        assert capsys.readouterr().err == ("error: line grazes the quadric at incidence "
                                           "8.97017e-08, below 1e-06, at bounce 0\n")

    @pytest.mark.parametrize("n, m, message", [
        ("nan,0,0", "0,0,0", "--n must be a nonzero finite vector"),
        ("0,0,0", "0,0,0", "--n must be a nonzero finite vector"),
        ("1,0,0", "nan,0,0", "m must be finite"),
        ("1,0,0", "0,inf,0", "m must be finite"),
        ("1,0,0", "1,0,0", "<m, n> = 1 != 0"),
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


@pytest.mark.parametrize("content, cause", [
    (b'{"a0": 1, "harmonics": [\xd0\x00]}', "'utf-8' codec can't decode byte 0xd0"),
    (b"[1\n", "Expecting ',' delimiter"),
])
@pytest.mark.parametrize("flag", ["--table", "--spec"])
def test_unparsable_file_named(tmp_path, capsys, content, cause, flag):
    # a file that is not UTF-8 JSON exits 2 with one line naming the file
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    command = (["verify", "--delta", "0.8"] if flag == "--table"
               else ["gradient-check", "--pairs", "3"])
    assert main(command + [flag, str(path)]) == 2
    err = capsys.readouterr().err
    what = flag[2:]
    assert err.startswith(f"error: {what} {path} is not UTF-8 JSON: {cause}")
    assert err.count("\n") == 1


class TestSpecValidation:
    @pytest.mark.parametrize("doc", [{"A": [1, 0, 0, 1]},
                                     {"d": 2, "A": [1, 0, 0]},
                                     {"d": 0, "A": []},
                                     [1, 0, 0, 1],
                                     {"d": 1, "A": [2.0]},
                                     {"d": 3, "A": {"x": 1}},
                                     {"d": 2, "A": [1, {"x": 1}, 0, 1]},
                                     {"d": 2, "A": [1, 0, 0, True]},
                                     {"d": 2, "A": [1, 0, 0, "1"]}])
    @pytest.mark.parametrize("command", ["ellipsoid", "gradient-check"])
    def test_malformed_spec(self, tmp_path, capsys, doc, command):
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps(doc))
        argv = [command, "--spec", str(spec)]
        if command == "ellipsoid":
            argv += ["--out", str(tmp_path / "o.csv")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: spec") and err.count("\n") == 1

    def test_nested_entries(self, tmp_path, capsys, spheroid_spec):
        # A given as rows reads as the flat list of its entries
        nested = tmp_path / "nested.json"
        nested.write_text(json.dumps({"d": 3, "A": [[4, 0, 0], [0, 1, 0], [0, 0, 1]]}))
        docs = [_json_run(capsys, ["gradient-check", "--spec", str(spec), "--pairs", "5"])
                for spec in (spheroid_spec, nested)]
        assert docs[0] == docs[1]

    @pytest.mark.parametrize("entry", ["NaN", "Infinity",
                                       pytest.param("1" + "0" * 400, id="int-past-float")])
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
        # a semi-axis whose square or the reciprocal of its square is not a
        # finite normal float
        ("chords", "--radius", "1e-170"),
        ("chords", "--radius", "1e160"),
        ("chords", "--radius", "inf"),
        ("chords", "--axes", "1e160,1,1"),
        ("chords", "--axes", "2,1,1e-155"),
        ("chords", "--axes", "2,nan,1"),
        ("orbit", "--p", "nan"),
        ("orbit", "--p", "inf"),
        ("orbit", "--phi", "inf"),
        ("orbit", "--phi", "nan"),
        ("orbit", "--phi", "-inf"),
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

    @pytest.mark.parametrize("d, pairs", [
        pytest.param(3, 30, id="3"), pytest.param(16, 30, id="16"),
        pytest.param(16, 100, id="16-100-pairs")])
    def test_blocks_give_one_block_result(self, tmp_path, monkeypatch, capsys, d, pairs):
        # blocks of 7 pairs draw and evaluate the same pairs as one block
        rng = np.random.default_rng(d)
        B = rng.normal(size=(d, d))
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"d": d, "A": (B @ B.T + d * np.eye(d)).ravel().tolist()}))
        argv = ["--json", "gradient-check", "--spec", str(spec), "--pairs", str(pairs)]
        assert main(argv) == 0
        one = json.loads(capsys.readouterr().out)
        monkeypatch.setattr(cli, "GRADIENT_BLOCK_ENTRIES", 7 * d * d)
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out) == one
        assert one["pairs"] == pairs and one["pass"] is True

    @pytest.mark.parametrize("d", [2, 3, 16])
    def test_pairs_are_the_one_pair_loop_pairs(self, d):
        # a block's pairs, and the stream left after them, are those of a
        # loop that draws and redraws one pair at a time
        loop_rng, want = np.random.default_rng(d), []
        while len(want) < 50:
            n1 = loop_rng.normal(size=d)
            n1 /= np.linalg.norm(n1)
            n2 = loop_rng.normal(size=d)
            n2 /= np.linalg.norm(n2)
            if np.linalg.norm(n1 - n2) >= 0.1:
                want.append((n1, n2))
        rng = np.random.default_rng(d)
        assert np.array_equal(cli._draw_pairs(rng, d, 50), np.array(want))
        assert rng.bit_generator.state == loop_rng.bit_generator.state

    @pytest.mark.parametrize("seed", ["abc", "-1", "1.5", ""])
    def test_malformed_seed_named(self, spheroid_spec, monkeypatch, capsys, seed):
        monkeypatch.setenv("GUTKIN_SEED", seed)
        assert main(["gradient-check", "--spec", str(spheroid_spec), "--pairs", "3"]) == 2
        assert capsys.readouterr().err == (
            f"error: GUTKIN_SEED must be a non-negative integer, got {seed!r}\n")

    def test_nan_residual_fails(self, spheroid_spec, monkeypatch, capsys):
        # a NaN residual fails the check instead of being skipped
        from gutkin import billiard_nd
        monkeypatch.setattr(billiard_nd, "gradient_contract_residual",
                            lambda q, n1, n2: (np.full(len(n1), math.nan), np.zeros(len(n1))))
        assert main(["--json", "gradient-check", "--spec", str(spheroid_spec),
                     "--pairs", "5"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["pass"] is False and math.isnan(doc["max_residual"])

    def test_body_near_float_limit_passes(self, tmp_path, capsys):
        # the residuals are lengths, checked against --tol times the body's
        # largest half-width; no square of the body overflows
        spec = tmp_path / "huge.json"
        spec.write_text(json.dumps({"d": 3, "A": [1e308, 0, 0, 0, 1e308, 0, 0, 0, 1e308]}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["--json", "gradient-check", "--spec", str(spec)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["pass"] is True and doc["max_residual"] < 1e-6 * 1e154

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

    @pytest.mark.parametrize("surface, length, step, steps", [
        # more series steps than a run may take, refused at the first,
        # however few the samples
        (["sphere"], "6e150", "1e150", "3.49e+150"),
        (["ellipsoid", "--axes", "2,1,1"], "6e100", "1e100", "5.51e+101"),
        (["sphere"], "1e8", "1e4", "5.82e+07"),
    ], ids=["sphere-6e150", "ellipsoid-6e100", "sphere-1e8"])
    def test_refused_run(self, tmp_path, capsys, surface, length, step, steps):
        out = tmp_path / "chords.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["chords", "--surface", *surface, "--delta", "0.5",
                         "--length", length, "--step", step, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        head = re.escape(f"error: length {float(length):g} would take {steps} series steps")
        assert re.fullmatch(head + r" of the mean length so far, [0-9.]+; "
                            r"a run may take at most 100000\n", err)
        assert not out.exists()

    @pytest.mark.parametrize("delta", [math.nextafter(MIN_DELTA, 0.0), 1e-300, 5e-324])
    def test_delta_below_least_refused(self, tmp_path, capsys, delta):
        # below 2^-510 a chord may not be a normal float: one line, no CSV
        out = tmp_path / "chords.csv"
        assert main(["chords", "--surface", "sphere", "--delta", repr(delta), "--length", "0.01",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == ("error: --delta must be at least 2^-510, or a chord "
                                           "may not be a normal float\n")
        assert not out.exists()

    @pytest.mark.parametrize("delta", [MIN_DELTA, 1e-13, 0.5, math.pi / 2])
    @pytest.mark.parametrize("radius", [AXIS_RANGE[0], 1.0, AXIS_RANGE[1]])
    def test_every_delta_at_every_radius(self, tmp_path, radius, delta):
        # the jet and the chord are formed in units of the quadric's size, so
        # at both ends of the radius range every column is finite, with no
        # RuntimeWarning, and l = 2 r sin(delta) to rounding (at most 5.6e-16
        # relative measured)
        out = tmp_path / "chords.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["chords", "--surface", "sphere", "--radius", repr(radius),
                         "--delta", repr(delta), "--length", repr(2 * radius),
                         "--step", repr(radius / 64), "--out", str(out)]) == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        assert np.isfinite(rows).all()
        assert np.abs(rows[:, 3] / (2 * radius * math.sin(delta)) - 1).max() < 1e-15

    def test_json_reports_series_steps(self, tmp_path, capsys):
        # the series steps and their worst drift do not depend on --step
        docs = []
        for step in ("1e-3", "0.1"):
            docs.append(_json_run(capsys, ["chords", "--surface", "ellipsoid", "--axes", "2,1,1",
                                           "--delta", "0.5", "--step", step,
                                           "--out", str(tmp_path / "c.csv")]))
        assert docs[0]["samples"] == 6284 and docs[1]["samples"] == 64
        assert docs[0]["series_steps"] == docs[1]["series_steps"] > 1
        assert docs[0]["max_drift"] == docs[1]["max_drift"] < 1e-14

    def test_short_run(self, tmp_path):
        # every column is a closed form at its own sample, so 4 samples suffice
        out = tmp_path / "chords.csv"
        assert main(["chords", "--surface", "sphere", "--delta", "0.5", "--length", "0.003",
                     "--step", "1e-3", "--out", str(out)]) == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        assert rows.shape == (4, 11)
        assert np.abs(rows[:, 3] - 2 * math.sin(0.5)).max() < 1e-15
        assert np.abs(rows[:, 5:8]).max() < 1e-15

    @pytest.mark.parametrize("delta", ["2", "0", "-0.5", "nan", "inf"])
    def test_delta_refused_before_integration(self, tmp_path, capsys, monkeypatch, delta):
        from gutkin import geodesic_chords

        def integrate(*args, **kwargs):
            pytest.fail("the geodesic was integrated for a --delta out of range")

        monkeypatch.setattr(geodesic_chords, "integrate_geodesic", integrate)
        out = tmp_path / "chords.csv"
        assert main(["chords", "--surface", "sphere", "--delta", delta, "--length", "30",
                     "--step", "1e-4", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: --delta must be in (0, pi/2]\n"
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

    @pytest.mark.parametrize("radius", ["0.7", "2.5e-3", "3e5"])
    def test_sphere_is_ellipsoid_with_equal_axes(self, tmp_path, radius):
        sphere, ellipsoid = tmp_path / "s.csv", tmp_path / "e.csv"
        r = float(radius)
        flags = ["--delta", "0.5236", "--length", repr(2 * r), "--step", repr(1e-2 * r)]
        assert main(["chords", "--surface", "sphere", "--radius", radius, *flags,
                     "--out", str(sphere)]) == 0
        assert main(["chords", "--surface", "ellipsoid", "--axes", ",".join([radius] * 3),
                     *flags, "--out", str(ellipsoid)]) == 0
        assert sphere.read_bytes() == ellipsoid.read_bytes()

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
