import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import trig_derivative, trig_eval
from gutkin.errors import InvalidHarmonic, NonClosedCurve, NonConvex
from gutkin.support_geometry import (GutkinTable, SupportCurve, TrigPolynomial,
                                     boundary_point, build_gutkin_table,
                                     check_constant_width, circle,
                                     curvature_radius, eval_support, load_table,
                                     save_table, solve_gutkin_angles,
                                     support_from_radius, table_from_dict,
                                     table_to_dict)


def gutkin5():
    return build_gutkin_table(5, 0, 1.0, 0.05)


class TestTrigPolynomial:
    """Values, derivatives and periods of a series, read through eval_support."""

    def test_constant(self):
        assert eval_support(SupportCurve(TrigPolynomial(1.0)), 0.7) == (1.0, 0.0, 0.0, 0.0)

    def test_eval_mixed(self):
        # f = 0.5 + 0.1 cos phi + 0.2 cos 2phi - 0.3 sin 2phi and its derivatives
        curve = SupportCurve(TrigPolynomial(0.5, [0.1, 0.2], [0.0, -0.3]))
        phi = 1.234
        c1, s1, c2, s2 = math.cos(phi), math.sin(phi), math.cos(2 * phi), math.sin(2 * phi)
        expected = (0.5 + 0.1 * c1 + 0.2 * c2 - 0.3 * s2,
                    -0.1 * s1 - 0.4 * s2 - 0.6 * c2,
                    -0.1 * c1 - 0.8 * c2 + 1.2 * s2,
                    0.1 * s1 + 1.6 * s2 + 2.4 * c2)
        assert eval_support(curve, phi) == pytest.approx(expected, abs=1e-15)

    def test_derivative_of_sin(self):
        curve = SupportCurve(TrigPolynomial(0.0, [0.0], [1.0]))  # sin(phi)
        assert eval_support(curve, 0.0) == pytest.approx((0.0, 1.0, 0.0, -1.0), abs=1e-15)
        assert eval_support(curve, math.pi / 2) == pytest.approx((1.0, 0.0, -1.0, 0.0),
                                                                 abs=1e-15)

    @given(st.lists(st.floats(-1, 1), min_size=1, max_size=6),
           st.floats(-10, 10))
    @settings(max_examples=50, deadline=None)
    def test_periodicity(self, coeffs, phi):
        curve = SupportCurve(TrigPolynomial(0.3, coeffs, coeffs[::-1]))
        assert eval_support(curve, phi + 2 * math.pi) == pytest.approx(
            eval_support(curve, phi), abs=1e-9)


class TestEvalSupport:
    def test_constant_curve(self):
        assert eval_support(circle(1.0), 0.7) == (1.0, 0.0, 0.0, 0.0)

    def test_gutkin5_at_zero(self):
        h, hp, hpp, hppp = eval_support(gutkin5().curve, 0.0)
        assert h == pytest.approx(1 - 0.05 / 24, abs=1e-12)
        assert hp == pytest.approx(0.0, abs=1e-15)
        assert hpp == pytest.approx(0.05 * 25 / 24, abs=1e-12)
        assert hppp == pytest.approx(0.0, abs=1e-15)

    def test_gutkin5_third_derivative(self):
        # h = 1 - (0.05/24) cos 5phi, so h''' = -(0.05/24) 125 sin 5phi
        phi = np.linspace(0.0, 2 * math.pi, 37)
        _, _, _, hppp = eval_support(gutkin5().curve, phi)
        assert np.abs(hppp + 0.05 / 24 * 125 * np.sin(5 * phi)).max() < 1e-14

    def test_pure_sine(self):
        curve = SupportCurve(TrigPolynomial(0.0, [0.0], [1.0]))
        h, hp, hpp, hppp = eval_support(curve, math.pi / 2)
        assert h == pytest.approx(1.0)
        assert hp == pytest.approx(0.0, abs=1e-15)
        assert hpp == pytest.approx(-1.0)
        assert hppp == pytest.approx(0.0, abs=1e-15)

    def test_array_matches_scalar_bitwise(self):
        # every output, from a flat array and from one of shape (1, 41, 1)
        curve = SupportCurve(TrigPolynomial(1.0, [0.0, 0.01, -0.004, 0.006],
                                            [0.0, 0.002, 0.0, -0.001]))
        phi = np.linspace(-7.0, 13.0, 41)
        flat = eval_support(curve, phi)
        nested = eval_support(curve, phi.reshape(1, 41, 1))
        for i, x in enumerate(phi):
            jet = eval_support(curve, x)
            assert jet == tuple(float(d[i]) for d in flat)
            assert jet == tuple(float(d[0, i, 0]) for d in nested)

    def test_matches_derivative_polynomials(self):
        f = TrigPolynomial(1.0, [0.0, 0.01, -0.004, 0.006], [0.0, 0.002, 0.0, -0.001])
        phi = np.linspace(0, 2 * math.pi, 97)
        h, hp, hpp, hppp = eval_support(SupportCurve(f), phi)
        fp = trig_derivative(f)
        fpp = trig_derivative(fp)
        assert np.abs(h - trig_eval(f, phi)).max() < 1e-15
        assert np.abs(hp - trig_eval(fp, phi)).max() < 1e-15
        assert np.abs(hpp - trig_eval(fpp, phi)).max() < 1e-14
        assert np.abs(hppp - trig_eval(trig_derivative(fpp), phi)).max() < 1e-14


class TestCurvatureRadius:
    def test_circle(self):
        assert curvature_radius(circle(2.5), 1.1) == pytest.approx(2.5)

    @pytest.mark.parametrize("phi,expected", [(0.0, 1.05), (math.pi / 5, 0.95)])
    def test_gutkin5(self, phi, expected):
        assert curvature_radius(gutkin5().curve, phi) == pytest.approx(
            expected, abs=1e-12)


    def test_rho_min_matches_grid(self):
        curve = SupportCurve(TrigPolynomial(1.0, [0.0, 0.03, -0.01, 0.004] + [0.0] * 27
                                            + [1e-5], [0.0, 0.0, 0.02]))
        grid = np.linspace(0, 2 * math.pi, 4096, endpoint=False)
        assert curve.rho_min == pytest.approx(curvature_radius(curve, grid).min(), abs=1e-14)


class TestBoundaryPoint:
    def test_unit_circle(self):
        assert boundary_point(circle(1.0), 0.0) == pytest.approx([1.0, 0.0])
        assert boundary_point(circle(1.0), math.pi / 2) == pytest.approx(
            [0.0, 1.0], abs=1e-15)

    def test_gutkin5_flat_point(self):
        x = boundary_point(gutkin5().curve, 0.0)
        assert x == pytest.approx([1 - 0.05 / 24, 0.0], abs=1e-12)

    def test_closed_trace(self):
        curve = gutkin5().curve
        for phi in np.linspace(0, 2 * math.pi, 17):
            a = boundary_point(curve, phi)
            b = boundary_point(curve, phi + 2 * math.pi)
            assert np.linalg.norm(a - b) < 1e-12

    def test_support_identity(self):
        # <x(phi), e_phi> = h(phi) by construction
        curve = gutkin5().curve
        phi = np.linspace(0, 2 * math.pi, 200)
        x = boundary_point(curve, phi)
        e = np.stack([np.cos(phi), np.sin(phi)], axis=-1)
        assert np.abs(np.sum(x * e, axis=1) - trig_eval(curve.h, phi)).max() < 1e-12


class TestSupportFromRadius:
    def test_circle(self):
        curve = support_from_radius(TrigPolynomial(1.0))
        assert curve.h.constant == 1.0
        assert not curve.h.cos_coeffs.any() and not curve.h.sin_coeffs.any()

    def test_fifth_harmonic(self):
        rho = TrigPolynomial(1.0, [0, 0, 0, 0, 0.05])
        curve = support_from_radius(rho)
        assert curve.h.cos_coeffs[4] == pytest.approx(-0.05 / 24, abs=1e-15)

    def test_first_harmonic_rejected(self):
        with pytest.raises(NonClosedCurve):
            support_from_radius(TrigPolynomial(1.0, [0.1]))

    def test_nonconvex_rejected(self):
        with pytest.raises(NonConvex):
            support_from_radius(TrigPolynomial(1.0, [0, 1.5]))

    @given(st.lists(st.floats(-0.01, 0.01), min_size=2, max_size=8))
    @settings(max_examples=30, deadline=None)
    def test_radius_roundtrip(self, coeffs):
        rho = TrigPolynomial(1.0, [0.0] + coeffs)
        curve = support_from_radius(rho)
        grid = np.linspace(0, 2 * math.pi, 4096, endpoint=False)
        h, _, hpp, _ = eval_support(curve, grid)
        assert np.abs(hpp + h - trig_eval(rho, grid)).max() < 1e-12


class TestGutkinAngles:
    def test_n4(self):
        roots = solve_gutkin_angles(4)
        assert roots == pytest.approx([math.atan(math.sqrt(5))], abs=1e-12)

    def test_n5(self):
        roots = solve_gutkin_angles(5)
        assert roots == pytest.approx([math.atan(math.sqrt(5 / 3))], abs=1e-12)

    def test_n7_quartic(self):
        # 3 t^4 - 14 t^2 + 7 = 0
        t2 = [(14 - math.sqrt(112)) / 6, (14 + math.sqrt(112)) / 6]
        expected = sorted(math.atan(math.sqrt(v)) for v in t2)
        assert solve_gutkin_angles(7) == pytest.approx(expected, abs=1e-12)

    def test_mpmath_oracle(self):
        # every root sits within two ulps of a sign change of tan(n d) - n tan(d)
        # evaluated at 40 digits, one on each branch ((2j-1) pi/2n, (2j+1) pi/2n);
        # rounding n*d in double moves the float root by up to about one ulp
        with mpmath.workdps(40):
            for n in range(4, 201):
                roots = solve_gutkin_angles(n)
                assert len(roots) == n // 2 - 1
                for j, r in enumerate(roots, start=1):
                    assert (2 * j - 1) * math.pi / (2 * n) < r < (2 * j + 1) * math.pi / (2 * n)
                    d, eps = mpmath.mpf(r), mpmath.mpf(2 * math.ulp(r))
                    g_lo = mpmath.tan(n * (d - eps)) - n * mpmath.tan(d - eps)
                    g_hi = mpmath.tan(n * (d + eps)) - n * mpmath.tan(d + eps)
                    assert g_lo < 0 < g_hi, (n, j, r)

    def test_rejects_small_n(self):
        with pytest.raises(InvalidHarmonic):
            solve_gutkin_angles(3)

    @pytest.mark.parametrize("n", range(4, 13))
    def test_roots_inside_and_residual(self, n):
        roots = solve_gutkin_angles(n)
        assert len(roots) == n // 2 - 1
        assert all(0 < r < math.pi / 2 for r in roots)
        assert roots == sorted(roots)
        for r in roots:
            assert abs(math.tan(n * r) - n * math.tan(r)) < 1e-10


class TestBuildGutkinTable:
    def test_n5(self):
        table = gutkin5()
        assert table.delta == pytest.approx(0.9117382909684876, abs=1e-10)
        assert trig_eval(table.curve.h, 0.0) == pytest.approx(1 - 0.05 / 24, abs=1e-12)
        assert abs(math.tan(5 * table.delta) - 5 * math.tan(table.delta)) < 1e-10

    def test_n4(self):
        table = build_gutkin_table(4, 0, 1.0, 0.05)
        assert table.delta == pytest.approx(1.1502619915109316, abs=1e-10)
        assert table.curve.h.cos_coeffs[3] == pytest.approx(-0.05 / 15, abs=1e-15)

    def test_nonconvex(self):
        with pytest.raises(NonConvex):
            build_gutkin_table(5, 0, 1.0, 1.0)

    @pytest.mark.parametrize("a0, an", [(math.inf, 0.05), (math.nan, 0.05),
                                        (1.0, math.nan), (1.0, -math.inf)])
    def test_non_finite_rejected(self, a0, an):
        with pytest.raises(ValueError, match="must be finite"):
            build_gutkin_table(5, 0, a0, an)

    def test_bad_root_index(self):
        with pytest.raises(IndexError):
            build_gutkin_table(5, 3, 1.0, 0.05)


class TestConstantWidth:
    def test_circle(self):
        assert check_constant_width(circle(1.0)) == (True, pytest.approx(2.0))

    def test_odd_harmonic(self):
        ok, width = check_constant_width(gutkin5().curve)
        assert ok and width == pytest.approx(2.0, abs=1e-12)

    def test_even_harmonic_fails(self):
        curve = SupportCurve(TrigPolynomial(1.0, [0, 0, 0, 0.01]))
        ok, _ = check_constant_width(curve)
        assert not ok


class TestTableJson:
    def test_roundtrip_bitwise(self, tmp_path):
        table = gutkin5()
        path = tmp_path / "t.json"
        save_table(path, table.curve, table)
        curve, meta = load_table(path)
        assert curve.h.constant == table.curve.h.constant
        assert np.array_equal(curve.h.cos_coeffs[:5], table.curve.h.cos_coeffs)
        assert meta["n"] == 5
        assert meta["delta"] == table.delta

    def test_nonconvex_rejected(self):
        # h = 1 + 0.5 cos 2phi has rho = 1 - 1.5 cos 2phi, so rho_min = -0.5
        with pytest.raises(NonConvex):
            table_from_dict({"a0": 1, "harmonics": [{"k": 2, "cos": 0.5, "sin": 0}]})

    @pytest.mark.parametrize("doc", [
        {"a0": math.nan, "harmonics": []},
        {"a0": math.inf, "harmonics": [{"k": 2, "cos": 0.1, "sin": 0}]},
        {"a0": 1.0, "harmonics": [{"k": 3, "cos": 0.0, "sin": math.nan}]},
    ])
    def test_non_finite_rejected(self, doc):
        with pytest.raises(ValueError, match="finite"):
            table_from_dict(doc)

    def test_plain_curve(self):
        doc = table_to_dict(circle(2.0))
        assert doc == {"a0": 2.0, "harmonics": [], "gutkin": None}
        curve, meta = table_from_dict(doc)
        assert meta is None
        assert curve.h.constant == 2.0

    @pytest.mark.parametrize("harmonics, match", [
        ([{"k": 3, "cos": 0.01}, {"k": 0, "cos": 0.05}], "'k' must be an integer >= 1, got 0"),
        ([{"k": -2, "cos": 0.01}], "'k' must be an integer >= 1, got -2"),
        ([{"k": 2.7, "cos": 0.01}], "'k' must be an integer >= 1, got 2.7"),
        ([{"k": 2.0, "cos": 0.01}], "'k' must be an integer >= 1, got 2.0"),
        ([{"k": True, "cos": 0.01}], "'k' must be an integer >= 1, got True"),
        ([{"k": "2", "cos": 0.01}], "'k' must be an integer >= 1, got '2'"),
        ([{"k": None, "cos": 0.01}], "'k' must be an integer >= 1, got None"),
        ([{"k": 0}], "'k' must be an integer >= 1, got 0"),
        ([{"k": 2, "cos": 0.01}, {"k": 2, "cos": 0.02}], "k = 2 is given more than once"),
        ([{"cos": 0.01}], "'harmonics' must be a list of objects with the key 'k'"),
        ([[2, 0.01]], "'harmonics' must be a list of objects with the key 'k'"),
        ({"k": 2, "cos": 0.01}, "'harmonics' must be a list of objects with the key 'k'"),
        (None, "'harmonics' must be a list of objects with the key 'k'"),
        ([{"k": 2, "cos": None}], "harmonic 2 'cos' must be a number, got None"),
        ([{"k": 2, "sin": True}], "harmonic 2 'sin' must be a number, got True"),
    ])
    def test_malformed_harmonics_rejected(self, harmonics, match):
        with pytest.raises(ValueError, match=re.escape(match)):
            table_from_dict({"a0": 1.0, "harmonics": harmonics})

    @pytest.mark.parametrize("a0", [None, [1], True, False, "1.0", {"v": 1}])
    def test_a0_not_a_number_rejected(self, a0):
        with pytest.raises(ValueError, match=re.escape(f"table 'a0' must be a number, got {a0!r}")):
            table_from_dict({"a0": a0, "harmonics": []})

    def test_a0_beyond_float_range_rejected(self):
        with pytest.raises(ValueError, match="table coefficients must be finite"):
            table_from_dict({"a0": 10 ** 400, "harmonics": []})

    @pytest.mark.parametrize("meta, match", [
        ({"n": 5}, "'gutkin' must be null or an object with the keys 'n' and 'delta'"),
        ({"delta": 0.9}, "'gutkin' must be null or an object with the keys 'n' and 'delta'"),
        ({}, "'gutkin' must be null or an object with the keys 'n' and 'delta'"),
        ([5, 0.9], "'gutkin' must be null or an object with the keys 'n' and 'delta'"),
        ("5", "'gutkin' must be null or an object with the keys 'n' and 'delta'"),
        ({"n": 5, "delta": None}, "gutkin 'delta' must be a number, got None"),
        ({"n": 5, "delta": True}, "gutkin 'delta' must be a number, got True"),
        ({"n": 5, "delta": "0.9"}, "gutkin 'delta' must be a number, got '0.9'"),
        ({"n": 5, "delta": math.nan}, "gutkin 'delta' must be finite, got nan"),
        ({"n": 5, "delta": -math.inf}, "gutkin 'delta' must be finite, got -inf"),
        ({"n": 5.0, "delta": 0.9}, "gutkin 'n' must be an integer, got 5.0"),
        ({"n": True, "delta": 0.9}, "gutkin 'n' must be an integer, got True"),
        ({"n": None, "delta": 0.9}, "gutkin 'n' must be an integer, got None"),
    ])
    def test_malformed_gutkin_metadata_rejected(self, meta, match):
        with pytest.raises(ValueError, match=re.escape(match)):
            table_from_dict({"a0": 1.0, "harmonics": [], "gutkin": meta})

    def test_gutkin_metadata_delta_read_as_float(self):
        _, meta = table_from_dict({"a0": 1.0, "harmonics": [], "gutkin": {"n": 5, "delta": 1}})
        assert meta == {"n": 5, "delta": 1.0}
        assert type(meta["delta"]) is float

    def test_harmonics_in_any_order(self):
        curve, _ = table_from_dict({"a0": 1.0, "harmonics": [{"k": 3, "sin": 0.01},
                                                              {"k": 1, "cos": 0.02}]})
        assert curve.h.cos_coeffs.tolist() == [0.02, 0.0, 0.0]
        assert curve.h.sin_coeffs.tolist() == [0.0, 0.0, 0.01]
