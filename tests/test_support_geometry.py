import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bisect_gutkin_angles, trig_derivative, trig_eval
from gutkin.errors import InvalidHarmonic, NonClosedCurve, NonConvex
from gutkin.support_geometry import (SupportCurve, TrigPolynomial,
                                     boundary_point, build_gutkin_table,
                                     check_constant_width, circle,
                                     curvature_radius, eval_support, load_table,
                                     save_table, solve_gutkin_angles,
                                     support_from_radius, support_grid,
                                     table_from_dict, table_to_dict)


def gutkin5():
    """The curve of the n = 5 table; build_gutkin_table pairs it with its metadata."""
    curve, _ = build_gutkin_table(5, 0, 1.0, 0.05)
    return curve


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
        h, hp, hpp, hppp = eval_support(gutkin5(), 0.0)
        assert h == pytest.approx(1 - 0.05 / 24, abs=1e-12)
        assert hp == pytest.approx(0.0, abs=1e-15)
        assert hpp == pytest.approx(0.05 * 25 / 24, abs=1e-12)
        assert hppp == pytest.approx(0.0, abs=1e-15)

    def test_gutkin5_third_derivative(self):
        # h = 1 - (0.05/24) cos 5phi, so h''' = -(0.05/24) 125 sin 5phi
        phi = np.linspace(0.0, 2 * math.pi, 37)
        _, _, _, hppp = eval_support(gutkin5(), phi)
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

    def test_waves_bits_of_the_plain_product(self):
        # e^{i k phi} from the cached i k: the bits of the jet built from
        # np.exp(1j * np.multiply.outer(phi, k))
        rng = np.random.default_rng(32)
        a, b = rng.normal(size=(2, 32)) / np.arange(1, 33) ** 2
        curve = SupportCurve(TrigPolynomial(1.0, a, b))
        phi = rng.uniform(-60.0, 60.0, 20000)
        k = np.arange(1, 33, dtype=float)
        waves = np.exp(1j * np.multiply.outer(phi, k))
        plain = np.einsum("...k,kj->j...", waves, curve._coeffs).real
        plain[0] = plain[0] + 1.0
        assert np.array_equal(np.array(eval_support(curve, phi)), plain)

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
        assert curvature_radius(gutkin5(), phi) == pytest.approx(
            expected, abs=1e-12)


    def test_rho_min_matches_grid(self):
        curve = SupportCurve(TrigPolynomial(1.0, [0.0, 0.03, -0.01, 0.004] + [0.0] * 27
                                            + [1e-5], [0.0, 0.0, 0.02]))
        grid = np.linspace(0, 2 * math.pi, 4096, endpoint=False)
        assert curve.rho_min == pytest.approx(curvature_radius(curve, grid).min(), abs=1e-14)


def random_curve(rng, degree: int) -> SupportCurve:
    a, b = rng.normal(size=(2, degree)) / (1.0 + np.arange(degree)) ** 2
    return SupportCurve(TrigPolynomial(rng.normal(), a, b))


# the symbols of h and its first three derivatives, for support_grid
JET = (lambda k: 1, lambda k: 1j * k, lambda k: -k * k, lambda k: -1j * k ** 3)


def radius_samples(h: TrigPolynomial) -> np.ndarray:
    """rho = h'' + h on max(4096, 2K + 2) angles by one inverse FFT, as
    rho_min was first computed: the reference for its bits."""
    k = np.arange(1, h.cos_coeffs.size + 1)
    size = max(4096, 2 * k.size + 2)
    spectrum = np.zeros(size // 2 + 1, dtype=complex)
    spectrum[0] = size * h.constant
    spectrum[1:k.size + 1] = 0.5 * size * (1 - k * k) * (h.cos_coeffs - 1j * h.sin_coeffs)
    return np.fft.irfft(spectrum, size)


class TestSupportGrid:
    @pytest.mark.parametrize("size", [8, 9, 120, 512, 513, 1024])
    @pytest.mark.parametrize("degree", [0, 1, 5, 32, 256])
    def test_matches_eval_support(self, degree, size):
        # sizes up to 2K take the padded grid.  eval_support rounds the angle
        # and each phase k phi, an error of up to 2 pi eps times the next
        # derivative's coefficient sum; the grid's angles are exact
        rng = np.random.default_rng(degree * 1000 + size)
        curve = random_curve(rng, degree)
        grid = support_grid(curve, size, *JET)
        assert grid.shape == (4, size)
        jet = eval_support(curve, 2 * math.pi * np.arange(size) / size)
        k = np.arange(1, degree + 1)
        amplitude = np.hypot(curve.h.cos_coeffs, curve.h.sin_coeffs)
        for j in range(4):
            l1 = np.sum(k ** j * amplitude) + (abs(curve.h.constant) if j == 0 else 0.0)
            tol = 4 * np.finfo(float).eps * (l1 + 2 * math.pi * np.sum(k ** (j + 1) * amplitude))
            assert np.abs(grid[j] - jet[j]).max() <= tol

    def test_rho_min_bits_of_one_fft(self):
        # rho_min comes from the grid kernel with the symbol 1 - k^2, bit for
        # bit the single inverse FFT it replaced, on both grid sizes
        rng = np.random.default_rng(30)
        for degree in [*rng.integers(0, 300, 28), 2048, 2500]:
            curve = random_curve(rng, int(degree))
            assert curve.rho_min == float(radius_samples(curve.h).min())

    @pytest.mark.parametrize("e", [-120, 120])
    @pytest.mark.parametrize("size", [9, 512])
    def test_scales_exactly(self, e, size):
        curve = random_curve(np.random.default_rng(7), 32)
        assert np.array_equal(support_grid(scaled_curve(curve, e), size, *JET),
                              np.ldexp(support_grid(curve, size, *JET), e))


def scaled_curve(curve: SupportCurve, e: int) -> SupportCurve:
    """The curve with h scaled by 2^e."""
    h = curve.h
    return SupportCurve(TrigPolynomial(math.ldexp(h.constant, e), np.ldexp(h.cos_coeffs, e),
                                       np.ldexp(h.sin_coeffs, e)))


class TestHBound:
    """h_bound = |h_0| + sum_k (1 + k) |a_k - i b_k| bounds |h| + |h'|, the
    size of the terms of the planar solvers' residual, at every angle."""

    @pytest.mark.parametrize("degree", [2, 3, 5, 16, 32, 64])
    def test_bounds_samples(self, degree):
        rng = np.random.default_rng(degree)
        for _ in range(10):
            curve = random_curve(rng, degree)
            h, hp = support_grid(curve, 4096, *JET[:2])
            assert np.max(np.abs(h) + np.abs(hp)) <= curve.h_bound

    def test_translated_circle(self):
        # h = 1 + 0.625 cos(phi - theta): |h| + |h'| peaks at
        # 1 + 0.625 sqrt(2), below the bound 1 + 2 * 0.625
        curve = SupportCurve(TrigPolynomial(1.0, [0.375], [-0.5]))
        h, hp = support_grid(curve, 4096, *JET[:2])
        assert np.max(np.abs(h) + np.abs(hp)) <= curve.h_bound == 2.25
        assert circle(2.5).h_bound == 2.5

    @pytest.mark.parametrize("e", [-120, -60, -1, 1, 60, 120])
    def test_scales_exactly(self, e):
        rng = np.random.default_rng(64)
        for degree in (2, 32, 64):
            curve = random_curve(rng, degree)
            assert scaled_curve(curve, e).h_bound == math.ldexp(curve.h_bound, e)


class TestBoundaryPoint:
    def test_unit_circle(self):
        assert boundary_point(circle(1.0), 0.0) == pytest.approx([1.0, 0.0])
        assert boundary_point(circle(1.0), math.pi / 2) == pytest.approx(
            [0.0, 1.0], abs=1e-15)

    def test_gutkin5_flat_point(self):
        x = boundary_point(gutkin5(), 0.0)
        assert x == pytest.approx([1 - 0.05 / 24, 0.0], abs=1e-12)

    def test_closed_trace(self):
        curve = gutkin5()
        for phi in np.linspace(0, 2 * math.pi, 17):
            a = boundary_point(curve, phi)
            b = boundary_point(curve, phi + 2 * math.pi)
            assert np.linalg.norm(a - b) < 1e-12

    def test_support_identity(self):
        # <x(phi), e_phi> = h(phi) by construction
        curve = gutkin5()
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

    def test_closure_relative_to_mean_radius(self):
        # an absolute tolerance accepted the first and refused the second
        with pytest.raises(NonClosedCurve):
            support_from_radius(TrigPolynomial(1e-13, [5e-14]))
        curve = support_from_radius(TrigPolynomial(1e13, [1e-11]))
        assert curve.h.constant == 1e13 and not curve.h.cos_coeffs.any()

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

    @pytest.mark.parametrize("n", [329, 500, 1000])
    def test_mpmath_oracle_large_n(self, n):
        # the sign-change check of test_mpmath_oracle at orders past 200
        with mpmath.workdps(40):
            roots = solve_gutkin_angles(n)
            assert len(roots) == n // 2 - 1
            for j, r in enumerate(roots, start=1):
                assert (2 * j - 1) * math.pi / (2 * n) < r < (2 * j + 1) * math.pi / (2 * n)
                d, eps = mpmath.mpf(r), mpmath.mpf(2 * math.ulp(r))
                g_lo = mpmath.tan(n * (d - eps)) - n * mpmath.tan(d - eps)
                g_hi = mpmath.tan(n * (d + eps)) - n * mpmath.tan(d + eps)
                assert g_lo < 0 < g_hi, (n, j, r)

    def test_bit_identical_to_branch_bisection(self):
        for n in range(4, 201):
            assert solve_gutkin_angles(n) == bisect_gutkin_angles(n), n

    def test_n329_j1_pinned(self):
        # the one root for n <= 500 where the Newton solve and branch
        # bisection differ: 2 ulps apart, each within 2 ulps of the 40-digit
        # sign change, which test_mpmath_oracle_large_n checks
        assert solve_gutkin_angles(329)[0] == 0.01365782156788932
        assert bisect_gutkin_angles(329)[0] == 0.013657821567889316

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
        curve, meta = build_gutkin_table(5, 0, 1.0, 0.05)
        delta = meta["delta"]
        assert meta == {"n": 5, "delta": delta}
        assert delta == pytest.approx(0.9117382909684876, abs=1e-10)
        assert trig_eval(curve.h, 0.0) == pytest.approx(1 - 0.05 / 24, abs=1e-12)
        assert abs(math.tan(5 * delta) - 5 * math.tan(delta)) < 1e-10

    def test_n4(self):
        curve, meta = build_gutkin_table(4, 0, 1.0, 0.05)
        assert meta["delta"] == pytest.approx(1.1502619915109316, abs=1e-10)
        assert curve.h.cos_coeffs[3] == pytest.approx(-0.05 / 15, abs=1e-15)

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
        ok, width = check_constant_width(gutkin5())
        assert ok and width == pytest.approx(2.0, abs=1e-12)

    def test_even_harmonic_fails(self):
        curve = SupportCurve(TrigPolynomial(1.0, [0, 0, 0, 0.01]))
        ok, _ = check_constant_width(curve)
        assert not ok

    def test_small_even_harmonic_table_fails(self):
        # width deviation 2.3e-15, below an absolute tolerance of 1e-12
        scale = 2.0 ** -43
        curve = SupportCurve(TrigPolynomial(scale, [0, 0, 0, 0.01 * scale]))
        ok, width = check_constant_width(curve)
        assert not ok and width == 2 * scale

    @pytest.mark.parametrize("scale", [2.0 ** -40, 2.0 ** 40])
    @pytest.mark.parametrize("n", [5, 7, 9])
    def test_scaled_gutkin_tables(self, n, scale):
        ok, width = check_constant_width(build_gutkin_table(n, 0, scale, 0.03 * scale)[0])
        assert ok and width == 2 * scale


class TestTableJson:
    def test_roundtrip_bitwise(self, tmp_path):
        table, table_meta = build_gutkin_table(5, 0, 1.0, 0.05)
        path = tmp_path / "t.json"
        save_table(path, table, table_meta)
        curve, meta = load_table(path)
        assert curve.h.constant == table.h.constant
        assert np.array_equal(curve.h.cos_coeffs[:5], table.h.cos_coeffs)
        assert meta["n"] == 5
        assert meta["delta"] == table_meta["delta"]

    @pytest.mark.parametrize("meta", [{"n": 5}, {"n": 5.0, "delta": 0.9},
                                      {"n": 5, "delta": math.nan},
                                      build_gutkin_table(5, 0, 1.0, 0.05)])
    def test_bad_metadata_writes_nothing(self, tmp_path, meta):
        path = tmp_path / "t.json"
        with pytest.raises(ValueError, match="gutkin"):
            save_table(path, gutkin5(), meta)
        assert not path.exists()

    def test_nonconvex_rejected(self):
        # h = 1 + 0.5 cos 2phi has rho = 1 - 1.5 cos 2phi, so rho_min = -0.5
        with pytest.raises(NonConvex):
            table_from_dict({"a0": 1, "harmonics": [{"k": 2, "cos": 0.5, "sin": 0}]})

    def test_overflowing_curvature_samples_rejected(self):
        # finite coefficients whose convexity-grid spectrum overflows to
        # inf - inf, as their width 2 h_bound does: the table is refused by
        # the width rule without a warning, built or loaded
        width = "^the table's width 2 h_bound overflows the float range$"
        with pytest.raises(OverflowError, match=width):
            build_gutkin_table(5, 0, 1e308, 1e307)
        with pytest.raises(OverflowError, match=width):
            table_from_dict({"a0": 1e308, "harmonics": [{"k": 2, "cos": 1e307}]})

    @pytest.mark.parametrize("a0, an", [(1e308, 1e300), (1e308, 1e-300), (9e307, 1e300)])
    def test_overflowing_width_rejected(self, a0, an):
        # every curvature sample reads +inf, which the convexity test alone
        # passed; 2 h_bound is not finite, so the table is refused built and
        # loaded, with or without harmonics
        width = "^the table's width 2 h_bound overflows the float range$"
        with pytest.raises(OverflowError, match=width):
            build_gutkin_table(5, 0, a0, an)
        for doc in ({"a0": a0, "harmonics": [{"k": 4, "cos": an / -24}]},
                    {"a0": a0, "harmonics": []}):
            with pytest.raises(OverflowError, match=width):
                table_from_dict(doc)

    def test_overflowing_derivative_columns_rejected(self):
        # the width is finite, but k^3 |c_k| = 1e310 is not: eval_support
        # would read h''' = -inf, so the table is refused without a warning,
        # loaded or built
        columns = r"^the table's derivative columns \(i k\)\^j c_k overflow the float range$"
        with pytest.raises(OverflowError, match=columns):
            table_from_dict({"a0": 1e307, "harmonics": [{"k": 1000, "cos": 1e301}]})
        with pytest.raises(OverflowError, match=columns):
            build_gutkin_table(1000, 0, 1e307, 1e306)
        # 100 times smaller, every column is finite and the table loads
        curve, _ = table_from_dict({"a0": 1e307, "harmonics": [{"k": 1000, "cos": 1e299}]})
        assert np.isfinite(curve._coeffs).all()

    @pytest.mark.parametrize("a0", [8.98e307, 1e307, 1e-300])
    def test_finite_width_loads_bit_for_bit(self, a0):
        # 2 h_bound = 2 a0 is finite up to a0 = 8.98e307: the table loads,
        # reads its radius as rho_min and round-trips bit for bit
        doc = {"a0": a0, "harmonics": [], "gutkin": None}
        curve, _ = table_from_dict(doc)
        assert math.isfinite(2.0 * curve.h_bound) and curve.rho_min == a0
        assert table_to_dict(curve) == doc
        curve, _ = build_gutkin_table(5, 0, a0, a0 * 1e-8)
        again, _ = table_from_dict(table_to_dict(curve))
        assert np.array_equal(again.h.cos_coeffs, curve.h.cos_coeffs)
        assert again.rho_min == curve.rho_min

    @pytest.mark.parametrize("a0, rho_min", [(1e305, 1e305), (1e200, 1e200)])
    def test_huge_tables_accepted(self, a0, rho_min):
        # taken with no warning, and the convexity grid, run at the scale of
        # h_bound, reads the true least curvature radius
        curve, _ = build_gutkin_table(5, 0, a0, 1e100)
        assert curve.rho_min == pytest.approx(rho_min, rel=1e-12)

    @pytest.mark.parametrize("content, cause", [
        (b"\xd0\x00", "'utf-8' codec can't decode"),
        (b'{"a0": 1,', "Expecting property name"),
    ])
    def test_unparsable_file_named(self, tmp_path, content, cause):
        path = tmp_path / "t.json"
        path.write_bytes(content)
        with pytest.raises(ValueError, match=re.escape(f"table {path} is not UTF-8 JSON: {cause}")):
            load_table(path)

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
