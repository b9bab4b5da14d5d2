import math

import mpmath
import numpy as np
import pytest

from conftest import trig_derivative, trig_eval
from gutkin import billiard2d
from gutkin.billiard2d import (MISSES, NEAR_TANGENT, SOLVED, OrientedLine2D, Strip,
                               chord_incidence_angles, constant_angle_line,
                               generating_function, orbit, orbits,
                               reflect_geometric, reflect_variational,
                               rigidity_integral, rigidity_integral_closed,
                               solve_chords, solve_variational,
                               verify_constant_angle)
from gutkin.errors import (ConvergenceFailure, DegenerateChord, NoIntersection,
                           TangentLine)
from gutkin.support_geometry import (SupportCurve, TrigPolynomial,
                                     build_gutkin_table, circle, support_from_radius)

TWO_PI = 2 * math.pi


@pytest.fixture(scope="module")
def gutkin5():
    return build_gutkin_table(5, 0, 1.0, 0.05)


def angle_diff(a, b):
    return abs((a - b + math.pi) % TWO_PI - math.pi)


class TestGeneratingValue:
    def test_circle_quarter(self):
        assert generating_function(circle(1.0), 0.0, math.pi / 2)[0] == pytest.approx(
            math.sqrt(2), abs=1e-15)

    def test_circle_diameter(self):
        assert generating_function(circle(1.0), 0.0, math.pi)[0] == pytest.approx(2.0)

    def test_gutkin5(self, gutkin5):
        delta = 0.91174
        mid = delta
        expected = 2 * (1 - 0.00208333333333 * math.cos(5 * mid)) * math.sin(delta)
        got = generating_function(gutkin5.curve, 0.0, 2 * delta)[0]
        assert got == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("d", [0.0, -0.3, TWO_PI, math.nan])
    def test_degenerate(self, d):
        with pytest.raises(DegenerateChord):
            generating_function(circle(1.0), 1.0, 1.0 + d)

    def test_degenerate_in_array(self):
        # one bad pair anywhere refuses the whole batch
        phi2 = np.array([[1.5, 2.0], [3.0, 1.0 + TWO_PI]])
        with pytest.raises(DegenerateChord, match="6.28"):
            generating_function(circle(1.0), np.ones((2, 2)), phi2)


class TestGeneratingDerivs:
    def test_circle_quarter(self):
        _, s11, s12, s22 = generating_function(circle(1.0), 0.0, math.pi / 2)
        val = 0.5 * math.sin(math.pi / 4)
        assert s11 == pytest.approx(-val)
        assert s22 == pytest.approx(-val)
        assert s12 == pytest.approx(val)

    def test_circle_diameter(self):
        _, s11, s12, s22 = generating_function(circle(1.0), 0.0, math.pi)
        assert (s11, s12, s22) == pytest.approx((-0.5, 0.5, -0.5))

    def test_finite_difference_oracle(self, gutkin5):
        # independent oracle: direct formula 2 h(mid) sin(alpha) evaluated in
        # extended precision so the 1e-5 step is not drowned by roundoff
        rng = np.random.default_rng(7)
        eps = 1e-5
        curve = gutkin5.curve
        const = np.longdouble(curve.h.constant)
        a_k = curve.h.cos_coeffs.astype(np.longdouble)
        b_k = curve.h.sin_coeffs.astype(np.longdouble)
        k = np.arange(1, a_k.size + 1, dtype=np.longdouble)

        def S(p1, p2):
            mid = (np.longdouble(p1) + np.longdouble(p2)) / 2
            alpha = (np.longdouble(p2) - np.longdouble(p1)) / 2
            h = const + np.sum(a_k * np.cos(k * mid)) + np.sum(b_k * np.sin(k * mid))
            return 2 * h * np.sin(alpha)

        for _ in range(20):
            phi1 = rng.uniform(0, TWO_PI)
            phi2 = phi1 + rng.uniform(0.3, TWO_PI - 0.3)
            _, s11, s12, s22 = generating_function(curve, phi1, phi2)

            fd11 = (S(phi1 + eps, phi2) - 2 * S(phi1, phi2)
                    + S(phi1 - eps, phi2)) / eps ** 2
            fd22 = (S(phi1, phi2 + eps) - 2 * S(phi1, phi2)
                    + S(phi1, phi2 - eps)) / eps ** 2
            fd12 = (S(phi1 + eps, phi2 + eps) - S(phi1 + eps, phi2 - eps)
                    - S(phi1 - eps, phi2 + eps) + S(phi1 - eps, phi2 - eps)) \
                / (4 * eps ** 2)
            assert s11 == pytest.approx(fd11, abs=1e-6)
            assert s12 == pytest.approx(fd12, abs=1e-6)
            assert s22 == pytest.approx(fd22, abs=1e-6)

    def test_twist_positive(self, gutkin5):
        rng = np.random.default_rng(11)
        for _ in range(200):
            phi1 = rng.uniform(0, TWO_PI)
            phi2 = phi1 + rng.uniform(1e-3, TWO_PI - 1e-3)
            _, _, s12, _ = generating_function(gutkin5.curve, phi1, phi2)
            assert s12 > 0

    def test_array_matches_scalar_bitwise(self, gutkin5):
        rng = np.random.default_rng(13)
        phi1 = rng.uniform(0, TWO_PI, (3, 50))
        phi2 = phi1 + rng.uniform(1e-3, TWO_PI - 1e-3, (3, 50))
        batch = generating_function(gutkin5.curve, phi1, phi2)
        assert all(value.shape == (3, 50) for value in batch)
        for i, j in np.ndindex(3, 50):
            scalar = generating_function(gutkin5.curve, phi1[i, j], phi2[i, j])
            assert [float(v) for v in scalar] == [v[i, j] for v in batch]

    @pytest.mark.parametrize("table", ["gutkin5", "degree32"])
    def test_rigidity_reduction(self, gutkin5, table):
        # (S11 + 2 S12 + S22) S12 = h''(h''+h) sin^2(alpha), the integrand that
        # rigidity_integral reduces the strip integral to; h from the oracle
        curve = gutkin5.curve if table == "gutkin5" else degree32_table()
        rng = np.random.default_rng(19)
        phi1 = rng.uniform(0, TWO_PI, 400)
        phi2 = phi1 + rng.uniform(1e-3, TWO_PI - 1e-3, 400)
        _, s11, s12, s22 = generating_function(curve, phi1, phi2)
        mid, alpha = 0.5 * (phi1 + phi2), 0.5 * (phi2 - phi1)
        h = trig_eval(curve.h, mid)
        hpp = trig_eval(trig_derivative(trig_derivative(curve.h)), mid)
        want = hpp * (hpp + h) * np.sin(alpha) ** 2
        # the sum cancels terms of the size of h, about 1, down to 2 h'' sin(alpha)
        assert np.abs((s11 + 2 * s12 + s22) * s12 - want).max() < 1e-15


class TestReflectGeometric:
    def test_circle_chord(self):
        nxt, chord = reflect_geometric(circle(1.0), OrientedLine2D(0.5, 0.0))
        assert nxt.p == pytest.approx(0.5, abs=1e-12)
        assert nxt.phi == pytest.approx(2 * math.pi / 3, abs=1e-12)
        assert chord.angle_back == pytest.approx(math.pi / 3, abs=1e-12)

    def test_circle_diameter(self):
        nxt, _ = reflect_geometric(circle(1.0), OrientedLine2D(0.0, 1.3))
        assert nxt.p == pytest.approx(0.0, abs=1e-12)
        assert angle_diff(nxt.phi, 1.3 + math.pi) < 1e-12

    def test_billiard_law(self, gutkin5):
        line = OrientedLine2D(0.4, 1.7)
        _, chord_in = reflect_geometric(gutkin5.curve, line)
        nxt, _ = reflect_geometric(gutkin5.curve, line)
        _, chord_out = reflect_geometric(gutkin5.curve, nxt)
        assert chord_in.angle_fwd == pytest.approx(chord_out.angle_back, abs=1e-10)

    def test_gutkin_invariance(self, gutkin5):
        delta = gutkin5.delta
        for psi in np.linspace(0, TWO_PI, 16, endpoint=False):
            line = constant_angle_line(gutkin5.curve, delta, psi)
            nxt, _ = reflect_geometric(gutkin5.curve, line)
            chord = chord_incidence_angles(gutkin5.curve, nxt)
            assert abs(chord.angle_back - delta) < 1e-8

    def test_missing_line(self):
        with pytest.raises(NoIntersection):
            reflect_geometric(circle(1.0), OrientedLine2D(1.5, 0.0))


class TestReflectVariational:
    def test_circle(self):
        out = reflect_variational(circle(1.0), OrientedLine2D(0.5, 0.0))
        assert out.p == pytest.approx(0.5, abs=1e-12)
        assert out.phi == pytest.approx(2 * math.pi / 3, abs=1e-12)

    def test_circle_rotation(self):
        delta, phi0 = 0.3, 1.1
        out = reflect_variational(circle(1.0), OrientedLine2D(math.cos(delta), phi0))
        assert out.p == pytest.approx(math.cos(delta), abs=1e-12)
        assert angle_diff(out.phi, phi0 + 2 * delta) < 1e-12

    def test_matches_geometric(self, gutkin5):
        rng = np.random.default_rng(3)
        for _ in range(200):
            line = OrientedLine2D(rng.uniform(-0.8, 0.8), rng.uniform(0, TWO_PI))
            geo, _ = reflect_geometric(gutkin5.curve, line)
            var = reflect_variational(gutkin5.curve, line)
            assert abs(geo.p - var.p) < 1e-9
            assert angle_diff(geo.phi, var.phi) < 1e-9

    @pytest.mark.parametrize("delta", [2e-3, 0.01, 0.045])
    def test_matches_geometric_near_tangent(self, gutkin5, delta):
        # lines leaving the boundary at a small angle delta to the tangent
        for psi in np.linspace(0, TWO_PI, 12, endpoint=False):
            line = constant_angle_line(gutkin5.curve, delta, psi)
            geo, chord = reflect_geometric(gutkin5.curve, line)
            var = reflect_variational(gutkin5.curve, line)
            assert chord.angle_back == pytest.approx(delta, abs=1e-10)
            assert abs(geo.p - var.p) < 1e-9
            assert angle_diff(geo.phi, var.phi) < 1e-9

    def test_exact_form_consistency(self, gutkin5):
        # p1 = -d1 S and p2 = +d2 S along geometrically computed chords
        curve = gutkin5.curve
        rng = np.random.default_rng(5)
        for _ in range(50):
            line = OrientedLine2D(rng.uniform(-0.8, 0.8), rng.uniform(0, TWO_PI))
            nxt, _ = reflect_geometric(curve, line)
            phi1 = line.phi
            phi2 = nxt.phi if nxt.phi > phi1 else nxt.phi + TWO_PI
            eps = 1e-6
            S, *_ = generating_function(curve, phi1 + np.array([eps, -eps, 0, 0]),
                                        phi2 + np.array([0, 0, eps, -eps]))
            d1 = (S[0] - S[1]) / (2 * eps)
            d2 = (S[2] - S[3]) / (2 * eps)
            assert -d1 == pytest.approx(line.p, abs=1e-9)
            assert d2 == pytest.approx(nxt.p, abs=1e-9)


class TestChordIncidence:
    def test_circle(self):
        chord = chord_incidence_angles(circle(1.0), OrientedLine2D(0.5, 0.0))
        assert chord.angle_back == pytest.approx(math.pi / 3, abs=1e-12)
        assert chord.angle_fwd == pytest.approx(math.pi / 3, abs=1e-12)

    def test_diameter(self):
        chord = chord_incidence_angles(circle(1.0), OrientedLine2D(0.0, 0.0))
        assert chord.angle_back == pytest.approx(math.pi / 2, abs=1e-12)
        assert chord.angle_fwd == pytest.approx(math.pi / 2, abs=1e-12)

    def test_gutkin_property(self, gutkin5):
        line = constant_angle_line(gutkin5.curve, gutkin5.delta, 0.37)
        chord = chord_incidence_angles(gutkin5.curve, line)
        assert abs(chord.angle_back - gutkin5.delta) < 1e-8
        assert abs(chord.angle_fwd - gutkin5.delta) < 1e-8

    def test_near_tangent_circle(self):
        # near-tangent: the chord spans only 0.089 rad of Gauss parameter
        chord = chord_incidence_angles(circle(1.0), OrientedLine2D(0.999, 0.05))
        assert chord.angle_back == pytest.approx(math.acos(0.999), abs=1e-12)
        assert chord.angle_fwd == pytest.approx(math.acos(0.999), abs=1e-12)

    def test_tangent_line_misses(self):
        with pytest.raises(NoIntersection):
            chord_incidence_angles(circle(1.0), OrientedLine2D(1.0, 0.3))

    def test_endpoints_on_line(self, gutkin5):
        from gutkin.support_geometry import boundary_point
        line = OrientedLine2D(0.23, 2.1)
        chord = chord_incidence_angles(gutkin5.curve, line)
        e = np.array([math.cos(line.phi), math.sin(line.phi)])
        for psi in (chord.psi_back, chord.psi_fwd):
            assert abs(boundary_point(gutkin5.curve, psi) @ e - line.p) < 1e-10


class TestConstantAngleLine:
    def test_circle(self):
        line = constant_angle_line(circle(1.0), math.pi / 3, 0.0)
        assert line.p == pytest.approx(0.5, abs=1e-15)
        assert line.phi == pytest.approx(math.pi / 3)

    def test_diameters(self):
        for psi in (0.0, 1.0, 4.0):
            line = constant_angle_line(circle(1.0), math.pi / 2, psi)
            assert line.p == pytest.approx(0.0, abs=1e-15)
            assert angle_diff(line.phi, psi + math.pi / 2) < 1e-12

    def test_gutkin_start(self, gutkin5):
        delta = gutkin5.delta
        line = constant_angle_line(gutkin5.curve, delta, 0.0)
        assert line.p == pytest.approx(
            trig_eval(gutkin5.curve.h, 0.0) * math.cos(delta), abs=1e-12)
        assert line.phi == pytest.approx(delta)


class TestVerifyConstantAngle:
    @pytest.mark.parametrize("delta", [0.7, 0.02, 2e-3])
    def test_circle(self, delta):
        assert verify_constant_angle(circle(1.0), delta, 360) < 1e-12

    def test_gutkin_at_root(self, gutkin5):
        assert verify_constant_angle(gutkin5.curve, gutkin5.delta, 360) < 1e-8

    def test_negative_control(self, gutkin5):
        assert verify_constant_angle(gutkin5.curve, 0.5, 360) > 1e-3


class TestOrbit:
    def test_circle_rotation(self):
        p, phi, _ = orbit(circle(1.0), OrientedLine2D(0.5, 0.0), 3)
        assert len(p) == len(phi) == 4
        for i in range(4):
            assert p[i] == pytest.approx(0.5, abs=1e-11)
            assert angle_diff(phi[i], i * 2 * math.pi / 3) < 1e-11

    def test_period_8(self):
        p, phi, _ = orbit(circle(1.0), OrientedLine2D(math.cos(math.pi / 4), 0.0), 8)
        assert p[-1] == pytest.approx(p[0], abs=1e-10)
        assert angle_diff(phi[-1], phi[0]) < 1e-10

    def test_billiard_law_along_orbit(self, gutkin5):
        _, _, chords = orbit(gutkin5.curve, OrientedLine2D(0.31, 0.9), 20)
        for a, b in zip(chords.angle_fwd[:-1], chords.angle_back[1:]):
            assert abs(a - b) < 1e-9

    def test_circle_measure_sanity(self):
        line = constant_angle_line(circle(1.0), 0.4, 0.0)
        p, _, _ = orbit(circle(1.0), line, 30)
        assert max(abs(p - line.p)) < 1e-11

    def test_missing_line(self):
        with pytest.raises(NoIntersection, match="misses the table"):
            orbit(circle(1.0), OrientedLine2D(1.5, 0.0), 4)

    def test_near_tangent_line(self):
        # incidence 5e-7 on the unit circle, below MIN_CHORD_ANGLE
        with pytest.raises(TangentLine, match="near-tangent chord"):
            orbit(circle(1.0), OrientedLine2D(math.cos(5e-7), 0.3), 4)


class TestRigidity:
    def test_circle_zero(self):
        strip = Strip(0.3, 1.2)
        assert abs(rigidity_integral(circle(1.0), strip)) < 1e-10
        assert rigidity_integral_closed(circle(1.0), strip) == 0.0

    def test_gutkin5_value(self, gutkin5):
        strip = Strip(0.91174, math.pi / 2)
        closed = rigidity_integral_closed(gutkin5.curve, strip)
        quad = rigidity_integral(gutkin5.curve, strip)
        # phi-factor is pi * n^2 an^2 / (n^2-1)
        phi_factor = math.pi * 25 * 0.05 ** 2 / 24
        assert closed / phi_factor == pytest.approx(
            2 * (0.25 * math.pi - 0.5 * (0.91174 - math.sin(0.91174) * math.cos(0.91174))),
            rel=1e-10)
        assert quad == pytest.approx(closed, rel=1e-6)
        assert quad == pytest.approx(9.35e-3, rel=1e-2)

    def test_wirtinger_positive_small_ellipse(self):
        curve = SupportCurve(TrigPolynomial(1.0, [0.0, 0.01]))
        strip = Strip(0.2, 1.0)
        val = rigidity_integral(curve, strip)
        assert val > 0
        assert val == pytest.approx(rigidity_integral_closed(curve, strip), rel=1e-6)

    @pytest.mark.parametrize("degree", [256, 300])
    def test_high_degree_not_aliased(self, degree):
        # the phi integrand has degree 2K; 512 trapezoid points alias it from K = 256
        rho = TrigPolynomial(1.0, np.r_[np.zeros(degree - 1), 0.3])
        curve = support_from_radius(rho)
        strip = Strip(0.3, 1.2)
        assert rigidity_integral(curve, strip) == pytest.approx(
            rigidity_integral_closed(curve, strip), rel=1e-12)

    def test_closed_nonnegative(self):
        rng = np.random.default_rng(9)
        strip = Strip(0.4, 1.1)
        for _ in range(20):
            coeffs = rng.uniform(-0.01, 0.01, size=6)
            coeffs[0] = 0.0
            curve = SupportCurve(TrigPolynomial(1.0, coeffs))
            assert rigidity_integral_closed(curve, strip) >= 0

    def test_strip_validation(self):
        with pytest.raises(ValueError):
            Strip(1.0, 0.5)


class TestBatchedSolves:
    """A batch of lines gives, bit for bit, what the scalar wrappers give."""

    @pytest.fixture(scope="class")
    def lines(self, gutkin5):
        rng = np.random.default_rng(17)
        phi = rng.uniform(0, TWO_PI, 40)
        p = rng.uniform(-0.95, 0.95, 40)
        p[:8] = trig_eval(gutkin5.curve.h, phi[:8]) * (1 - 10.0 ** -rng.uniform(2, 9, 8))
        p[8] = 1.5  # misses
        return p, phi

    def test_chords(self, gutkin5, lines):
        batch = solve_chords(gutkin5.curve, *lines)
        assert batch.status[8] == MISSES
        for i, (p, phi) in enumerate(zip(*lines)):
            if batch.status[i] != SOLVED:
                with pytest.raises(NoIntersection):
                    chord_incidence_angles(gutkin5.curve, OrientedLine2D(p, phi))
                continue
            chord = chord_incidence_angles(gutkin5.curve, OrientedLine2D(p, phi))
            assert (chord.psi_back, chord.psi_fwd, chord.angle_back, chord.angle_fwd) == (
                batch.psi_back[i], batch.psi_fwd[i], batch.angle_back[i], batch.angle_fwd[i])

    def test_variational(self, gutkin5, lines):
        p2, phi2, status = solve_variational(gutkin5.curve, *lines)
        for i, (p, phi) in enumerate(zip(*lines)):
            if status[i] != SOLVED:
                continue
            nxt = reflect_variational(gutkin5.curve, OrientedLine2D(p, phi))
            assert (nxt.p, nxt.phi) == (p2[i], phi2[i])

    def test_iteration_cap(self, gutkin5, monkeypatch):
        monkeypatch.setattr(billiard2d, "NEWTON_CAP", 1)
        line = OrientedLine2D(0.3, 0.4)
        with pytest.raises(ConvergenceFailure):
            chord_incidence_angles(gutkin5.curve, line)
        with pytest.raises(ConvergenceFailure):
            reflect_variational(gutkin5.curve, line)

    def test_orbits(self, gutkin5, lines):
        p0, phi0 = lines
        ps, phis, chords = orbits(gutkin5.curve, p0, phi0, 12)
        ok = (chords.status == SOLVED).all(axis=0)
        assert not ok[8] and ok.sum() >= 30
        for i in np.flatnonzero(ok):
            line = OrientedLine2D(p0[i], phi0[i])
            for step in range(12):
                assert (line.p, line.phi) == (ps[step, i], phis[step, i])
                line, chord = reflect_geometric(gutkin5.curve, line)
                assert [f[0] for f in chord] == [f[step, i] for f in chords]
            assert (line.p, line.phi) == (ps[12, i], phis[12, i])

    def test_failed_orbit_carries_nan(self):
        # a line that misses, one that is near-tangent on the circle, and one that completes
        curve = circle(1.0)
        p0 = np.array([1.5, math.cos(5e-7), 0.5])
        ps, phis, chords = orbits(curve, p0, np.zeros(3), 3)
        assert list(chords.status[0]) == [MISSES, NEAR_TANGENT, SOLVED]
        assert (chords.status[1:, :2] == MISSES).all()
        assert np.isnan(ps[1:, :2]).all() and np.isnan(phis[1:, :2]).all()
        assert (chords.status[:, 2] == SOLVED).all() and np.isfinite(ps[:, 2]).all()


class TestAngleReduction:
    """The mod of a tiny negative angle rounds up to exactly 2*pi; every
    reduction maps it to 0 so phi stays in [0, 2*pi)."""

    def test_line(self):
        assert OrientedLine2D(0.3, -1e-20).phi == 0.0

    def test_batch(self):
        _, phi = billiard2d._lines(0.3, -1e-20)
        assert phi.tolist() == [0.0]

    def test_mirror_law(self):
        _, phi2 = billiard2d._outgoing(circle(1.0), np.array([1e-20]), np.array([0.0]))
        assert phi2.tolist() == [0.0]


def degree32_table():
    rng = np.random.default_rng(32)
    k = np.arange(1, 33.0)
    cos_c, sin_c = rng.normal(size=(2, 32)) * 0.05 / k ** 2
    cos_c[0] = sin_c[0] = 0.0
    return support_from_radius(TrigPolynomial(1.0, cos_c, sin_c))


class TestMpmathOracle:
    """Chord endpoints and variational bounces against 50-digit roots found by
    mpmath inside the exact brackets, on 40 lines a table, 10 of them 1e-6 to
    1e-9 inside a tangent line."""

    @staticmethod
    def mp_support(curve):
        """(h, h') at an mpf angle, from the float coefficients taken exactly."""
        a = [mpmath.mpf(float(x)) for x in curve.h.cos_coeffs]
        b = [mpmath.mpf(float(x)) for x in curve.h.sin_coeffs]
        ka = [(k + 1) * x for k, x in enumerate(a)]
        kb = [(k + 1) * x for k, x in enumerate(b)]
        constant = mpmath.mpf(float(curve.h.constant))

        def support(phi):
            # cos(k phi), sin(k phi) by the Chebyshev recurrence
            c1, s1 = mpmath.cos(phi), mpmath.sin(phi)
            cos_k, sin_k = [mpmath.mpf(1), c1], [mpmath.mpf(0), s1]
            for _ in range(len(a) - 1):
                cos_k.append(2 * c1 * cos_k[-1] - cos_k[-2])
                sin_k.append(2 * c1 * sin_k[-1] - sin_k[-2])
            cos_k, sin_k = cos_k[1:len(a) + 1], sin_k[1:len(a) + 1]
            return (constant + mpmath.fdot(a, cos_k) + mpmath.fdot(b, sin_k),
                    mpmath.fdot(kb, cos_k) - mpmath.fdot(ka, sin_k))
        return support

    @staticmethod
    def wrapped(x):
        return float(abs((x + mpmath.pi) % (2 * mpmath.pi) - mpmath.pi))

    @pytest.mark.parametrize("table", ["gutkin5", "degree32"])
    def test_endpoints_and_bounces(self, gutkin5, table):
        curve = gutkin5.curve if table == "gutkin5" else degree32_table()
        rng = np.random.default_rng(41)
        phi = rng.uniform(0.0, TWO_PI, 40)
        lo, hi = -trig_eval(curve.h, phi + math.pi), trig_eval(curve.h, phi)
        p = lo + (hi - lo) * rng.uniform(0.02, 0.98, 40)
        offset = 10.0 ** -np.linspace(6, 9, 5)
        p[:5], p[5:10] = hi[:5] - offset, lo[5:10] + offset
        chords = solve_chords(curve, p, phi)
        p2, phi2, status = solve_variational(curve, p, phi)
        assert (chords.status == SOLVED).all() and (status == SOLVED).all()
        support = self.mp_support(curve)
        with mpmath.workdps(50):
            for i in range(40):
                pi_, phii = mpmath.mpf(p[i]), mpmath.mpf(phi[i])

                def f(psi):
                    h, hp = support(psi)
                    return h * mpmath.cos(psi - phii) - hp * mpmath.sin(psi - phii) - pi_

                def r(x):
                    h, hp = support((phii + x) / 2)
                    alpha = (x - phii) / 2
                    return h * mpmath.cos(alpha) - hp * mpmath.sin(alpha) - pi_

                fwd = mpmath.findroot(f, (phii, phii + mpmath.pi), solver="anderson")
                back = mpmath.findroot(f, (phii + mpmath.pi, phii + 2 * mpmath.pi),
                                       solver="anderson")
                nxt = mpmath.findroot(r, (phii, phii + 2 * mpmath.pi), solver="anderson")
                h, hp = support((phii + nxt) / 2)
                alpha = (nxt - phii) / 2
                p_nxt = h * mpmath.cos(alpha) + hp * mpmath.sin(alpha)
                assert abs(float(p2[i] - p_nxt)) < 1e-13
                if i >= 10:
                    assert self.wrapped(chords.psi_fwd[i] - fwd) < 1e-13
                    assert self.wrapped(chords.psi_back[i] - back) < 1e-13
                    assert self.wrapped(phi2[i] - nxt) < 1e-13
                    continue
                # Near tangency |f'| = rho sin(incidence) is about 1e-4, and
                # one rounding of f's terms moves its root by about 1e-12, so
                # these roots are held to their residual: within 4 eps of the
                # size of f's terms, twice the solver's own noise floor.
                def size(psi):
                    h, hp = support(psi)
                    return (abs(h) + abs(hp) + abs(pi_)) * np.finfo(float).eps

                x_fwd, x_back = mpmath.mpf(chords.psi_fwd[i]), mpmath.mpf(chords.psi_back[i])
                x_nxt = phii + (mpmath.mpf(phi2[i]) - phii) % (2 * mpmath.pi)
                assert abs(f(x_fwd)) < 4 * size(x_fwd)
                assert abs(f(x_back)) < 4 * size(x_back)
                assert abs(r(x_nxt)) < 4 * size((phii + x_nxt) / 2)


class TestEvaluationBudget:
    """Boundary evaluations per bounce, counted through ``_newton``: the
    Halley step keeps them near 3, with both ends of a chord in one solve."""

    @pytest.fixture()
    def evaluations(self, monkeypatch):
        count = [0]
        newton = billiard2d._newton

        def counting(evaluate, *args):
            def counted(x):
                count[0] += 1
                return evaluate(x)
            return newton(counted, *args)

        monkeypatch.setattr(billiard2d, "_newton", counting)
        return count

    @pytest.mark.parametrize("table", ["gutkin5", "degree32"])
    @pytest.mark.parametrize("p, phi", [(0.3, 0.2), (-0.7, 4.0), (0.05, 2.5)])
    def test_per_bounce(self, gutkin5, evaluations, table, p, phi):
        curve = gutkin5.curve if table == "gutkin5" else degree32_table()
        orbit(curve, OrientedLine2D(p, phi), 100)
        assert evaluations[0] <= 350
        evaluations[0] = 0
        line = OrientedLine2D(p, phi)
        for _ in range(100):
            line = reflect_variational(curve, line)
        assert evaluations[0] <= 350

    @pytest.mark.parametrize("table", ["gutkin5", "degree32"])
    def test_per_chord(self, gutkin5, evaluations, table):
        # both ends of a chord in one lock-step solve, the backward one as the
        # forward end of the reversed line
        curve = gutkin5.curve if table == "gutkin5" else degree32_table()
        rng = np.random.default_rng(5)
        for p, phi in zip(rng.uniform(-0.9, 0.9, 20), rng.uniform(0.0, TWO_PI, 20)):
            chord_incidence_angles(curve, OrientedLine2D(p, phi))
        assert evaluations[0] <= 70

    @pytest.mark.parametrize("p, phi", [(0.3, 0.2), (-0.7, 4.0), (0.05, 2.5)])
    def test_one_path_to_h(self, gutkin5, monkeypatch, p, phi):
        # the solvers reach h only through the module's eval_support, the
        # function a tracer wraps to count boundary evaluations
        curve, line = gutkin5.curve, OrientedLine2D(p, phi)
        geo, chord = reflect_geometric(curve, line)
        var = reflect_variational(curve, line)
        calls = [0]
        evaluate = billiard2d.eval_support

        def counting(*args):
            calls[0] += 1
            return evaluate(*args)

        monkeypatch.setattr(billiard2d, "eval_support", counting)
        geo_counted, chord_counted = reflect_geometric(curve, line)
        geo_calls, calls[0] = calls[0], 0
        var_counted = reflect_variational(curve, line)
        assert geo_counted == geo and var_counted == var
        assert all(np.array_equal(a, b) for a, b in zip(chord_counted, chord))
        assert geo_calls >= 3 and calls[0] >= 3
        assert abs(var.p - geo.p) < 1e-12 and angle_diff(var.phi, geo.phi) < 1e-12


class TestScaleFree:
    """Scaling a table by a power of two scales every length exactly and
    leaves every angle alone, so the map must give the same bits."""

    SCALE = 2.0 ** -43

    def test_orbit_and_verify(self, gutkin5):
        small = build_gutkin_table(5, 0, self.SCALE, 0.05 * self.SCALE)
        p, phi, chords = orbit(gutkin5.curve, OrientedLine2D(0.3, 0.2), 200)
        p_s, phi_s, chords_s = orbit(small.curve, OrientedLine2D(0.3 * self.SCALE, 0.2), 200)
        assert np.array_equal(p_s, p * self.SCALE) and np.array_equal(phi_s, phi)
        assert all(np.array_equal(a, b) for a, b in zip(chords_s, chords))
        assert verify_constant_angle(small.curve, small.delta) == verify_constant_angle(
            gutkin5.curve, gutkin5.delta)

    def test_chord_length_positive(self):
        # a chord of length 2e-13 on a circle of radius 1e-13 is solved
        chord = chord_incidence_angles(circle(1e-13), OrientedLine2D(0.0, 0.4))
        assert chord.angle_back == pytest.approx(math.pi / 2, abs=1e-12)
        assert angle_diff(chord.psi_fwd - chord.psi_back, math.pi) < 1e-12
