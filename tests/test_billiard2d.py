import math

import numpy as np
import pytest

from gutkin import billiard2d
from gutkin.billiard2d import (MISSES, SOLVED, ChordData, OrientedLine2D, Strip,
                               chord_incidence_angles, constant_angle_line,
                               generating_second_derivs, generating_value,
                               orbit, orbits, reflect_geometric, reflect_variational,
                               rigidity_integral, rigidity_integral_closed,
                               solve_chords, solve_variational,
                               verify_constant_angle)
from gutkin.errors import ConvergenceFailure, DegenerateChord, NoIntersection
from gutkin.support_geometry import (SupportCurve, TrigPolynomial,
                                     build_gutkin_table, circle)

TWO_PI = 2 * math.pi


@pytest.fixture(scope="module")
def gutkin5():
    return build_gutkin_table(5, 0, 1.0, 0.05)


def angle_diff(a, b):
    return abs((a - b + math.pi) % TWO_PI - math.pi)


class TestGeneratingValue:
    def test_circle_quarter(self):
        assert generating_value(circle(1.0), 0.0, math.pi / 2) == pytest.approx(
            math.sqrt(2), abs=1e-15)

    def test_circle_diameter(self):
        assert generating_value(circle(1.0), 0.0, math.pi) == pytest.approx(2.0)

    def test_gutkin5(self, gutkin5):
        delta = 0.91174
        mid = delta
        expected = 2 * (1 - 0.00208333333333 * math.cos(5 * mid)) * math.sin(delta)
        got = generating_value(gutkin5.curve, 0.0, 2 * delta)
        assert got == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("d", [0.0, -0.3, TWO_PI])
    def test_degenerate(self, d):
        with pytest.raises(DegenerateChord):
            generating_value(circle(1.0), 1.0, 1.0 + d)


class TestGeneratingDerivs:
    def test_circle_quarter(self):
        s11, s12, s22 = generating_second_derivs(circle(1.0), 0.0, math.pi / 2)
        val = 0.5 * math.sin(math.pi / 4)
        assert s11 == pytest.approx(-val)
        assert s22 == pytest.approx(-val)
        assert s12 == pytest.approx(val)

    def test_circle_diameter(self):
        s11, s12, s22 = generating_second_derivs(circle(1.0), 0.0, math.pi)
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
            s11, s12, s22 = generating_second_derivs(curve, phi1, phi2)

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
            _, s12, _ = generating_second_derivs(gutkin5.curve, phi1, phi2)
            assert s12 > 0


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
            d1 = (generating_value(curve, phi1 + eps, phi2)
                  - generating_value(curve, phi1 - eps, phi2)) / (2 * eps)
            d2 = (generating_value(curve, phi1, phi2 + eps)
                  - generating_value(curve, phi1, phi2 - eps)) / (2 * eps)
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
            float(gutkin5.curve.h(0.0)) * math.cos(delta), abs=1e-12)
        assert line.phi == pytest.approx(delta)


class TestVerifyConstantAngle:
    @pytest.mark.parametrize("delta", [0.7, 0.02, 2e-3])
    def test_circle(self, delta):
        assert verify_constant_angle(circle(1.0), delta, 360) < 1e-12

    def test_gutkin_at_root(self, gutkin5):
        assert verify_constant_angle(gutkin5, gutkin5.delta, 360) < 1e-8

    def test_negative_control(self, gutkin5):
        assert verify_constant_angle(gutkin5, 0.5, 360) > 1e-3


class TestOrbit:
    def test_circle_rotation(self):
        lines, _ = orbit(circle(1.0), OrientedLine2D(0.5, 0.0), 3)
        assert len(lines) == 4
        for i, ln in enumerate(lines):
            assert ln.p == pytest.approx(0.5, abs=1e-11)
            assert angle_diff(ln.phi, i * 2 * math.pi / 3) < 1e-11

    def test_period_8(self):
        lines, _ = orbit(circle(1.0), OrientedLine2D(math.cos(math.pi / 4), 0.0), 8)
        assert lines[-1].p == pytest.approx(lines[0].p, abs=1e-10)
        assert angle_diff(lines[-1].phi, lines[0].phi) < 1e-10

    def test_billiard_law_along_orbit(self, gutkin5):
        _, chords = orbit(gutkin5.curve, OrientedLine2D(0.31, 0.9), 20)
        for a, b in zip(chords[:-1], chords[1:]):
            assert abs(a.angle_fwd - b.angle_back) < 1e-9

    def test_circle_measure_sanity(self):
        line = constant_angle_line(circle(1.0), 0.4, 0.0)
        lines, _ = orbit(circle(1.0), line, 30)
        assert max(abs(ln.p - line.p) for ln in lines) < 1e-11


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
        p[:8] = gutkin5.curve.h(phi[:8]) * (1 - 10.0 ** -rng.uniform(2, 9, 8))
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
        ps, phis, ok = orbits(gutkin5.curve, p0, phi0, 12)
        assert not ok[8] and ok.sum() >= 30
        for i in np.flatnonzero(ok):
            seq, _ = orbit(gutkin5.curve, OrientedLine2D(p0[i], phi0[i]), 12)
            assert [ln.p for ln in seq] == list(ps[:, i])
            assert [ln.phi for ln in seq] == list(phis[:, i])
