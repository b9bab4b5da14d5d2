import math

import mpmath
import numpy as np
import pytest

from conftest import trig_derivative, trig_eval
from gutkin import billiard2d
from gutkin.billiard2d import (MISSES, NEAR_TANGENT, SOLVED, Chords, OrientedLine2D,
                               Strip, chord_incidence_angles, constant_angle_line,
                               generating_function, orbit, orbits,
                               reflect_geometric, reflect_variational,
                               rigidity_integral, rigidity_integral_closed,
                               verify_constant_angle)
from gutkin.errors import (MIN_CHORD_ANGLE, ConvergenceFailure, DegenerateChord,
                           NoIntersection, TangentLine)
from gutkin.support_geometry import (SupportCurve, TrigPolynomial,
                                     build_gutkin_table, circle, eval_support,
                                     support_from_radius, support_grid)

TWO_PI = 2 * math.pi


@pytest.fixture(scope="module")
def gutkin5():
    return build_gutkin_table(5, 0, 1.0, 0.05)


def angle_diff(a, b):
    return abs((a - b + math.pi) % TWO_PI - math.pi)


def one_bounce(curve, p, phi):
    """orbits(curve, p, phi, 1) with the bounce axis dropped: the next lines
    (p2, phi2), NaN where the chord solve failed, and the chords."""
    ps, phis, chords = orbits(curve, p, phi, 1)
    return ps[1], phis[1], Chords._make(rows[0] for rows in chords)


class TestGeneratingValue:
    def test_circle_quarter(self):
        assert generating_function(circle(1.0), 0.0, math.pi / 2)[0] == pytest.approx(
            math.sqrt(2), abs=1e-15)

    def test_circle_diameter(self):
        assert generating_function(circle(1.0), 0.0, math.pi)[0] == pytest.approx(2.0)

    def test_gutkin5(self, gutkin5):
        curve, _ = gutkin5
        delta = 0.91174
        mid = delta
        expected = 2 * (1 - 0.00208333333333 * math.cos(5 * mid)) * math.sin(delta)
        got = generating_function(curve, 0.0, 2 * delta)[0]
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
        curve, _ = gutkin5
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
        curve, _ = gutkin5
        rng = np.random.default_rng(11)
        for _ in range(200):
            phi1 = rng.uniform(0, TWO_PI)
            phi2 = phi1 + rng.uniform(1e-3, TWO_PI - 1e-3)
            _, _, s12, _ = generating_function(curve, phi1, phi2)
            assert s12 > 0

    def test_array_matches_scalar_bitwise(self, gutkin5):
        curve, _ = gutkin5
        rng = np.random.default_rng(13)
        phi1 = rng.uniform(0, TWO_PI, (3, 50))
        phi2 = phi1 + rng.uniform(1e-3, TWO_PI - 1e-3, (3, 50))
        batch = generating_function(curve, phi1, phi2)
        assert all(value.shape == (3, 50) for value in batch)
        for i, j in np.ndindex(3, 50):
            scalar = generating_function(curve, phi1[i, j], phi2[i, j])
            assert [float(v) for v in scalar] == [v[i, j] for v in batch]

    @pytest.mark.parametrize("table", ["gutkin5", "degree32"])
    def test_rigidity_reduction(self, gutkin5, table):
        # (S11 + 2 S12 + S22) S12 = h''(h''+h) sin^2(alpha), the integrand that
        # rigidity_integral reduces the strip integral to; h from the oracle
        curve = gutkin5[0] if table == "gutkin5" else degree32_table()
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
        curve, _ = gutkin5
        line = OrientedLine2D(0.4, 1.7)
        _, chord_in = reflect_geometric(curve, line)
        nxt, _ = reflect_geometric(curve, line)
        _, chord_out = reflect_geometric(curve, nxt)
        assert chord_in.angle_fwd == pytest.approx(chord_out.angle_back, abs=1e-10)

    def test_gutkin_invariance(self, gutkin5):
        curve, meta = gutkin5
        delta = meta["delta"]
        for psi in np.linspace(0, TWO_PI, 16, endpoint=False):
            line = constant_angle_line(curve, delta, psi)
            nxt, _ = reflect_geometric(curve, line)
            chord = chord_incidence_angles(curve, nxt)
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
        curve, _ = gutkin5
        rng = np.random.default_rng(3)
        for _ in range(200):
            line = OrientedLine2D(rng.uniform(-0.8, 0.8), rng.uniform(0, TWO_PI))
            geo, _ = reflect_geometric(curve, line)
            var = reflect_variational(curve, line)
            assert abs(geo.p - var.p) < 1e-9
            assert angle_diff(geo.phi, var.phi) < 1e-9

    @pytest.mark.parametrize("delta", [2e-3, 0.01, 0.045])
    def test_matches_geometric_near_tangent(self, gutkin5, delta):
        # lines leaving the boundary at a small angle delta to the tangent
        curve, _ = gutkin5
        for psi in np.linspace(0, TWO_PI, 12, endpoint=False):
            line = constant_angle_line(curve, delta, psi)
            geo, chord = reflect_geometric(curve, line)
            var = reflect_variational(curve, line)
            assert chord.angle_back == pytest.approx(delta, abs=1e-10)
            assert abs(geo.p - var.p) < 1e-9
            assert angle_diff(geo.phi, var.phi) < 1e-9

    @pytest.mark.parametrize("table", ["circle", "gutkin5", "gutkin9", "degree32"])
    def test_same_bits_as_geometric(self, gutkin5, table):
        # one chord solve serves both maps, the variational one reading its
        # forward end in phi2 = 2 psi - phi, so the two agree bit for bit on fresh
        # lines and along orbits, the source of each outgoing line included
        curve = {"circle": circle(1.0), "gutkin5": gutkin5[0],
                 "gutkin9": build_gutkin_table(9, 1, 1.0, 0.3)[0],
                 "degree32": degree32_table()}[table]
        rng = np.random.default_rng(23)
        phi = rng.uniform(0, TWO_PI, 40)
        p = rng.uniform(-0.9, 0.9, 40) * trig_eval(curve.h, phi)
        assert (one_bounce(curve, p, phi)[2].status == SOLVED).all()
        for line in map(OrientedLine2D, p, phi):
            var = geo = line
            for _ in range(30):
                var, (geo, _) = reflect_variational(curve, var), reflect_geometric(curve, geo)
                assert (var.p, var.phi, var.source) == (geo.p, geo.phi, geo.source)

    @pytest.mark.parametrize("table", ["circle", "gutkin5"])
    def test_incidence_floor(self, gutkin5, table):
        # lines leaving the boundary at incidences from 1e-8 to 1e-5, a factor
        # 2 clear of MIN_CHORD_ANGLE: both maps refuse the same lines, with
        # the same message, and the batched bounce gives them its status
        curve = circle(1.0) if table == "circle" else gutkin5[0]
        deltas = np.array([d for d in np.geomspace(1e-8, 1e-5, 16)
                           if not 0.5 * MIN_CHORD_ANGLE < d < 2 * MIN_CHORD_ANGLE])
        psis = np.linspace(0.1, 0.1 + TWO_PI, 7, endpoint=False)
        lines = [constant_angle_line(curve, d, psi) for d in deltas for psi in psis]
        refused = []
        for line in lines:
            failures = []
            for bounce in (reflect_geometric, reflect_variational):
                try:
                    bounce(curve, line)
                    failures.append(None)
                except (NoIntersection, TangentLine) as failure:
                    failures.append(failure)
            geo, var = failures
            assert type(geo) is type(var)
            if isinstance(geo, TangentLine):
                head, incidence = str(geo).rsplit(" ", 1)
                assert str(var) == str(geo)
                assert head == (f"near-tangent chord: line (p={line.p:g}, "
                                f"phi={line.phi:g}), incidence")
                assert float(incidence) < MIN_CHORD_ANGLE
            refused.append(isinstance(geo, TangentLine))
        p, phi = np.array([(line.p, line.phi) for line in lines]).T
        status = one_bounce(curve, p, phi)[2].status
        assert np.array_equal(status == NEAR_TANGENT, refused)
        below = np.repeat(deltas < MIN_CHORD_ANGLE, psis.size)
        assert np.isin(status[below], [NEAR_TANGENT, MISSES]).all()
        assert (status[~below] == SOLVED).all() and (status == NEAR_TANGENT).sum() > 30

    def test_exact_form_consistency(self, gutkin5):
        # p1 = -d1 S and p2 = +d2 S along geometrically computed chords
        curve, _ = gutkin5
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
        curve, meta = gutkin5
        line = constant_angle_line(curve, meta["delta"], 0.37)
        chord = chord_incidence_angles(curve, line)
        assert abs(chord.angle_back - meta["delta"]) < 1e-8
        assert abs(chord.angle_fwd - meta["delta"]) < 1e-8

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
        curve, _ = gutkin5
        line = OrientedLine2D(0.23, 2.1)
        chord = chord_incidence_angles(curve, line)
        e = np.array([math.cos(line.phi), math.sin(line.phi)])
        for psi in (chord.psi_back, chord.psi_fwd):
            assert abs(boundary_point(curve, psi) @ e - line.p) < 1e-10


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
        curve, meta = gutkin5
        delta = meta["delta"]
        line = constant_angle_line(curve, delta, 0.0)
        assert line.p == pytest.approx(
            trig_eval(curve.h, 0.0) * math.cos(delta), abs=1e-12)
        assert line.phi == pytest.approx(delta)


class TestVerifyConstantAngle:
    @staticmethod
    def departures(curve, delta, size):
        """The departure angles psi of verify's grid and its lines (p, phi)."""
        psi = np.linspace(0.0, TWO_PI, size, endpoint=False)
        h, hp = support_grid(curve, size, lambda k: 1, lambda k: 1j * k)
        return psi, h * math.cos(delta) + hp * math.sin(delta), np.mod(psi + delta, TWO_PI)

    @pytest.mark.parametrize("delta", [0.7, 0.02, 2e-3, 1.0000001e-6, 1e-5, math.pi / 2])
    def test_circle(self, delta):
        # every chord of a circle meets it at its departure angle, and the
        # forward end starts there, so the residual is rounding alone
        assert verify_constant_angle(circle(1.0), delta, 360) <= 1e-15

    def test_gutkin_at_root(self, gutkin5):
        curve, meta = gutkin5
        assert verify_constant_angle(curve, meta["delta"], 360) <= 1e-15

    def test_negative_control(self, gutkin5):
        curve, _ = gutkin5
        assert verify_constant_angle(curve, 0.5, 360) > 1e-3

    @pytest.mark.parametrize("delta", [9.99e-7, 1e-7, 1e-8, 1e-9])
    def test_delta_below_floor(self, gutkin5, delta):
        # refused up front: a start line whose p rounds onto h(delta) would
        # otherwise read as a miss rather than as near-tangent
        curve, _ = gutkin5
        with pytest.raises(TangentLine, match=f"^delta {delta:g} is below the "
                                              "incidence floor 1e-06$"):
            verify_constant_angle(curve, delta, 360)

    @pytest.mark.parametrize("n", [5, 9])
    @pytest.mark.parametrize("delta", [1.0000001e-6, 2e-6])
    def test_delta_just_above_floor(self, n, delta):
        # a departure line's incidence is its offset from the departure
        # point, not a fresh backward solve that can land below the floor
        curve, _ = build_gutkin_table(n, 0, 1.0, 0.05)
        assert verify_constant_angle(curve, delta, 360) <= 1e-15

    @pytest.mark.parametrize("table", ["circle", "gutkin5"])
    def test_delta_at_floor(self, gutkin5, table):
        # at delta = MIN_CHORD_ANGLE a line is refused exactly where psi +
        # delta rounds down, so that its offset (phi - psi) mod 2 pi, its
        # departure incidence, falls below the floor
        curve = circle(1.0) if table == "circle" else gutkin5[0]
        delta = MIN_CHORD_ANGLE
        psi, p, phi = self.departures(curve, delta, 360)
        refused = np.mod(phi - psi, TWO_PI) < MIN_CHORD_ANGLE
        assert 0 < np.count_nonzero(refused) < refused.size
        c, _, _ = billiard2d._solve_chords(curve, p, phi, psi)
        assert np.array_equal(c.status, refused * NEAR_TANGENT)
        i = np.flatnonzero(refused)[0]
        with pytest.raises(TangentLine, match=rf"^near-tangent chord: line \(p={p[i]:g}, "
                                              rf"phi={phi[i]:g}\), incidence 1e-06$"):
            verify_constant_angle(curve, delta, 360)

    @pytest.mark.parametrize("n", [4, 5, 9])
    @pytest.mark.parametrize("offset", [1e-3, 1e-7])
    def test_no_vacuous_pass(self, n, offset):
        # just off the root the forward end must move away from its start:
        # the residual equals that of the two-ended solve and of 50-digit
        # forward ends, within the resolution 2 eps (h_bound + |p|) /
        # (rho_min sin delta) that the docstring states
        curve, meta = build_gutkin_table(n, 0, 1.0, 0.05)
        delta, size = meta["delta"] + offset, 24
        residual = verify_constant_angle(curve, delta, size)
        _, p, phi = self.departures(curve, delta, size)
        floor = (2 * np.finfo(float).eps * (curve.h_bound + np.max(np.abs(p)))
                 / (curve.rho_min * math.sin(delta)))
        two_ended = float(np.max(np.abs(one_bounce(curve, p, phi)[2].angle_fwd - delta)))
        assert abs(residual - two_ended) <= floor
        support = TestMpmathOracle.mp_support(curve)
        worst = 0.0
        with mpmath.workdps(50):
            for p_i, phi_i in zip(p, phi):
                p_i, phi_i = mpmath.mpf(p_i), mpmath.mpf(phi_i)

                def f(x):
                    h, hp = support(x)
                    return h * mpmath.cos(x - phi_i) - hp * mpmath.sin(x - phi_i) - p_i

                b = mpmath.findroot(f, (phi_i, phi_i + mpmath.pi), solver="anderson") - phi_i
                worst = max(worst, abs(float(min(b, mpmath.pi - b) - delta)))
        assert residual > 1e-9 and abs(residual - worst) <= floor

    @pytest.mark.parametrize("delta", [None, 0.5])
    def test_grid_below_twice_the_degree(self, delta):
        # 8 departures on a degree-9 table, at its root and off it: the
        # departure lines from eval_support at the same angles give the same
        # residual
        curve, meta = build_gutkin_table(9, 0, 1.0, 0.05)
        delta = meta["delta"] if delta is None else delta
        psi = np.linspace(0.0, TWO_PI, 8, endpoint=False)
        h, hp, _, _ = eval_support(curve, psi)
        c = one_bounce(curve, h * math.cos(delta) + hp * math.sin(delta), psi + delta)[2]
        want = float(np.max(np.abs(c.angle_fwd - delta)))
        assert abs(verify_constant_angle(curve, delta, 8) - want) <= 1e-15

    @pytest.mark.parametrize("grid_size", [7, 0, -1])
    def test_grid_below_8(self, grid_size):
        with pytest.raises(ValueError, match="grid_size must be >= 8"):
            verify_constant_angle(circle(1.0), 0.7, grid_size)


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
        curve, _ = gutkin5
        _, _, chords = orbit(curve, OrientedLine2D(0.31, 0.9), 20)
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

    def test_failure_names_line_and_bounce(self, gutkin5, monkeypatch):
        # a floor just above the least incidence of a 20-bounce orbit refuses
        # the first bounce below it, which is not the first bounce (a chord
        # shares its forward incidence with the next one's backward one)
        curve, _ = gutkin5
        ps, phis, chords = orbit(curve, OrientedLine2D(0.95, 0.9), 20)
        incidence = np.minimum(chords.angle_back, chords.angle_fwd)
        floor = incidence.min() * (1 + 1e-9)
        k = int(np.flatnonzero(incidence < floor)[0])
        assert k > 0
        monkeypatch.setattr(billiard2d, "MIN_CHORD_ANGLE", floor)
        line = OrientedLine2D(ps[k], phis[k])
        want = (f"near-tangent chord: line (p={line.p:g}, phi={line.phi:g}), "
                f"incidence {incidence[k]:g} at bounce {k}")
        with pytest.raises(TangentLine) as failure:
            orbit(curve, OrientedLine2D(0.95, 0.9), 20)
        assert str(failure.value) == want


class TestSource:
    """A bounced line carries the Gauss parameter of the boundary point it
    leaves; the next solve takes that point as its backward endpoint."""

    def test_caller_line_has_none(self, gutkin5):
        curve, _ = gutkin5
        line = OrientedLine2D(0.3, 0.2)
        assert line.source is None
        with pytest.raises(TypeError):
            OrientedLine2D(0.3, 0.2, 1.0)
        nxt, chord = reflect_geometric(curve, line)
        assert nxt.source == chord.psi_fwd[0]
        # the source takes no part in equality or hashing
        plain = OrientedLine2D(nxt.p, nxt.phi)
        assert plain == nxt and hash(plain) == hash(nxt)

    def test_orbit_chain(self, gutkin5):
        # each backward endpoint is the previous forward one, bit for bit, and
        # the incidence there moves by rounding only: within 4 ulps of 2*pi,
        # the spacing of the reduced angles both incidences come from
        for curve in (gutkin5[0], degree32_table()):
            rng = np.random.default_rng(8)
            _, _, chords = orbits(curve, rng.uniform(-0.9, 0.9, 50),
                                  rng.uniform(0.0, TWO_PI, 50), 60)
            assert (chords.status == SOLVED).all()
            assert np.array_equal(chords.psi_back[1:], chords.psi_fwd[:-1])
            gap = np.abs(chords.angle_back[1:] - chords.angle_fwd[:-1])
            assert gap.max() <= 4 * np.spacing(TWO_PI)
        # and along the README's orbit, which the orbit command writes
        _, _, chords = orbit(gutkin5[0], OrientedLine2D(0.3, 0.2), 200)
        assert np.array_equal(chords.psi_back[1:], chords.psi_fwd[:-1])

    def test_variational_source_past_two_pi(self, gutkin5):
        # phi2 = phi + 2 alpha wraps past 2*pi, so the point left, phi + alpha,
        # is not the mean of phi and the reduced phi2
        curve, _ = gutkin5
        line = OrientedLine2D(0.2, 5.5)
        geo, _ = reflect_geometric(curve, line)
        var = reflect_variational(curve, line)
        assert var.phi < line.phi
        assert angle_diff(var.source, geo.source) < 1e-13
        assert angle_diff(var.source, 0.5 * (line.phi + var.phi)) > 3.0
        # and the next bounces from either source agree
        geo2, _ = reflect_geometric(curve, geo)
        var2 = reflect_variational(curve, var)
        assert abs(geo2.p - var2.p) < 1e-12 and angle_diff(geo2.phi, var2.phi) < 1e-12


class TestRigidity:
    def test_circle_zero(self):
        strip = Strip(0.3, 1.2)
        assert rigidity_integral(circle(1.0), strip) == 0.0
        assert rigidity_integral_closed(circle(1.0), strip) == 0.0

    def test_gutkin5_value(self, gutkin5):
        curve, _ = gutkin5
        strip = Strip(0.91174, math.pi / 2)
        closed = rigidity_integral_closed(curve, strip)
        quad = rigidity_integral(curve, strip)
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

    @pytest.mark.parametrize("degree", [2, 9, 256, 300])
    def test_high_degree_not_aliased(self, degree):
        # the phi integrand has degree 2K; 2K + 1 trapezoid points integrate it
        # exactly, and 2K points would alias it
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

    def test_translated_circle_zero(self):
        # the first harmonic adds exactly 0 to both the closed form and the quadrature
        curve = SupportCurve(TrigPolynomial(1.0, [0.3]))
        strip = Strip(0.5, 1.5)
        assert rigidity_integral_closed(curve, strip) == 0.0
        assert rigidity_integral(curve, strip) == 0.0

    @pytest.mark.parametrize("eps", [1e-4, 1e-12, 1e-20])
    def test_bits_kept_under_harmonics_0_and_1(self, eps):
        # doubling a0 or adding a first harmonic leaves both routes' bits as
        # they are: those harmonics add exactly 0 to the integral, and the
        # sums run at the scale of harmonics 2..K, so neither a radius of
        # 1e200 (whose scale would underflow the squares) nor a translation
        # of 1e300 (which would overflow at the scale of harmonic 5) enters
        cos = np.array([0.0, 0.0, 0.0, 0.0, eps, 0.0, 0.5 * eps])
        sin = np.array([0.0, 0.0, 0.0, 0.0, 0.3 * eps, 0.0, 0.0])
        strip = Strip(0.3, 1.2)
        base = SupportCurve(TrigPolynomial(1.0, cos, sin))
        want = (rigidity_integral(base, strip), rigidity_integral_closed(base, strip))
        assert want[0] > 0 and want[1] > 0
        first = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        for curve in (SupportCurve(TrigPolynomial(2.0, cos, sin)),
                      SupportCurve(TrigPolynomial(1.0, cos + 0.3 * first, sin - 0.2 * first)),
                      SupportCurve(TrigPolynomial(1e200, cos, sin)),
                      SupportCurve(TrigPolynomial(1.0, cos + 1e300 * first, sin))):
            assert (rigidity_integral(curve, strip), rigidity_integral_closed(curve, strip)) == want

    @pytest.mark.parametrize("a0, an", [(1e200, 5e199), (1e306, 5e305)])
    def test_overflow_raises(self, a0, an):
        # the integral of these tables exceeds the float range: both routes
        # raise, with no warning
        curve, _ = build_gutkin_table(5, 0, a0, an)
        for route in (rigidity_integral, rigidity_integral_closed):
            with pytest.raises(OverflowError,
                               match="^the strip integral overflows the float range$"):
                route(curve, Strip(0.1, 0.5))

    @pytest.mark.parametrize("a0, k, strip", [
        (math.ldexp(1e200, -300), 300, Strip(1e-40, 2e-40)),
        (math.ldexp(1e200, -500), 500, Strip(1e-100, 1.5e-100)),
        (3.0, -200, Strip(0.3, 1.2)),
    ])
    def test_scaled_by_power_of_two(self, a0, k, strip):
        # both sums run at the scale of the table's width, so the table
        # scaled by 2^k has its integral scaled by exactly 2^(2k), also where
        # the sums at the scaled table's own scale overflow (a0 = 1e200 on a
        # thin strip)
        table, _ = build_gutkin_table(5, 0, a0, 0.5 * a0)
        scaled, _ = build_gutkin_table(5, 0, math.ldexp(a0, k), math.ldexp(0.5 * a0, k))
        for route in (rigidity_integral, rigidity_integral_closed):
            value = route(table, strip)
            assert math.isfinite(value) and value > 0
            assert route(scaled, strip) == math.ldexp(value, 2 * k)

    def test_thin_strip_on_huge_table(self):
        # the integral is about 3.8e280, while the phi sum at the table's own
        # scale (1e400) overflows: the same table scaled to a0 = 1e50 gives
        # 3.8e-20, times 1e300
        curve, _ = build_gutkin_table(5, 0, 1e200, 5e199)
        strip = Strip(1e-40, 2e-40)
        quad, closed = rigidity_integral(curve, strip), rigidity_integral_closed(curve, strip)
        assert closed == pytest.approx(3.8179077387375946e280, rel=1e-14)
        assert quad == pytest.approx(closed, rel=1e-14)
        small, _ = build_gutkin_table(5, 0, 1e50, 5e49)
        assert rigidity_integral_closed(small, strip) * 1e300 == pytest.approx(closed, rel=1e-14)

    def test_closed_bits_of_separate_sum(self):
        # the closed form keeps the bits of 2 int sin^2 * pi sum k^2 (k^2 - 1) |h_k|^2
        rng = np.random.default_rng(11)
        for degree in (0, 1, 5, 40, 300):
            curve = SupportCurve(TrigPolynomial(1.0, rng.normal(size=degree) * 1e-3,
                                                rng.normal(size=degree) * 1e-3))
            k = np.arange(1, degree + 1, dtype=float)
            power = curve.h.cos_coeffs ** 2 + curve.h.sin_coeffs ** 2
            coeff_sum = float(np.sum(k ** 2 * (k ** 2 - 1.0) * power))
            for d1, d2 in [(0.3, 1.2), (1e-10, 2e-10), (0.7, 0.7000001)]:
                sin2 = billiard2d._sin2_integral(d1, d2)
                assert rigidity_integral_closed(curve, Strip(d1, d2)) == \
                    2.0 * sin2 * math.pi * coeff_sum

    def test_strip_validation(self):
        with pytest.raises(ValueError):
            Strip(1.0, 0.5)

    def test_closed_form_against_mpmath(self, gutkin5):
        # 2 (F(d2) - F(d1)) pi sum k^2 (k^2 - 1) |h_k|^2, F(x) = (x - sin x cos x)/2,
        # in 50 digits, on strips from 1e-12 to pi/2, thin ones included,
        # where the float difference F(d2) - F(d1) cancels
        curve, _ = gutkin5
        k = np.arange(1, curve.h.cos_coeffs.size + 1)
        with mpmath.workdps(50):
            coeff_sum = mpmath.fsum(
                int(kk) ** 2 * (int(kk) ** 2 - 1) * (mpmath.mpf(float(a)) ** 2
                                                      + mpmath.mpf(float(b)) ** 2)
                for kk, a, b in zip(k, curve.h.cos_coeffs, curve.h.sin_coeffs))

            def closed(d1, d2):
                def F(x):
                    return (x - mpmath.sin(x) * mpmath.cos(x)) / 2
                return 2 * (F(mpmath.mpf(d2)) - F(mpmath.mpf(d1))) * mpmath.pi * coeff_sum

            rng = np.random.default_rng(17)
            strips = [(1e-12, 2e-12), (1e-10, 2e-10), (1e-12, math.pi / 2), (0.05, 0.0500001),
                      (1.4, 1.4001), (1.5, math.pi / 2), (0.1, 0.35), (1.0, 1.0 + 1e-9)]
            for _ in range(300):
                d1 = 10 ** rng.uniform(-12, math.log10(1.5))
                d2 = d1 + 10 ** rng.uniform(-12, 0.2)
                if d2 <= math.pi / 2:
                    strips.append((d1, d2))
            for d1, d2 in strips:
                want = closed(d1, d2)
                got = rigidity_integral_closed(curve, Strip(d1, d2))
                assert abs(got - want) <= 1e-14 * want, (d1, d2)


class TestBatchedSolves:
    """A batch of lines gives, bit for bit, what the scalar wrappers give."""

    @pytest.fixture(scope="class")
    def lines(self, gutkin5):
        curve, _ = gutkin5
        rng = np.random.default_rng(17)
        phi = rng.uniform(0, TWO_PI, 40)
        p = rng.uniform(-0.95, 0.95, 40)
        p[:8] = trig_eval(curve.h, phi[:8]) * (1 - 10.0 ** -rng.uniform(2, 9, 8))
        p[8] = 1.5  # misses
        return p, phi

    def test_chords(self, gutkin5, lines):
        curve, _ = gutkin5
        batch = one_bounce(curve, *lines)[2]
        assert batch.status[8] == MISSES
        for i, (p, phi) in enumerate(zip(*lines)):
            if batch.status[i] != SOLVED:
                with pytest.raises(NoIntersection):
                    chord_incidence_angles(curve, OrientedLine2D(p, phi))
                continue
            chord = chord_incidence_angles(curve, OrientedLine2D(p, phi))
            assert (chord.psi_back, chord.psi_fwd, chord.angle_back, chord.angle_fwd) == (
                batch.psi_back[i], batch.psi_fwd[i], batch.angle_back[i], batch.angle_fwd[i])

    def test_variational(self, gutkin5, lines):
        curve, _ = gutkin5
        p2, phi2, batch = one_bounce(curve, *lines)
        for i, (p, phi) in enumerate(zip(*lines)):
            if batch.status[i] != SOLVED:
                continue
            nxt = reflect_variational(curve, OrientedLine2D(p, phi))
            assert (nxt.p, nxt.phi) == (p2[i], phi2[i])

    def test_iteration_cap(self, gutkin5, monkeypatch):
        curve, _ = gutkin5
        monkeypatch.setattr(billiard2d, "NEWTON_CAP", 1)
        line = OrientedLine2D(0.3, 0.4)
        with pytest.raises(ConvergenceFailure):
            chord_incidence_angles(curve, line)
        with pytest.raises(ConvergenceFailure):
            reflect_variational(curve, line)

    def test_convergence_failure_names_line(self, gutkin5, monkeypatch):
        # the incidence is that of the last iterate, between 0 and pi/2
        curve, _ = gutkin5
        monkeypatch.setattr(billiard2d, "NEWTON_CAP", 1)
        line = OrientedLine2D(0.3, 0.4)
        pattern = (r"^safeguarded Newton did not converge: line \(p=0\.3, phi=0\.4\), "
                   r"incidence (0\.\d+|1\.[0-5]\d*)$")
        with pytest.raises(ConvergenceFailure, match=pattern):
            chord_incidence_angles(curve, line)
        with pytest.raises(ConvergenceFailure, match=pattern):
            reflect_variational(curve, line)

    def test_orbits(self, gutkin5, lines):
        curve, _ = gutkin5
        p0, phi0 = lines
        ps, phis, chords = orbits(curve, p0, phi0, 12)
        ok = (chords.status == SOLVED).all(axis=0)
        assert not ok[8] and ok.sum() >= 30
        for i in np.flatnonzero(ok):
            line = OrientedLine2D(p0[i], phi0[i])
            for step in range(12):
                assert (line.p, line.phi) == (ps[step, i], phis[step, i])
                line, chord = reflect_geometric(curve, line)
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

    def test_mirror_law(self, monkeypatch):
        # no chord puts 2 psi_fwd - phi at a tiny negative angle, so the solve
        # is made to land on psi = 2*pi, which reduces to psi_fwd = 0, for a
        # line at phi = 1e-20
        def landing(evaluate, lo, hi, x, done):
            x = np.full_like(x, TWO_PI)
            return x, evaluate(x)[-1], np.ones_like(done)

        monkeypatch.setattr(billiard2d, "_newton", landing)
        chords, _, phi2 = billiard2d._solve_chords(circle(1.0), 0.0, 1e-20)
        assert chords.psi_fwd.tolist() == [0.0]
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
        curve = gutkin5[0] if table == "gutkin5" else degree32_table()
        rng = np.random.default_rng(41)
        phi = rng.uniform(0.0, TWO_PI, 40)
        lo, hi = -trig_eval(curve.h, phi + math.pi), trig_eval(curve.h, phi)
        p = lo + (hi - lo) * rng.uniform(0.02, 0.98, 40)
        offset = 10.0 ** -np.linspace(6, 9, 5)
        p[:5], p[5:10] = hi[:5] - offset, lo[5:10] + offset
        p2, phi2, chords = one_bounce(curve, p, phi)
        assert (chords.status == SOLVED).all()
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

    @pytest.mark.parametrize("table", ["gutkin5", "degree32"])
    def test_later_bounces(self, gutkin5, table):
        # lines a bounce returned, solved forward only from the point they
        # leave: 30 at incidence 1e-5 to 1e-3 and 10 across the table
        curve = gutkin5[0] if table == "gutkin5" else degree32_table()
        rng = np.random.default_rng(43)
        starts = [constant_angle_line(curve, delta, psi) for delta, psi in zip(
            10.0 ** rng.uniform(-5, -3, 30), rng.uniform(0.0, TWO_PI, 30))]
        starts += [constant_angle_line(curve, alpha, psi) for alpha, psi in zip(
            rng.uniform(0.2, 1.5, 10), rng.uniform(0.0, TWO_PI, 10))]
        support = self.mp_support(curve)
        eps = np.finfo(float).eps
        with mpmath.workdps(50):
            for i, start in enumerate(starts):
                geo, _ = reflect_geometric(curve, start)
                nxt, chord = reflect_geometric(curve, geo)
                var = reflect_variational(curve, reflect_variational(curve, start))
                assert chord.psi_back[0] == geo.source
                pi_, phii = mpmath.mpf(geo.p), mpmath.mpf(geo.phi)
                pv, phiv = mpmath.mpf(var.p), mpmath.mpf(var.phi)

                def f(psi, p=pi_, phi=phii):
                    h, hp = support(psi)
                    return h * mpmath.cos(psi - phi) - hp * mpmath.sin(psi - phi) - p

                def size(psi, p):
                    h, hp = support(psi)
                    return (abs(h) + abs(hp) + abs(p)) * eps

                x_fwd = phii + (mpmath.mpf(chord.psi_fwd[0]) - phii) % (2 * mpmath.pi)
                x_mid = phiv + (mpmath.mpf(var.source) - phiv) % (2 * mpmath.pi)
                assert abs(f(x_fwd)) < 4 * size(x_fwd, pi_)
                assert abs(f(x_mid, pv, phiv)) < 4 * size(x_mid, pv)
                if i >= 30:
                    fwd = mpmath.findroot(f, (phii, phii + mpmath.pi), solver="anderson")
                    assert self.wrapped(chord.psi_fwd[0] - fwd) < 1e-13
                    h, hp = support(fwd)
                    p_nxt = h * mpmath.cos(fwd - phii) + hp * mpmath.sin(fwd - phii)
                    assert abs(float(nxt.p - p_nxt)) < 1e-13


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
        curve = gutkin5[0] if table == "gutkin5" else degree32_table()
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
        curve = gutkin5[0] if table == "gutkin5" else degree32_table()
        rng = np.random.default_rng(5)
        for p, phi in zip(rng.uniform(-0.9, 0.9, 20), rng.uniform(0.0, TWO_PI, 20)):
            chord_incidence_angles(curve, OrientedLine2D(p, phi))
        assert evaluations[0] <= 70

    @pytest.mark.parametrize("table", ["gutkin5", "degree32"])
    def test_step_tolerance_read_per_solve(self, gutkin5, evaluations, monkeypatch, table):
        # a solve reads PSI_TOL when it starts, so a coarser tolerance set
        # after import ends the passes sooner
        curve = gutkin5[0] if table == "gutkin5" else degree32_table()
        rng = np.random.default_rng(7)
        lines = rng.uniform(-0.9, 0.9, 20), rng.uniform(0.0, TWO_PI, 20)
        counts = []
        for tol in (billiard2d.PSI_TOL, 1e-3):
            monkeypatch.setattr(billiard2d, "PSI_TOL", tol)
            evaluations[0] = 0
            for p, phi in zip(*lines):
                orbits(curve, p, phi, 1)
            counts.append(evaluations[0])
        assert counts[1] < counts[0]

    @pytest.mark.parametrize("table", ["gutkin5", "degree32"])
    def test_no_bracket_or_outgoing_pass(self, gutkin5, evaluations, monkeypatch, table):
        # from the second bounce on, every boundary evaluation is a Halley one
        curve = gutkin5[0] if table == "gutkin5" else degree32_table()
        calls = [0]
        evaluate = billiard2d.eval_support

        def counting(*args):
            calls[0] += 1
            return evaluate(*args)

        monkeypatch.setattr(billiard2d, "eval_support", counting)
        line = OrientedLine2D(0.3, 0.2)
        orbit(curve, line, 100)
        # one bracket pass, for the first bounce of a line built by a caller
        assert calls[0] == evaluations[0] + 1
        for bounce in (reflect_variational, lambda c, ln: reflect_geometric(c, ln)[0]):
            line = bounce(curve, OrientedLine2D(0.3, 0.2))
            calls[0] = evaluations[0] = 0
            for _ in range(100):
                line = bounce(curve, line)
            assert calls[0] == evaluations[0] > 0

    def test_orbits_forward_only(self, gutkin5, monkeypatch):
        # a batch of n lines evaluates 2n points a pass on its first bounce,
        # both chord ends, and n on every later one
        curve, _ = gutkin5
        sizes = []
        evaluate = billiard2d.eval_support

        def recording(curve, phi):
            sizes.append(np.size(phi))
            return evaluate(curve, phi)

        monkeypatch.setattr(billiard2d, "eval_support", recording)
        rng = np.random.default_rng(9)
        lines = rng.uniform(-0.9, 0.9, 30), rng.uniform(0.0, TWO_PI, 30)
        orbits(curve, *lines, 1)
        first, sizes[:] = sizes[:], []
        orbits(curve, *lines, 40)
        assert set(first) == {60}
        assert sizes[:len(first)] == first
        assert set(sizes[len(first):]) == {30} and len(sizes) - len(first) >= 3 * 39

    @pytest.mark.parametrize("table", ["gutkin4", "gutkin5", "gutkin9", "circle", "small-circle"])
    def test_verify(self, evaluations, monkeypatch, table):
        # verify's lines carry their departure points, so no bracket pass and
        # no backward lanes: its forward ends start at the invariance
        # hypothesis, which a root table and every circle meet at once
        if table.startswith("gutkin"):
            curve, meta = build_gutkin_table(int(table[6:]), 0, 1.0, 0.05)
            deltas = meta["delta"], meta["delta"] + 0.1
        else:
            curve = circle(1.0 if table == "circle" else 1e-13)
            deltas = 1.0000001e-6, 2e-3, 0.7, math.pi / 2
        sizes = []
        evaluate = billiard2d.eval_support

        def recording(curve, phi):
            sizes.append(np.size(phi))
            return evaluate(curve, phi)

        monkeypatch.setattr(billiard2d, "eval_support", recording)
        verify_constant_angle(curve, deltas[0], 120)
        assert evaluations[0] == 1 and sizes == [120]
        if table.startswith("gutkin"):
            sizes[:], evaluations[0] = [], 0
            verify_constant_angle(curve, deltas[1], 120)
            assert evaluations[0] == len(sizes) <= 3 and set(sizes) == {120}
        else:
            for delta in deltas[1:]:
                sizes[:], evaluations[0] = [], 0
                verify_constant_angle(curve, delta, 120)
                assert evaluations[0] == 1 and sizes == [120]

    @pytest.mark.parametrize("p, phi", [(0.3, 0.2), (-0.7, 4.0), (0.05, 2.5)])
    def test_one_path_to_h(self, gutkin5, monkeypatch, p, phi):
        # the solvers reach h only through the module's eval_support, the
        # function a tracer wraps to count boundary evaluations
        curve, _ = gutkin5
        line = OrientedLine2D(p, phi)
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
        curve, meta = gutkin5
        small, small_meta = build_gutkin_table(5, 0, self.SCALE, 0.05 * self.SCALE)
        p, phi, chords = orbit(curve, OrientedLine2D(0.3, 0.2), 200)
        p_s, phi_s, chords_s = orbit(small, OrientedLine2D(0.3 * self.SCALE, 0.2), 200)
        assert np.array_equal(p_s, p * self.SCALE) and np.array_equal(phi_s, phi)
        assert all(np.array_equal(a, b) for a, b in zip(chords_s, chords))
        assert verify_constant_angle(small, small_meta["delta"]) == verify_constant_angle(
            curve, meta["delta"])

    def test_chord_length_positive(self):
        # a chord of length 2e-13 on a circle of radius 1e-13 is solved
        chord = chord_incidence_angles(circle(1e-13), OrientedLine2D(0.0, 0.4))
        assert chord.angle_back == pytest.approx(math.pi / 2, abs=1e-12)
        assert angle_diff(chord.psi_fwd - chord.psi_back, math.pi) < 1e-12


class TestOneLinePath:
    """Both maps bounce one line through one path, which refuses a line by
    the lesser incidence of its two chord ends."""

    def test_one_refusal_rule(self, gutkin5):
        # lines leaving the boundary within 2e-4 of MIN_CHORD_ANGLE: their two
        # end incidences fall on either side of the floor on hundreds of
        # lines, and on those with the back end below it, both maps refuse
        curve, _ = gutkin5
        psis = np.linspace(0.1, 0.1 + TWO_PI, 64, endpoint=False)
        deltas = MIN_CHORD_ANGLE * (1 + np.linspace(-2e-4, 2e-4, 81))
        lines = [constant_angle_line(curve, d, psi) for psi in psis for d in deltas]
        p, phi = np.array([(line.p, line.phi) for line in lines]).T
        chords = one_bounce(curve, p, phi)[2]
        straddle = np.flatnonzero((chords.angle_back < MIN_CHORD_ANGLE)
                                  & (MIN_CHORD_ANGLE <= chords.angle_fwd))
        assert straddle.size > 0
        for i in straddle:
            with pytest.raises(TangentLine) as geo:
                reflect_geometric(curve, lines[i])
            with pytest.raises(TangentLine) as var:
                reflect_variational(curve, lines[i])
            assert str(var.value) == str(geo.value)

    def test_chord_incidence_angles_once_per_geometric_bounce(self, gutkin5, monkeypatch):
        # the benchmark's tracer counts chords and refusals where
        # chord_incidence_angles is called, and variational bounces at
        # reflect_variational: only reflect_geometric may reach the first
        curve, _ = gutkin5
        calls = [0]
        chord_incidence = billiard2d.chord_incidence_angles

        def counting(*args):
            calls[0] += 1
            return chord_incidence(*args)

        monkeypatch.setattr(billiard2d, "chord_incidence_angles", counting)
        line = OrientedLine2D(0.3, 0.2)
        for bounce in range(1, 21):
            line, _ = reflect_geometric(curve, line)
            assert calls[0] == bounce
        with pytest.raises(NoIntersection):
            reflect_geometric(curve, OrientedLine2D(2.0, 0.0))
        assert calls[0] == 21
        calls[0] = 0
        line = OrientedLine2D(0.3, 0.2)
        for _ in range(20):
            line = reflect_variational(curve, line)
        with pytest.raises(NoIntersection):
            reflect_variational(curve, OrientedLine2D(2.0, 0.0))
        orbits(curve, [0.3, -0.2], [0.2, 1.0], 1)
        orbits(curve, [0.3, -0.2], [0.2, 1.0], 10)
        orbit(curve, OrientedLine2D(0.3, 0.2), 10)
        assert calls[0] == 0
