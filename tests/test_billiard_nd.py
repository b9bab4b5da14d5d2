import math

import numpy as np
import pytest

from gutkin.billiard_nd import (OrientedLineND, Quadric,
                                constant_angle_residual_nd,
                                generating_value_nd,
                                gradient_contract_residual,
                                launch_line, orbit_nd, reflect_nd,
                                sphere_quadric, tangent_basis,
                                twist_jacobian_min_sv)
from gutkin.errors import CoincidentDirections, NoIntersection, NonUnit, TangentLine


def reference_bounce(q, n, m):
    """(n2, m2, P, incidence) of one bounce, with reflect_nd's arithmetic as
    it was first written, one OrientedLineND per bounce; the reference that
    orbit_nd must equal bit for bit."""
    a = float(n @ q.A_inv @ n)
    b = 2.0 * float(m @ q.A_inv @ n)
    c = float(m @ q.A_inv @ m) - 1.0
    t = (-b + math.sqrt(b * b - 4.0 * a * c)) / (2.0 * a)
    P = m + t * n
    grad = q.A_inv @ P
    nu = grad / np.linalg.norm(grad)
    n2 = n - 2.0 * float(n @ nu) * nu
    n2 /= np.linalg.norm(n2)
    line = OrientedLineND(n2, P - float(P @ n2) * n2)
    return line.n, line.m, P, math.asin(min(1.0, abs(float(n2 @ nu))))


def reference_boundary_point(q, nu):
    """A nu / sqrt(<A nu, nu>) for a unit normal nu, the boundary point as it
    was first computed; the reference for Quadric.boundary_point."""
    return q.A @ nu / math.sqrt(float(nu @ q.A @ nu))


def gram_schmidt_basis(n):
    """The tangent basis as it was first written: Gram-Schmidt over the
    standard basis without the axis where |n| is largest."""
    drop = int(np.argmax(np.abs(n)))
    basis = []
    for i in range(n.size):
        if i == drop:
            continue
        w = np.eye(n.size)[i] - float(np.eye(n.size)[i] @ n) * n
        for u in basis:
            w = w - float(w @ u) * u
        basis.append(w / np.linalg.norm(w))
    return np.array(basis)


@pytest.fixture(scope="module")
def triaxial():
    return Quadric(np.diag([4.0, 1.0, 1.0]))


def random_unit(rng, d=3):
    v = rng.normal(size=d)
    return v / np.linalg.norm(v)


def random_units(rng, d, shape):
    v = rng.normal(size=shape + (d,))
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def random_spd(rng, d):
    B = rng.normal(size=(d, d))
    return Quadric(B @ B.T + d * np.eye(d))


def random_pair(rng, d=3, min_gap=0.3):
    while True:
        a, b = random_unit(rng, d), random_unit(rng, d)
        if np.linalg.norm(a - b) > min_gap:
            return a, b


class TestQuadric:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            Quadric(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_rejects_indefinite(self):
        with pytest.raises(np.linalg.LinAlgError):
            Quadric(np.diag([1.0, -1.0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            Quadric(np.array([[1.0, 0.0], [0.0, bad]]))


class TestSupport:
    def test_sphere(self):
        assert sphere_quadric(1.0).support(np.array([0.0, 0.0, 1.0])) == 1.0

    def test_axis(self):
        q = Quadric(np.diag([4.0, 1.0]))
        assert q.support(np.array([1.0, 0.0])) == pytest.approx(2.0)

    def test_diagonal_direction(self, triaxial):
        nu = np.ones(3) / math.sqrt(3)
        assert triaxial.support(nu) == pytest.approx(math.sqrt(2))

    def test_nonunit_homogeneous(self, triaxial):
        x = np.array([1.0, 1.0, 0.0])
        assert triaxial.support(x) == pytest.approx(
            math.sqrt(2) * triaxial.support(x / math.sqrt(2)), rel=1e-15)

    @pytest.mark.parametrize("d", [2, 3, 8, 16])
    def test_batch_matches_rows(self, d):
        rng = np.random.default_rng(80 + d)
        q = random_spd(rng, d)
        x = rng.normal(size=(4, 5, d))
        batch = q.support(x)
        assert batch.shape == (4, 5)
        for i in np.ndindex(4, 5):
            row = q.support(x[i])
            assert type(row) is float
            assert batch[i] == pytest.approx(row, rel=1e-14)

    @pytest.mark.parametrize("d", range(2, 17))
    def test_homogeneous(self, d):
        rng = np.random.default_rng(90 + d)
        q = random_spd(rng, d)
        for c in (1e-3, 0.37, 2.0, 41.5):
            x = rng.normal(size=d)
            assert q.support(c * x) == pytest.approx(c * q.support(x), rel=1e-15)


class TestGaussInverse:
    """Quadric.boundary_point, the inverse of the Gauss map."""

    def test_sphere(self):
        nu = np.array([0.6, 0.8, 0.0])
        assert sphere_quadric(2.0).boundary_point(nu) == pytest.approx(2.0 * nu)

    def test_axis_point(self):
        q = Quadric(np.diag([4.0, 1.0]))
        assert q.boundary_point(np.array([1.0, 0.0])) == pytest.approx([2.0, 0.0])

    def test_oblique(self):
        q = Quadric(np.diag([4.0, 1.0]))
        x = q.boundary_point(np.array([1.0, 1.0]) / math.sqrt(2))
        assert x == pytest.approx(np.array([4.0, 1.0]) / math.sqrt(5))
        assert float(x @ q.A_inv @ x) == pytest.approx(1.0, abs=1e-12)

    def test_normal_alignment(self, triaxial):
        rng = np.random.default_rng(0)
        for _ in range(20):
            nu = random_unit(rng)
            x = triaxial.boundary_point(nu)
            grad = triaxial.A_inv @ x
            assert grad / np.linalg.norm(grad) == pytest.approx(nu, abs=1e-12)
            assert float(x @ triaxial.A_inv @ x) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("d", range(2, 17))
    def test_boundary_point(self, d):
        rng = np.random.default_rng(100 + d)
        q = random_spd(rng, d)
        for _ in range(5):
            x = rng.normal(size=d) * rng.uniform(0.1, 10.0)
            nu = x / np.linalg.norm(x)
            P = q.boundary_point(x)
            normal = q.A_inv @ P
            assert abs(float(P @ normal) - 1.0) < 1e-12
            assert np.linalg.norm(normal / np.linalg.norm(normal) - nu) < 1e-12
            for c in (1e-3, 0.37, 41.5):
                assert (np.linalg.norm(q.boundary_point(c * x) - P)
                        <= 1e-15 * np.linalg.norm(P))
            ref = reference_boundary_point(q, nu)
            assert np.linalg.norm(P - ref) <= 1e-15 * np.linalg.norm(ref)


class TestGeneratingValue:
    def test_sphere_perpendicular(self):
        s = generating_value_nd(sphere_quadric(1.0), np.array([1.0, 0, 0]),
                                np.array([0, 1.0, 0]))
        assert s == pytest.approx(math.sqrt(2))

    def test_axis_chord(self):
        q = Quadric(np.diag([4.0, 1.0]))
        s = generating_value_nd(q, np.array([1.0, 0]), np.array([-1.0, 0]))
        assert s == pytest.approx(4.0)

    def test_general_form_identity(self):
        rng = np.random.default_rng(2)
        B = rng.normal(size=(3, 3))
        q = Quadric(B @ B.T + 3 * np.eye(3))
        for _ in range(30):
            n1, n2 = random_pair(rng, min_gap=1e-3)
            # H(nu)|n1 - n2| with the unit normal nu = (n1 - n2)/|n1 - n2|
            norm = np.linalg.norm(n1 - n2)
            assert generating_value_nd(q, n1, n2) == pytest.approx(
                q.support((n1 - n2) / norm) * norm, abs=1e-12)

    def test_coincident_rejected(self, triaxial):
        n = np.array([1.0, 0, 0])
        with pytest.raises(CoincidentDirections):
            generating_value_nd(triaxial, n, n)

    @pytest.mark.parametrize("d", [2, 3, 8, 16])
    def test_batch_matches_scalar(self, d):
        rng = np.random.default_rng(20 + d)
        q = random_spd(rng, d)
        n1 = random_units(rng, d, (4, 5))
        n2 = random_units(rng, d, (4, 5))
        batch = generating_value_nd(q, n1, n2)
        assert batch.shape == (4, 5)
        assert np.array_equal(batch, generating_value_nd(q, n2, n1))
        for i in np.ndindex(4, 5):
            scalar = generating_value_nd(q, n1[i], n2[i])
            assert isinstance(scalar, float)
            assert batch[i] == pytest.approx(scalar, rel=1e-14)

    @pytest.mark.parametrize("d", [2, 3, 8, 16])
    def test_is_support_of_difference(self, d):
        rng = np.random.default_rng(110 + d)
        q = random_spd(rng, d)
        n1 = random_units(rng, d, (4, 5))
        n2 = random_units(rng, d, (4, 5))
        assert np.array_equal(generating_value_nd(q, n1, n2), q.support(n1 - n2))
        assert generating_value_nd(q, n1[1, 2], n2[1, 2]) == q.support(n1[1, 2] - n2[1, 2])

    @pytest.mark.parametrize("row", [(0, 0), (1, 2), (2, 4)])
    def test_coincident_row_in_batch_rejected(self, triaxial, row):
        rng = np.random.default_rng(22)
        n1 = random_units(rng, 3, (3, 5))
        n2 = -n1
        n2[row] = n1[row]
        with pytest.raises(CoincidentDirections):
            generating_value_nd(triaxial, n1, n2)


class TestLineValidation:
    def test_nan_direction(self):
        with pytest.raises(NonUnit):
            OrientedLineND([math.nan, 0.0, 0.0], [0.0, 0.0, 0.0])

    @pytest.mark.parametrize("m", [[math.nan, 0.0, 0.0], [0.0, math.inf, 0.0],
                                   [-math.inf, 0.0, 0.0]])
    def test_non_finite_moment(self, m):
        with pytest.raises(ValueError, match="m must be finite"):
            OrientedLineND([1.0, 0.0, 0.0], m)


class TestReflect:
    def test_sphere_diameter(self):
        line = OrientedLineND(np.array([1.0, 0, 0]), np.zeros(3))
        nxt, P = reflect_nd(sphere_quadric(1.0), line)
        assert nxt.n == pytest.approx([-1.0, 0, 0])
        assert P == pytest.approx([1.0, 0, 0])

    def test_sphere_incidence_preserved(self):
        q = sphere_quadric(1.0)
        rng = np.random.default_rng(4)
        for _ in range(20):
            line = launch_line(q, random_unit(rng), 0.7, tangent_index=1)
            nxt, P = reflect_nd(q, line)
            grad = q.A_inv @ P
            nu = grad / np.linalg.norm(grad)
            assert abs(float(line.n @ nu)) == pytest.approx(
                abs(float(nxt.n @ nu)), abs=1e-12)

    def test_line_invariants(self, triaxial):
        rng = np.random.default_rng(6)
        for _ in range(50):
            n = random_unit(rng)
            m = rng.normal(size=3) * 0.2
            m -= (m @ n) * n
            nxt, P = reflect_nd(triaxial, OrientedLineND(n, m))
            assert abs(np.linalg.norm(nxt.n) - 1.0) < 1e-12
            assert abs(float(nxt.m @ nxt.n)) < 1e-12
            assert float(P @ triaxial.A_inv @ P) == pytest.approx(1.0, abs=1e-12)

    def test_reversibility(self, triaxial):
        rng = np.random.default_rng(8)
        for _ in range(20):
            n = random_unit(rng)
            m = rng.normal(size=3) * 0.2
            m -= (m @ n) * n
            line = OrientedLineND(n, m)
            out, _ = reflect_nd(triaxial, line)
            back, _ = reflect_nd(triaxial, OrientedLineND(-out.n, out.m))
            assert back.n == pytest.approx(-line.n, abs=1e-10)
            assert back.m == pytest.approx(line.m, abs=1e-10)

    def test_grazing_line_refused(self, triaxial):
        # n - n2 is too short here to recover the normal at the exit point
        n = np.array([0.6873947407022538, 0.5269927090470677, -0.4997671008240877])
        m = np.array([-0.004189549631558638, 0.690987976605847, 0.7228682134780698])
        line = OrientedLineND(n / np.linalg.norm(n), m)
        with pytest.raises(TangentLine):
            reflect_nd(triaxial, line)
        with pytest.raises(TangentLine):
            orbit_nd(triaxial, line, 5)

    @pytest.mark.parametrize("d", [3, 8, 16])
    def test_orbit_matches_reference_bounces(self, d):
        rng = np.random.default_rng(50 + d)
        q = random_spd(rng, d)
        line = launch_line(q, random_unit(rng, d), 0.9)
        n, m, P, incidence = orbit_nd(q, line, 300)
        assert n.shape == m.shape == (301, d) and P.shape == (300, d)
        assert np.array_equal(n[0], line.n) and np.array_equal(m[0], line.m)
        ln, lm = line.n, line.m
        for k in range(300):
            ln, lm, lP, angle = reference_bounce(q, ln, lm)
            assert np.array_equal(n[k + 1], ln) and np.array_equal(m[k + 1], lm)
            assert np.array_equal(P[k], lP) and incidence[k] == angle
        nxt, P0 = reflect_nd(q, line)
        assert np.array_equal(nxt.n, n[1]) and np.array_equal(nxt.m, m[1])
        assert np.array_equal(P0, P[0])

    def test_sphere_constant_chord_length(self):
        q = sphere_quadric(1.0)
        line = launch_line(q, np.array([0.2, 0.3, 0.9]), 0.5)
        _, _, points, _ = orbit_nd(q, line, 50)
        lengths = [np.linalg.norm(b - a) for a, b in zip(points[:-1], points[1:])]
        assert max(lengths) - min(lengths) < 1e-10


class TestScaleFree:
    """The tangency test compares disc with 1e-14 a, a ratio that does not
    change when the body is scaled, so a body scaled by 2^80 (lengths by
    2^40) gives the unit body's orbit with P scaled exactly."""

    @pytest.mark.parametrize("d", [3, 8])
    def test_orbit_scaled_by_power_of_two(self, d):
        rng = np.random.default_rng(70 + d)
        q = random_spd(rng, d)
        line = launch_line(q, random_unit(rng, d), 0.5)
        n, m, P, incidence = orbit_nd(q, line, 200)
        big = OrientedLineND(line.n, line.m * 2.0 ** 40)
        n_big, m_big, P_big, incidence_big = orbit_nd(Quadric(q.A * 2.0 ** 80), big, 200)
        assert np.array_equal(n_big, n) and np.array_equal(incidence_big, incidence)
        assert np.array_equal(P_big, P * 2.0 ** 40) and np.array_equal(m_big, m * 2.0 ** 40)

    @pytest.mark.parametrize("radius", [1e7, 1e8])
    def test_large_sphere(self, radius):
        # a line at 0.5 rad and a diameter, refused as tangent by an absolute test
        q = sphere_quadric(radius)
        *_, incidence = orbit_nd(q, launch_line(q, np.array([0.0, 0.0, 1.0]), 0.5), 20)
        assert np.abs(incidence - 0.5).max() < 1e-12
        diameter = OrientedLineND(np.array([1.0, 0.0, 0.0]), np.zeros(3))
        *_, incidence = orbit_nd(q, diameter, 4)
        assert np.abs(incidence - math.pi / 2).max() < 1e-12

    @pytest.mark.parametrize("radius", [2.0 ** -40, 1.0, 2.0 ** 40])
    def test_missing_and_tangent_lines(self, radius):
        q = sphere_quadric(radius)
        n = np.array([0.0, 1.0, 0.0])
        with pytest.raises(NoIntersection, match="misses"):
            orbit_nd(q, OrientedLineND(n, np.array([2.0 * radius, 0.0, 0.0])), 3)
        with pytest.raises(TangentLine, match="tangent to the quadric"):
            orbit_nd(q, OrientedLineND(n, np.array([radius, 0.0, 0.0])), 3)


class TestGradientContract:
    def test_sphere_analytic(self):
        q = sphere_quadric(1.0)
        n1 = np.array([1.0, 0, 0])
        n2 = np.array([0.0, 1.0, 0])
        r1, r2 = gradient_contract_residual(q, n1, n2)
        assert r1 < 1e-8 and r2 < 1e-8
        # closed-form moment for the sphere: m1 = P - <P,n1>n1 with P = nu
        P = q.boundary_point(n1 - n2)
        m1 = P - (P @ n1) * n1
        assert m1 == pytest.approx([0.0, -1.0 / math.sqrt(2), 0.0], abs=1e-12)

    def test_sphere_random(self):
        q = sphere_quadric(1.7)
        rng = np.random.default_rng(10)
        for _ in range(100):
            n1, n2 = random_pair(rng, min_gap=0.1)
            r1, r2 = gradient_contract_residual(q, n1, n2)
            assert r1 < 1e-8 and r2 < 1e-8

    def test_triaxial_random(self, triaxial):
        rng = np.random.default_rng(12)
        for _ in range(100):
            n1, n2 = random_pair(rng, min_gap=0.1)
            r1, r2 = gradient_contract_residual(triaxial, n1, n2)
            assert r1 < 1e-7 and r2 < 1e-7


class TestTwist:
    def test_sphere_perpendicular(self):
        q = sphere_quadric(1.0)
        sv = twist_jacobian_min_sv(q, np.array([1.0, 0, 0]), np.array([0, 1.0, 0]))
        assert sv > 0.1

    def test_triaxial_random(self, triaxial):
        rng = np.random.default_rng(14)
        for _ in range(20):
            n1, n2 = random_pair(rng, min_gap=0.5)
            assert twist_jacobian_min_sv(triaxial, n1, n2) > 1e-3

    def test_matches_planar_s12(self):
        from gutkin.billiard2d import generating_function
        from gutkin.support_geometry import circle
        q = Quadric(np.eye(2))
        phi1, phi2 = 0.3, 1.7
        th1, th2 = phi1 + math.pi / 2, phi2 + math.pi / 2
        n1 = np.array([math.cos(th1), math.sin(th1)])
        n2 = np.array([math.cos(th2), math.sin(th2)])
        mixed = twist_jacobian_min_sv(q, n1, n2)
        _, _, s12, _ = generating_function(circle(1.0), phi1, phi2)
        assert mixed == pytest.approx(s12, abs=1e-6)

    @pytest.mark.parametrize("d", [3, 8, 16])
    def test_matches_closed_form(self, d):
        # D12 S on orthonormal tangent bases xi at n1, eta at n2, w = n1 - n2:
        # -(xi A eta^T)/S + (xi.Aw)(eta.Aw)^T/S^3; singular values do not
        # depend on the choice of bases
        rng = np.random.default_rng(30 + d)
        q = random_spd(rng, d)
        for _ in range(5):
            n1, n2 = random_pair(rng, d, min_gap=0.5)
            w = n1 - n2
            S = math.sqrt(w @ q.A @ w)
            xi, eta = tangent_basis(n1), tangent_basis(n2)
            Aw = q.A @ w
            M = -(xi @ q.A @ eta.T) / S + np.outer(xi @ Aw, eta @ Aw) / S ** 3
            want = np.linalg.svd(M, compute_uv=False)[-1]
            assert twist_jacobian_min_sv(q, n1, n2) == pytest.approx(want, rel=1e-6)


class TestConstantAngleResidual:
    def test_sphere_invariant(self):
        q = sphere_quadric(1.0)
        line = launch_line(q, np.array([0.1, -0.4, 0.91]), 0.6)
        assert constant_angle_residual_nd(q, 0.6, line, 100) < 1e-10

    def test_triaxial_violates(self, triaxial):
        line = launch_line(triaxial, np.array([0.3, 0.5, 0.8]), 0.5)
        assert constant_angle_residual_nd(triaxial, 0.5, line, 50) > 1e-2

    def test_scaling_invariance(self):
        for R in (1.0, 3.0):
            q = sphere_quadric(R)
            line = launch_line(q, np.array([0.2, 0.4, 0.89]), 0.7)
            assert constant_angle_residual_nd(q, 0.7, line, 20) < 1e-10


class TestLaunchLine:
    @pytest.mark.parametrize("delta", [-0.5, 0.0, 2.0])
    def test_delta_out_of_range(self, triaxial, delta):
        with pytest.raises(ValueError, match="delta"):
            launch_line(triaxial, np.ones(3) / math.sqrt(3), delta)

    @pytest.mark.parametrize("nu", [[0.0, 0.0, 0.0], [np.nan, 0.0, 1.0],
                                    [np.inf, 0.0, 0.0], [1.0, 1.0], [1.0, 0.0, 0.0, 0.0]])
    def test_bad_normal(self, triaxial, nu):
        with pytest.raises(ValueError, match="nu must be a nonzero finite vector of d = 3"):
            launch_line(triaxial, np.array(nu), 0.5)

    @pytest.mark.parametrize("scale", [1e200, 1e-200, 5e-324])
    def test_normal_norm_overflow_or_underflow(self, triaxial, scale):
        # the squares of these entries leave the float range; the direction
        # is that of (1, 1, 0) all the same
        want = launch_line(triaxial, np.array([1.0, 1.0, 0.0]), 0.5)
        got = launch_line(triaxial, np.array([scale, scale, 0.0]), 0.5)
        assert (got.n.tolist(), got.m.tolist()) == (want.n.tolist(), want.m.tolist())

    def test_normal_departure_allowed(self, triaxial):
        nu = np.ones(3) / math.sqrt(3)
        assert launch_line(triaxial, nu, math.pi / 2).n == pytest.approx(-nu, abs=1e-15)


class TestTangentBasis:
    def test_orthonormal(self):
        rng = np.random.default_rng(16)
        for d in (2, 3, 5, 8):
            n = random_unit(rng, d)
            B = tangent_basis(n)
            assert B.shape == (d - 1, d)
            assert B @ n == pytest.approx(np.zeros(d - 1), abs=1e-12)
            assert B @ B.T == pytest.approx(np.eye(d - 1), abs=1e-12)

    @pytest.mark.parametrize("d", range(2, 17))
    def test_householder_orthonormal(self, d):
        rng = np.random.default_rng(40 + d)
        negative = random_unit(rng, d)
        top = np.argmax(np.abs(negative))
        negative[top] = -abs(negative[top])
        eye = np.eye(d)
        for n in [*eye, *-eye, random_unit(rng, d), negative]:
            B = tangent_basis(n)
            assert B.shape == (d - 1, d)
            assert np.abs(B @ n).max() < 1e-15
            assert np.abs(B @ B.T - np.eye(d - 1)).max() < 1e-15


class TestLaunchDirection:
    """launch_line's tangent is (e_j - nu_j nu)/|e_j - nu_j nu|, e_j the
    tangent_index-th axis other than the one where |nu| is largest."""

    @pytest.mark.parametrize("d", [3, 8, 16])
    def test_formula(self, d):
        rng = np.random.default_rng(60 + d)
        q = random_spd(rng, d)
        for nu in [random_unit(rng, d) for _ in range(4)] + [-np.eye(d)[1]]:
            line_nu = nu
            nu = nu / np.linalg.norm(nu)  # as launch_line normalizes
            drop = int(np.argmax(np.abs(nu)))
            for index in range(d - 1):
                line = launch_line(q, line_nu, 0.9, tangent_index=index)
                j = [i for i in range(d) if i != drop][index]
                t = np.eye(d)[j] - nu[j] * nu
                t = t / np.linalg.norm(t)
                n = math.cos(0.9) * t - math.sin(0.9) * nu
                assert np.array_equal(line.n, n)
                P = q.boundary_point(nu)
                assert np.array_equal(line.m, P - float(P @ n) * n)

    @pytest.mark.parametrize("d", [3, 8, 16])
    def test_first_gram_schmidt_vector(self, d):
        rng = np.random.default_rng(70 + d)
        q = random_spd(rng, d)
        for _ in range(5):
            line_nu = random_unit(rng, d)
            nu = line_nu / np.linalg.norm(line_nu)
            t = gram_schmidt_basis(nu)[0]
            n = math.cos(0.5) * t - math.sin(0.5) * nu
            assert np.array_equal(launch_line(q, line_nu, 0.5).n, n)
