import math

import numpy as np
import pytest

from gutkin.billiard_nd import (OrientedLineND, Quadric,
                                constant_angle_residual_nd,
                                ellipsoid_support, gauss_inverse,
                                generating_value_nd,
                                generating_value_nd_general,
                                gradient_contract_residual, incidence_angle,
                                launch_line, orbit_nd, reflect_nd,
                                sphere_quadric, tangent_basis,
                                twist_jacobian_min_sv)
from gutkin.errors import CoincidentDirections, NonUnit, TangentLine


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


class TestSupport:
    def test_sphere(self):
        assert ellipsoid_support(sphere_quadric(1.0), np.array([0.0, 0.0, 1.0])) == 1.0

    def test_axis(self):
        q = Quadric(np.diag([4.0, 1.0]))
        assert ellipsoid_support(q, np.array([1.0, 0.0])) == pytest.approx(2.0)

    def test_diagonal_direction(self, triaxial):
        nu = np.ones(3) / math.sqrt(3)
        assert ellipsoid_support(triaxial, nu) == pytest.approx(math.sqrt(2))

    def test_nonunit_rejected(self, triaxial):
        with pytest.raises(NonUnit):
            ellipsoid_support(triaxial, np.array([1.0, 1.0, 0.0]))


class TestGaussInverse:
    def test_sphere(self):
        nu = np.array([0.6, 0.8, 0.0])
        assert gauss_inverse(sphere_quadric(2.0), nu) == pytest.approx(2.0 * nu)

    def test_axis_point(self):
        q = Quadric(np.diag([4.0, 1.0]))
        assert gauss_inverse(q, np.array([1.0, 0.0])) == pytest.approx([2.0, 0.0])

    def test_oblique(self):
        q = Quadric(np.diag([4.0, 1.0]))
        x = gauss_inverse(q, np.array([1.0, 1.0]) / math.sqrt(2))
        assert x == pytest.approx(np.array([4.0, 1.0]) / math.sqrt(5))
        assert float(x @ q.A_inv @ x) == pytest.approx(1.0, abs=1e-12)

    def test_normal_alignment(self, triaxial):
        rng = np.random.default_rng(0)
        for _ in range(20):
            nu = random_unit(rng)
            x = gauss_inverse(triaxial, nu)
            grad = triaxial.A_inv @ x
            assert grad / np.linalg.norm(grad) == pytest.approx(nu, abs=1e-12)
            assert float(x @ triaxial.A_inv @ x) == pytest.approx(1.0, abs=1e-12)


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
            assert generating_value_nd(q, n1, n2) == pytest.approx(
                generating_value_nd_general(q, n1, n2), abs=1e-12)

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

    @pytest.mark.parametrize("row", [(0, 0), (1, 2), (2, 4)])
    def test_coincident_row_in_batch_rejected(self, triaxial, row):
        rng = np.random.default_rng(22)
        n1 = random_units(rng, 3, (3, 5))
        n2 = -n1
        n2[row] = n1[row]
        with pytest.raises(CoincidentDirections):
            generating_value_nd(triaxial, n1, n2)


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
            back, _ = reflect_nd(triaxial, out.reversed())
            assert back.n == pytest.approx(-line.n, abs=1e-10)
            assert back.m == pytest.approx(line.m, abs=1e-10)

    def test_grazing_line_refused(self, triaxial):
        # n - n2 is too short here to recover the normal at the exit point
        n = np.array([0.6873947407022538, 0.5269927090470677, -0.4997671008240877])
        m = np.array([-0.004189549631558638, 0.690987976605847, 0.7228682134780698])
        with pytest.raises(TangentLine):
            reflect_nd(triaxial, OrientedLineND(n / np.linalg.norm(n), m))

    def test_sphere_constant_chord_length(self):
        q = sphere_quadric(1.0)
        line = launch_line(q, np.array([0.2, 0.3, 0.9]), 0.5)
        _, points = orbit_nd(q, line, 50)
        lengths = [np.linalg.norm(b - a) for a, b in zip(points[:-1], points[1:])]
        assert max(lengths) - min(lengths) < 1e-10


class TestGradientContract:
    def test_sphere_analytic(self):
        q = sphere_quadric(1.0)
        n1 = np.array([1.0, 0, 0])
        n2 = np.array([0.0, 1.0, 0])
        r1, r2 = gradient_contract_residual(q, n1, n2)
        assert r1 < 1e-8 and r2 < 1e-8
        # closed-form moment for the sphere: m1 = P - <P,n1>n1 with P = nu
        from gutkin.billiard_nd import chord_point
        P = chord_point(q, n1, n2)
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
        from gutkin.billiard2d import generating_second_derivs
        from gutkin.support_geometry import circle
        q = Quadric(np.eye(2))
        phi1, phi2 = 0.3, 1.7
        th1, th2 = phi1 + math.pi / 2, phi2 + math.pi / 2
        n1 = np.array([math.cos(th1), math.sin(th1)])
        n2 = np.array([math.cos(th2), math.sin(th2)])
        mixed = twist_jacobian_min_sv(q, n1, n2)
        _, s12, _ = generating_second_derivs(circle(1.0), phi1, phi2)
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
