import math
import re
import warnings

import mpmath
import numpy as np
import pytest

from gutkin.billiard_nd import (Quadric, _check_lines, generating_value_nd,
                                gradient_contract_residual,
                                launch_line, orbit_nd,
                                sphere_quadric, tangent_basis,
                                twist_jacobian_min_sv)
from gutkin.errors import (MIN_CHORD_ANGLE, CoincidentDirections, NoIntersection, NonUnit,
                           TangentLine)

from conftest import pairwise_gradient_residual


def reference_bounce(q, n, m):
    """(n2, m2, P, incidence) of one bounce of a line (n, m), with the
    arithmetic of the one-bounce map as it was first written, and the
    incidence as atan2(|<n2, nu>|, |n2 - <n2, nu> nu|): the fresh-line
    reference, which a first bounce from the moment matches in P to 2 ulps,
    and every bounce to a stated tolerance."""
    a = float(n @ q.A_inv @ n)
    b = 2.0 * float(m @ q.A_inv @ n)
    c = float(m @ q.A_inv @ m) - 1.0
    t = (-b + math.sqrt(b * b - 4.0 * a * c)) / (2.0 * a)
    P = m + t * n
    grad = q.A_inv @ P
    nu = grad / np.linalg.norm(grad)
    n2 = n - 2.0 * float(n @ nu) * nu
    n2 /= np.linalg.norm(n2)
    c = float(n2 @ nu)
    incidence = float(np.arctan2(abs(c), np.linalg.norm(n2 - c * nu)))
    return n2, P - float(P @ n2) * n2, P, incidence


def reference_exit(q, P, n):
    """The far end of the chord leaving the boundary point P along n, unit
    or not, with the arithmetic orbit_nd documents: P + s n for the larger
    root s of f + 2 s beta + s^2 alpha = 0, g = A^-1 P, beta = <g, n>,
    alpha = <A^-1 n, n> and f = <g, P> - 1."""
    g = q.A_inv @ P
    beta, alpha, f = float(g @ n), float(q.A_inv @ n @ n), float(g @ P) - 1.0
    return P + (math.sqrt(max(beta * beta - alpha * f, 0.0)) - beta) / alpha * n


def reference_mirror(q, n, P):
    """n - (2 <n, g>/<g, g>) g, g = A^-1 P: the direction n mirrored at its
    exit point P, not normalized, as orbit_nd carries it to the next chord."""
    g = q.A_inv @ P
    return n - 2.0 * float(n @ g) / float(g @ g) * g


def reference_reflection(q, n, P):
    """(n2, m2, incidence) of the line along n mirrored at its exit point P,
    as orbit_nd returns it: n2 is reference_mirror normalized, with the
    incidence as in reference_bounce."""
    g = q.A_inv @ P
    gg = float(g @ g)
    n2 = reference_mirror(q, n, P)
    n2 /= np.linalg.norm(n2)
    nu = g / math.sqrt(gg)
    c = float(n2 @ g) / math.sqrt(gg)
    incidence = float(np.arctan2(abs(c), np.linalg.norm(n2 - c * nu)))
    return n2, P - float(P @ n2) * n2, incidence


def reference_orbit(q, n, x, steps):
    """(n, m, P, incidence) rows of ``steps`` bounces chained by
    reference_exit and reference_mirror from the line through x along n,
    each row as reference_reflection gives it; the reference that orbit_nd
    equals bit for bit.  The chain carries the mirrored direction
    unnormalized, as orbit_nd does."""
    rows = []
    P = x
    for _ in range(steps):
        P = reference_exit(q, P, n)
        n2, m2, incidence = reference_reflection(q, n, P)
        rows.append((n2, m2, P, incidence))
        n = reference_mirror(q, n, P)
    return [np.array(col) for col in zip(*rows)]


def launched_orbit(q, nu, delta, steps):
    """orbit_nd from the line launch_line gives, solved from its departure
    point."""
    return orbit_nd(q, *launch_line(q, nu, delta), steps)


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

    @pytest.mark.parametrize("scale", [1e-100, 1.0, 1e100])
    def test_rejects_asymmetric_at_any_scale(self, scale):
        A = np.array([[2.0, 0.3, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(ValueError, match="A must be symmetric"):
            Quadric(scale * A)

    def test_huge_entries_no_overflow(self):
        # the squares of these entries overflow; the symmetry test must not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            q = Quadric(np.diag([4e200, 1e200, 1e200]))
        assert q.support(np.array([1.0, 0.0, 0.0])) == 2e100

    @pytest.mark.parametrize("scale", [1.0, 1e-100, 3e100])
    @pytest.mark.parametrize("d", [3, 8, 16])
    def test_support_bits_of_the_plain_products(self, d, scale):
        # H and grad H run on A scaled by a power of four, which keeps the
        # bits of sqrt(<A x, x>) and A x / H(x) wherever those do not overflow
        rng = np.random.default_rng(30 + d)
        for _ in range(50):
            q = random_spd(rng, d)
            q = Quadric(q.A * scale)
            for x in (random_units(rng, d, (4,)), random_unit(rng, d)):
                plain = np.sqrt(np.einsum("...i,...i->...", x @ q.A, x))
                assert np.array_equal(q.support(x), plain)
                row_plain = np.sqrt(np.einsum("...i,...i->...", x[..., None, :] @ q.A,
                                              x[..., None, :]))
                assert np.array_equal(q.boundary_point(x),
                                      (q.A @ x[..., None])[..., 0] / row_plain)

    @pytest.mark.parametrize("entry", [1e308, 1e-308])
    def test_support_of_extreme_bodies(self, entry):
        # <A x, x> leaves the float range for these bodies; H does not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            q = Quadric(entry * np.eye(3))
            x = np.array([0.6, 0.0, -0.8])
            assert q.support(x) == pytest.approx(math.sqrt(entry), rel=1e-15)
            assert q.boundary_point(x) == pytest.approx(math.sqrt(entry) * x, rel=1e-15)

    def test_rejects_indefinite(self):
        with pytest.raises(np.linalg.LinAlgError):
            Quadric(np.diag([1.0, -1.0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            Quadric(np.array([[1.0, 0.0], [0.0, bad]]))

    @pytest.mark.parametrize("A", [np.ones((2, 3)), np.ones(3), np.ones((2, 2, 2))],
                             ids=["2x3", "vector", "3-axis"])
    def test_rejects_non_square(self, A):
        with pytest.raises(ValueError, match="A must be a square matrix"):
            Quadric(A)


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

    @pytest.mark.parametrize("d", [3, 8, 16])
    def test_row_bits_in_a_batch(self, d):
        # boundary_point and tangent_basis take one matrix-vector product per
        # row, so a row gets a single vector's bits; support takes x A over
        # the batch as one matrix product, whose rows keep a single vector's
        # bits at d = 3 and are within 2 ulps of them at d = 8 and 16
        rng = np.random.default_rng(110 + d)
        q = random_spd(rng, d)
        x = rng.normal(size=(200, d))
        n = random_units(rng, d, (200,))
        P, B, H = q.boundary_point(x), tangent_basis(n), q.support(x)
        for i in range(200):
            assert np.array_equal(P[i], q.boundary_point(x[i]))
            assert np.array_equal(B[i], tangent_basis(n[i]))
        rows = np.array([q.support(row) for row in x])
        if d == 3:
            assert np.array_equal(H, rows)
        else:
            assert (np.abs(H - rows) <= 2 * np.spacing(rows)).all()

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
    def test_nan_direction(self, triaxial):
        with pytest.raises(NonUnit):
            orbit_nd(triaxial, [math.nan, 0.0, 0.0], [0.0, 0.0, 0.0], 1)

    # the start point x may be any point of the line, but it must be finite
    # and have d entries
    @pytest.mark.parametrize("m", [[math.nan, 0.0, 0.0], [0.0, math.inf, 0.0],
                                   [-math.inf, 0.0, 0.0], [0.0, 0.5], [0.0, 0.5, 0.0, 0.0]])
    def test_non_finite_moment(self, triaxial, m):
        with pytest.raises(ValueError, match="^x must be a finite vector of d = 3 entries$"):
            orbit_nd(triaxial, [1.0, 0.0, 0.0], m, 1)


class TestLineSkew:
    """<m, n> = 0 is checked against the body's size, so the check reads the
    same at every scale: on the lines orbit_nd returns, and on a moment that
    the CLI is given."""

    @pytest.mark.parametrize("scale", [1e-100, 1.0, 1e100])
    def test_skewed_moment_refused_at_any_scale(self, scale):
        n = np.array([0.6, 0.8, 0.0])
        m = np.array([0.8, -0.6, 0.0]) + 0.3 * n
        q = Quadric(scale ** 2 * np.diag([4.0, 1.0, 1.0]))
        with pytest.raises(ValueError, match=r"<m, n> = .* != 0"):
            _check_lines(n, scale * m, q.half_width)
        _check_lines(n, scale * np.array([0.8, -0.6, 0.0]), q.half_width)

    @pytest.mark.parametrize("radius", [1e-100, 1.0, 1e100])
    def test_lines_through_centre_followed_at_any_scale(self, radius):
        # a normal launch on a sphere runs through the centre, where the
        # moment is of rounding size and its skew relative to |m| arbitrary
        q = sphere_quadric(radius)
        rng = np.random.default_rng(91)
        for _ in range(10):
            _, m, _, incidence = launched_orbit(q, random_unit(rng), math.pi / 2, 20)
            assert np.abs(m).max() < 1e-14 * radius
            assert np.abs(incidence - math.pi / 2).max() < 1e-7


class TestIncidenceNearNormal:
    """The incidence is atan2(|<n2, nu>|, |n2 - <n2, nu> nu|), accurate up to
    pi/2, where asin(|<n2, nu>|) read normal launches up to 1.5e-8 off."""

    @pytest.mark.parametrize("radius", [1e-100, 1.0, 1e100])
    @pytest.mark.parametrize("delta", [math.pi / 2, 1.570796, 1.5707])
    def test_sphere_orbit_keeps_its_angle(self, radius, delta):
        q = sphere_quadric(radius)
        rng = np.random.default_rng(91)
        for _ in range(50):
            *_, incidence = launched_orbit(q, random_unit(rng), delta, 20)
            assert np.abs(incidence - delta).max() < 4e-15


class TestReflect:
    def test_sphere_diameter(self):
        n, _, P, _ = orbit_nd(sphere_quadric(1.0), np.array([1.0, 0, 0]), np.zeros(3), 1)
        assert n[1] == pytest.approx([-1.0, 0, 0])
        assert P[0] == pytest.approx([1.0, 0, 0])

    def test_sphere_incidence_preserved(self):
        q = sphere_quadric(1.0)
        rng = np.random.default_rng(4)
        for _ in range(20):
            n, _, P, _ = launched_orbit(q, random_unit(rng), 0.7, 1)
            grad = q.A_inv @ P[0]
            nu = grad / np.linalg.norm(grad)
            assert abs(float(n[0] @ nu)) == pytest.approx(
                abs(float(n[1] @ nu)), abs=1e-12)

    def test_line_invariants(self, triaxial):
        rng = np.random.default_rng(6)
        for _ in range(50):
            n = random_unit(rng)
            m = rng.normal(size=3) * 0.2
            m -= (m @ n) * n
            n, m, P, _ = orbit_nd(triaxial, n, m, 1)
            assert abs(np.linalg.norm(n[1]) - 1.0) < 1e-12
            assert abs(float(m[1] @ n[1])) < 1e-12
            assert float(P[0] @ triaxial.A_inv @ P[0]) == pytest.approx(1.0, abs=1e-12)

    def test_reversibility(self, triaxial):
        rng = np.random.default_rng(8)
        for _ in range(20):
            n = random_unit(rng)
            m = rng.normal(size=3) * 0.2
            m -= (m @ n) * n
            out_n, out_m, _, _ = orbit_nd(triaxial, n, m, 1)
            back_n, back_m, _, _ = orbit_nd(triaxial, -out_n[1], out_m[1], 1)
            assert back_n[1] == pytest.approx(-n, abs=1e-10)
            assert back_m[1] == pytest.approx(m, abs=1e-10)

    def test_grazing_line_refused(self, triaxial):
        # the line meets the boundary at incidence 9.0e-8, below MIN_CHORD_ANGLE
        n = np.array([0.6873947407022538, 0.5269927090470677, -0.4997671008240877])
        m = np.array([-0.004189549631558638, 0.690987976605847, 0.7228682134780698])
        n = n / np.linalg.norm(n)
        assert 8.9e-8 < reference_bounce(triaxial, n, m)[3] < 9.1e-8
        for steps in (1, 5):
            with pytest.raises(TangentLine, match=r"grazes the quadric at incidence 8\.97"
                                                  r".*, below 1e-06, at bounce 0$"):
                orbit_nd(triaxial, n, m, steps)

    def test_refusal_names_the_bounce(self, triaxial):
        # a glancing orbit whose incidence dips below the floor after some bounces
        n, x = launch_line(triaxial, np.array([1.0, 0.0, 0.1]), 1.001e-6)
        incidence = reference_orbit(triaxial, n, x, 200)[3]
        k = int(np.argmax(incidence < MIN_CHORD_ANGLE))
        assert k > 0 and incidence[k] < MIN_CHORD_ANGLE
        with pytest.raises(TangentLine, match=re.escape(
                f"incidence {incidence[k]:g}, below 1e-06, at bounce {k}") + "$"):
            orbit_nd(triaxial, n, x, 200)

    @pytest.mark.parametrize("d", [3, 8, 16])
    def test_orbit_matches_reference_bounces(self, d):
        rng = np.random.default_rng(50 + d)
        q = random_spd(rng, d)
        n0, x = launch_line(q, random_unit(rng, d), 0.9)
        n, m, P, incidence = orbit_nd(q, n0, x, 300)
        assert n.shape == m.shape == (301, d) and P.shape == (300, d)
        assert np.array_equal(n[0], n0) and np.array_equal(m[0], x - float(x @ n0) * n0)
        ref_n, ref_m, ref_P, ref_incidence = reference_orbit(q, n0, x, 300)
        for k in range(300):
            assert np.array_equal(n[k + 1], ref_n[k]) and np.array_equal(m[k + 1], ref_m[k])
            assert np.array_equal(P[k], ref_P[k]) and incidence[k] == ref_incidence[k]
        n1, m1, P1, incidence1 = orbit_nd(q, n0, x, 1)
        assert np.array_equal(n1, n[:2]) and np.array_equal(m1, m[:2])
        assert np.array_equal(P1, P[:1]) and np.array_equal(incidence1, incidence[:1])

    @pytest.mark.parametrize("d", [3, 8, 16])
    def test_orbit_near_fresh_line_bounces(self, d):
        # each bounce against the fresh-line map applied to the line before
        # it; over 20 bodies per d the rows read at most 1.6e-15 apart (P and
        # m in units of the body's half-width), so 4e-15 is the tolerance
        for seed in range(50 + d, 20050 + d, 1000):
            rng = np.random.default_rng(seed)
            q = random_spd(rng, d)
            n, m, P, incidence = launched_orbit(q, random_unit(rng, d), 0.9, 300)
            for k in range(300):
                n2, m2, P2, angle = reference_bounce(q, n[k], m[k])
                assert np.abs(P[k] - P2).max() <= 4e-15 * q.half_width
                assert np.abs(m[k + 1] - m2).max() <= 4e-15 * q.half_width
                assert np.abs(n[k + 1] - n2).max() <= 4e-15
                assert abs(incidence[k] - angle) <= 4e-15

    def test_first_bounce_without_source(self, triaxial):
        # a line given by its moment finds its exit point by the chord
        # formula from m, within 2 ulps of max |P_i| of the quadratic in t
        # of <A^-1 (m + t n), m + t n> = 1 that the fresh-line map solved
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = random_unit(rng)
            m = rng.normal(size=3) * 0.2
            m -= (m @ n) * n
            lines, moments, P, incidence = orbit_nd(triaxial, n, m, 1)
            want = reference_bounce(triaxial, n, m)[2]
            assert np.abs(P[0] - want).max() <= 2 * np.spacing(np.abs(want).max())
            n2, m2, angle = reference_reflection(triaxial, n, P[0])
            assert np.array_equal(lines[1], n2) and np.array_equal(moments[1], m2)
            assert incidence[0] == angle

    def test_sphere_constant_chord_length(self):
        q = sphere_quadric(1.0)
        _, _, points, _ = launched_orbit(q, np.array([0.2, 0.3, 0.9]), 0.5, 50)
        lengths = [np.linalg.norm(b - a) for a, b in zip(points[:-1], points[1:])]
        assert max(lengths) - min(lengths) < 1e-10


class TestExitPointSolve:
    """Each chord is solved from the boundary point it leaves, the first one
    too when the line starts from its departure point, as launched lines do."""

    @pytest.mark.parametrize("d", [3, 8, 16])
    def test_surface_residual_at_floor(self, d):
        # |F(P)| over 20000 bounces; 24 bodies per d read at most 2.9e-15
        # with n carried unnormalized, and 2.7e-15 with n normalized every
        # bounce (the fresh-line map, solved from (n, m), read at most
        # 1.1e-15, and the root without f, s = -2 beta / alpha, drifted to
        # 4.7e-13)
        rng = np.random.default_rng(300 + d)
        q = random_spd(rng, d)
        _, _, P, _ = launched_orbit(q, rng.normal(size=d), 0.3 + rng.random(), 20000)
        F = np.abs(np.einsum("ij,ij->i", P @ q.A_inv, P) - 1.0)
        assert F.max() <= 20 * np.finfo(float).eps

    @pytest.mark.parametrize("axes2", [(1e6, 1.0, 1.0), (1e4, 3.0, 0.5)],
                             ids=["needle", "eccentric"])
    @pytest.mark.parametrize("delta", [1.0000001e-6, 1e-5, 1e-3, 0.5])
    def test_eccentric_launch_against_mpmath(self, axes2, delta):
        # the far end of the launched chord in 50 digits, from the departure
        # point along n, and the outgoing incidence there.  The library's
        # exit point read at most 0.22 ulp of max |P_i| off it and its
        # incidence 1.6e-16 off.  The fresh-line map refused three of these
        # lines as missing or tangent, and read the incidence of two others
        # 19 and 220 times too large
        q = Quadric(np.diag(axes2))
        n, x = launch_line(q, np.ones(3), delta)
        with mpmath.workdps(50):
            A_inv = mpmath.diag([1 / mpmath.mpf(a) for a in axes2])
            P0, N = mpmath.matrix(x.tolist()), mpmath.matrix(n.tolist())
            s = -2 * (P0.T * A_inv * N)[0] / (N.T * A_inv * N)[0]
            X = P0 + s * N
            nu = A_inv * X / mpmath.norm(A_inv * X)
            N2 = N - 2 * (N.T * nu)[0] * nu
            want = float(mpmath.asin(abs((N2.T * nu)[0]) / mpmath.norm(N2)))
            X = np.array([float(x) for x in X])
        if want < MIN_CHORD_ANGLE:
            with pytest.raises(TangentLine, match="grazes .* at bounce 0$"):
                orbit_nd(q, n, x, 1)
            return
        _, _, P, incidence = orbit_nd(q, n, x, 1)
        assert np.abs(P[0] - X).max() <= np.spacing(np.abs(X).max())
        assert abs(incidence[0] - want) <= 1e-15

    def test_needle_refuses_only_below_the_floor(self):
        # on the needle the chord launched at 1.0000001e-6 arrives at
        # 0.9999995e-6, below the floor, and is refused; one launched at 1e-5
        # is followed
        q = Quadric(np.diag([1e6, 1.0, 1.0]))
        with pytest.raises(TangentLine, match="grazes the quadric at incidence 1e-06, below"):
            launched_orbit(q, np.ones(3), 1.0000001e-6, 1)
        assert launched_orbit(q, np.ones(3), 1e-5, 1)[3][0] > MIN_CHORD_ANGLE


class TestLongOrbit:
    """orbit_nd carries the mirrored direction unnormalized from bounce to
    bounce and normalizes the rows it returns once; over 20000 bounces that
    costs no accuracy against the map that normalized every bounce."""

    @pytest.mark.parametrize("d", [3, 8, 16])
    def test_returned_directions_unit(self, d):
        # 16 bodies per d read |n| - 1 at most 1.5 eps (the map that
        # normalized every bounce: 1.0 eps)
        rng = np.random.default_rng(600 + 10 * d)
        q = random_spd(rng, d)
        n = launched_orbit(q, random_unit(rng, d), 0.3 + rng.random(), 20000)[0]
        assert np.abs(np.linalg.norm(n, axis=1) - 1.0).max() <= 2 * np.finfo(float).eps

    @pytest.mark.parametrize("delta, bound", [(1e-3, 2e-11), (0.3, 1e-12), (0.9, 3e-13),
                                              (1.5, 5e-14)])
    def test_sphere_incidence_drift(self, delta, bound):
        # 16 launches read at most 1.0e-11, 3.7e-13, 1.0e-13 and 1.7e-14 off
        # delta (the map that normalized every bounce: 1.1e-11, 3.5e-13,
        # 1.2e-13 and 2.0e-14)
        rng = np.random.default_rng(730)
        *_, incidence = launched_orbit(sphere_quadric(1.0), random_unit(rng), delta, 20000)
        assert np.abs(incidence - delta).max() <= bound

    def test_readme_orbit_against_mpmath(self):
        # the README's ellipsoid orbit against a 50-digit chain started from
        # the launch point projected radially onto the quadric.  The library
        # read 1.62e-13 off on P, 1.14e-13 on n and 1.48e-14 on the
        # incidence; the map that normalized every bounce 2.36e-13, 1.45e-13
        # and 2.10e-14
        q = Quadric(np.diag([4.0, 1.0, 1.0]))
        n0, x = launch_line(q, np.ones(3) / math.sqrt(3), 0.5)
        with mpmath.workdps(50):
            A_inv = mpmath.diag([mpmath.mpf(1) / 4, 1, 1])
            X, N = mpmath.matrix(x.tolist()), mpmath.matrix(n0.tolist())
            X /= mpmath.sqrt((X.T * A_inv * X)[0])
            rows = []
            for _ in range(100):
                X += -2 * (X.T * A_inv * N)[0] / (N.T * A_inv * N)[0] * N
                nu = A_inv * X / mpmath.norm(A_inv * X)
                N -= 2 * (N.T * nu)[0] * nu
                rows.append([*X, *N, mpmath.asin(abs((N.T * nu)[0]) / mpmath.norm(N))])
            want = np.array(rows, dtype=float)
        n, _, P, incidence = orbit_nd(q, n0, x, 100)
        assert np.abs(P - want[:, :3]).max() <= 2.0e-13
        assert np.abs(n[1:] - want[:, 3:6]).max() <= 1.3e-13
        assert np.abs(incidence - want[:, 6]).max() <= 1.8e-14


class TestStartPoint:
    """orbit_nd starts a line from any of its points, by one chord formula."""

    @pytest.mark.parametrize("d", [3, 8, 16])
    def test_any_point_of_the_line(self, d):
        # the departure point, the moment, and points before, inside and on
        # the chord: over these 20 bodies per d at delta 0.5 the first exit
        # points read at most 3.9 eps of the body's half-width apart, and the
        # moments 1.4 eps
        eps = np.finfo(float).eps
        for seed in range(20):
            rng = np.random.default_rng(seed * 7 + d)
            q = random_spd(rng, d)
            n, x = launch_line(q, rng.normal(size=d), 0.5)
            m, P = (rows[0] for rows in orbit_nd(q, n, x, 1)[1:3])
            chord = np.linalg.norm(P - x)
            for start in [m] + [x + t * chord * n for t in (-0.5, 0.3, 0.7)]:
                _, ms, Ps, _ = orbit_nd(q, n, start, 1)
                assert np.abs(Ps[0] - P).max() <= 8 * eps * q.half_width
                assert np.abs(ms[0] - m).max() <= 8 * eps * q.half_width

    @pytest.mark.parametrize("d", [3, 8, 16])
    def test_glancing_launches_never_miss(self, d):
        # launches at 1e-14 to 1e-5 leave a discriminant of rounding size,
        # negative on many of them: each is followed or refused as grazing,
        # never as a miss, as disc < 0 alone would read them
        rng = np.random.default_rng(1000 + d)
        for k in range(60):
            q = random_spd(rng, d) if k % 2 else Quadric(np.diag(np.exp(rng.uniform(-4, 4, d))))
            n, x = launch_line(q, rng.normal(size=d), 10.0 ** rng.uniform(-14, -5))
            try:
                orbit_nd(q, n, x, 1)
            except TangentLine:
                pass


class TestScaleFree:
    """The miss test compares disc with -2.5e-15 alpha, a ratio that does
    not change when the body is scaled, and the root s of a chord scales
    with the lengths, so a body scaled by 2^80 (lengths by 2^40) gives the
    unit body's orbit with P scaled exactly."""

    @pytest.mark.parametrize("d", [3, 8])
    def test_orbit_scaled_by_power_of_two(self, d):
        rng = np.random.default_rng(70 + d)
        q = random_spd(rng, d)
        n0, x = launch_line(q, random_unit(rng, d), 0.5)
        n, m, P, incidence = orbit_nd(q, n0, x, 200)
        n_big, m_big, P_big, incidence_big = orbit_nd(Quadric(q.A * 2.0 ** 80), n0,
                                                      x * 2.0 ** 40, 200)
        assert np.array_equal(n_big, n) and np.array_equal(incidence_big, incidence)
        assert np.array_equal(P_big, P * 2.0 ** 40) and np.array_equal(m_big, m * 2.0 ** 40)

    @pytest.mark.parametrize("radius", [1e7, 1e8])
    def test_large_sphere(self, radius):
        # a line at 0.5 rad and a diameter, refused as tangent by an absolute test
        q = sphere_quadric(radius)
        *_, incidence = launched_orbit(q, np.array([0.0, 0.0, 1.0]), 0.5, 20)
        assert np.abs(incidence - 0.5).max() < 1e-12
        *_, incidence = orbit_nd(q, np.array([1.0, 0.0, 0.0]), np.zeros(3), 4)
        assert np.abs(incidence - math.pi / 2).max() < 1e-12

    @pytest.mark.parametrize("radius", [2.0 ** -40, 1.0, 2.0 ** 40])
    def test_missing_and_tangent_lines(self, radius):
        # a line misses only where disc < -2.5e-15 alpha; on the sphere that
        # is a moment more than about 1.25e-15 of the radius outside it.  A
        # tangent line and one nearer than that are refused by the incidence
        # floor, at incidence 0
        q = sphere_quadric(radius)
        n = np.array([0.0, 1.0, 0.0])
        for offset in (2.0, 1.0 + 1e-14):
            with pytest.raises(NoIntersection, match="^line misses the quadric at bounce 0$"):
                orbit_nd(q, n, np.array([offset * radius, 0.0, 0.0]), 3)
        with pytest.raises(TangentLine, match="^line grazes the quadric at incidence 0, "
                                              "below 1e-06, at bounce 0$"):
            orbit_nd(q, n, np.array([radius, 0.0, 0.0]), 3)
        with pytest.raises(TangentLine, match="at bounce 0$"):
            orbit_nd(q, n, np.array([radius * (1.0 + 1e-15), 0.0, 0.0]), 3)


class TestIncidenceFloor:
    """orbit_nd refuses a bounce exactly when its incidence is below
    MIN_CHORD_ANGLE, the planar map's rule, on a body of any size."""

    @pytest.mark.parametrize("d", [3, 8, 16])
    def test_just_above_floor_followed(self, d):
        # launches at 1.0e-6 to 1.4e-6, just above the floor
        rng = np.random.default_rng(900)
        q = random_spd(rng, d)
        followed = 0
        for _ in range(40):
            n0, x = launch_line(q, random_unit(rng, d), 1.0e-6 + 0.4e-6 * rng.random())
            (n2,), (m2,), (P,), (angle,) = reference_orbit(q, n0, x, 1)
            if angle < MIN_CHORD_ANGLE:
                with pytest.raises(TangentLine, match="grazes"):
                    orbit_nd(q, n0, x, 1)
                continue
            n, m, Ps, incidence = orbit_nd(q, n0, x, 1)
            assert np.array_equal(n[1], n2) and np.array_equal(m[1], m2)
            assert np.array_equal(Ps[0], P) and incidence[0] == angle
            followed += 1
        assert followed >= 30

    @pytest.mark.parametrize("scale", [2.0 ** -40, 1.0, 2.0 ** 40])
    @pytest.mark.parametrize("d", [3, 8])
    def test_below_floor_refused_at_any_scale(self, d, scale):
        rng = np.random.default_rng(950 + d)
        q = random_spd(rng, d)
        scaled = Quadric(q.A * scale ** 2)
        for _ in range(20):
            nu, delta = random_unit(rng, d), 4e-7 + 2e-7 * rng.random()
            n, x = launch_line(q, nu, delta)
            assert reference_orbit(q, n, x, 1)[3][0] < MIN_CHORD_ANGLE
            with pytest.raises(TangentLine, match="grazes"):
                launched_orbit(scaled, nu, delta, 1)


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


class TestBatchedGradient:
    """gradient_contract_residual over (N, d) pairs against the per-pair loop
    it replaced, kept in conftest as its oracle."""

    @pytest.mark.parametrize("d", [2, 3, 8, 16])
    def test_matches_pairwise_loop(self, d):
        rng = np.random.default_rng(80 + d)
        q = random_spd(rng, d)
        pairs = [random_pair(rng, d, min_gap=0.1) for _ in range(40)]
        n1, n2 = np.array(pairs).transpose(1, 0, 2)
        r1, r2 = gradient_contract_residual(q, n1, n2)
        assert r1.shape == r2.shape == (40,)
        want = np.array([pairwise_gradient_residual(q, a, b) for a, b in pairs])
        assert np.abs(r1 - want[:, 0]).max() <= 1e-14
        assert np.abs(r2 - want[:, 1]).max() <= 1e-14
        # one pair is a batch of one: two floats, each row's bits
        for i in (0, 17, 39):
            one = gradient_contract_residual(q, n1[i], n2[i])
            assert all(type(r) is float for r in one)
            assert one == (r1[i], r2[i])

    def test_coincident_pair_in_batch(self, triaxial):
        rng = np.random.default_rng(90)
        n1 = random_units(rng, 3, (6,))
        n2 = -n1
        n2[4] = n1[4]
        with pytest.raises(CoincidentDirections):
            gradient_contract_residual(triaxial, n1, n2)


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
    """max |incidence - delta| along an orbit launched at incidence delta."""

    def test_sphere_invariant(self):
        q = sphere_quadric(1.0)
        assert np.abs(launched_orbit(q, np.array([0.1, -0.4, 0.91]), 0.6, 100)[3]
                      - 0.6).max() < 1e-10

    def test_triaxial_violates(self, triaxial):
        assert np.abs(launched_orbit(triaxial, np.array([0.3, 0.5, 0.8]), 0.5, 50)[3]
                      - 0.5).max() > 1e-2

    def test_scaling_invariance(self):
        for R in (1.0, 3.0):
            q = sphere_quadric(R)
            assert np.abs(launched_orbit(q, np.array([0.2, 0.4, 0.89]), 0.7, 20)[3]
                          - 0.7).max() < 1e-10


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
        assert [v.tolist() for v in got] == [v.tolist() for v in want]

    def test_normal_departure_allowed(self, triaxial):
        nu = np.ones(3) / math.sqrt(3)
        assert launch_line(triaxial, nu, math.pi / 2)[0] == pytest.approx(-nu, abs=1e-15)


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

    @pytest.mark.parametrize("d", [2, 3, 8, 16])
    def test_batched_rows(self, d):
        # (2, 3, d) directions, half with a negative largest entry and one per
        # batch a negative axis: each row's basis is orthonormal, orthogonal
        # to its n, and the one a single call gives
        rng = np.random.default_rng(50 + d)
        n = random_units(rng, d, (2, 3))
        top = np.argmax(np.abs(n), axis=-1)
        flip = np.take_along_axis(n, top[..., None], axis=-1) > 0
        n[0] = np.where(flip[0], -n[0], n[0])
        n[1, 2] = -np.eye(d)[d - 1]
        B = tangent_basis(n)
        assert B.shape == (2, 3, d - 1, d)
        for idx in np.ndindex(2, 3):
            assert np.abs(B[idx] @ n[idx]).max() < 1e-15
            assert np.abs(B[idx] @ B[idx].T - np.eye(d - 1)).max() < 1e-15
            assert np.array_equal(B[idx], tangent_basis(n[idx]))
        assert (np.take_along_axis(n[0], top[0][..., None], axis=-1) < 0).all()


class TestLaunchDirection:
    """launch_line's tangent is (e_j - nu_j nu)/|e_j - nu_j nu|, e_j the
    first axis other than the one where |nu| is largest."""

    @pytest.mark.parametrize("d", [3, 8, 16])
    def test_formula(self, d):
        rng = np.random.default_rng(60 + d)
        q = random_spd(rng, d)
        for nu in [random_unit(rng, d) for _ in range(4)] + [-np.eye(d)[0], -np.eye(d)[1]]:
            line_nu = nu
            nu = nu / np.linalg.norm(nu)  # as launch_line normalizes
            drop = int(np.argmax(np.abs(nu)))
            line_n, x = launch_line(q, line_nu, 0.9)
            j = [i for i in range(d) if i != drop][0]
            t = np.eye(d)[j] - nu[j] * nu
            t = t / np.linalg.norm(t)
            n = math.cos(0.9) * t - math.sin(0.9) * nu
            assert np.array_equal(line_n, n)
            assert np.array_equal(x, q.boundary_point(nu))

    @pytest.mark.parametrize("d", [3, 8, 16])
    def test_first_gram_schmidt_vector(self, d):
        rng = np.random.default_rng(70 + d)
        q = random_spd(rng, d)
        for _ in range(5):
            line_nu = random_unit(rng, d)
            nu = line_nu / np.linalg.norm(line_nu)
            t = gram_schmidt_basis(nu)[0]
            n = math.cos(0.5) * t - math.sin(0.5) * nu
            assert np.array_equal(launch_line(q, line_nu, 0.5)[0], n)
