import math
import re

import mpmath as mp
import numpy as np
import pytest

from gutkin.billiard_nd import Quadric, sphere_quadric
from gutkin.cli import AXIS_RANGE
from gutkin.errors import DegenerateCurvature, OffSurface, StepTooLarge
from gutkin import geodesic_chords
from gutkin.geodesic_chords import (DRIFT_LIMIT, MAX_STEPS, angle_condition_residuals,
                                    chord_correspondence, frenet_apparatus,
                                    integrate_geodesic, planarity_residuals,
                                    simultaneous_vanish_check)

SPD = [[2.0, 0.3, -0.2], [0.3, 1.5, 0.4], [-0.2, 0.4, 1.1]]
TRIAXIAL = np.diag([1.93 ** 2, 0.81 ** 2, 0.55 ** 2])


def stencil(y, h):
    """4th-order central differences of uniform samples, at all but the two
    samples at each end: the reference route for the closed-form rates."""
    return (y[:-4] - 8 * y[1:-3] + 8 * y[3:-1] - y[4:]) / (12 * h)


def numpy_rk4(q, x0, v0, length, step):
    """RK4 with one step per sample and each step end projected, one numpy
    call per 3-vector, as integrate_geodesic was first written: a reference
    route whose error is O(step^4), and which refuses a step whose drift
    exceeds DRIFT_LIMIT."""
    A_inv = q.A_inv

    def accel(x, v):
        a = A_inv @ x
        return -(v @ A_inv @ v) / (a @ a) * a

    x = np.asarray(x0, dtype=float)
    v = np.asarray(v0, dtype=float)
    v = v / np.linalg.norm(v)
    n_steps = max(1, round(length / step))
    h = length / n_steps
    xs, vs, accs = [x], [v], [accel(x, v)]
    for i in range(n_steps):
        k1x, k1v = v, accs[-1]
        k2x, k2v = v + 0.5 * h * k1v, accel(x + 0.5 * h * k1x, v + 0.5 * h * k1v)
        k3x, k3v = v + 0.5 * h * k2v, accel(x + 0.5 * h * k2x, v + 0.5 * h * k2v)
        k4x, k4v = v + h * k3v, accel(x + h * k3x, v + h * k3v)
        x = x + h / 6.0 * (k1x + 2 * k2x + 2 * k3x + k4x)
        v = v + h / 6.0 * (k1v + 2 * k2v + 2 * k3v + k4v)
        a = A_inv @ x
        x = x - 0.5 * (x @ a - 1.0) / (a @ a) * a
        a = A_inv @ x
        v = v - (v @ a) / (a @ a) * a
        v = v / np.linalg.norm(v)
        drift = abs(x @ A_inv @ x - 1.0)
        if not drift <= DRIFT_LIMIT:
            raise StepTooLarge(f"constraint drift {drift:g} at step {i}")
        xs.append(x)
        vs.append(v)
        accs.append(accel(x, v))
    return np.array(xs), np.array(vs), np.array(accs)


def float_rk4(q, x0, v0, length, step):
    """numpy_rk4 run on Python floats, nine products of A^-1 a stage, as
    integrate_geodesic ran before its Taylor series steps; a reference route
    fast enough for thousands of steps."""
    (b11, b12, b13), (b21, b22, b23), (b31, b32, b33) = q.A_inv.tolist()

    def grad(x1, x2, x3):
        return (b11 * x1 + b12 * x2 + b13 * x3, b21 * x1 + b22 * x2 + b23 * x3,
                b31 * x1 + b32 * x2 + b33 * x3)

    def accel(x1, x2, x3, v1, v2, v3):
        a1, a2, a3 = grad(x1, x2, x3)
        c = -((v1 * b11 + v2 * b21 + v3 * b31) * v1 + (v1 * b12 + v2 * b22 + v3 * b32) * v2
              + (v1 * b13 + v2 * b23 + v3 * b33) * v3) / (a1 * a1 + a2 * a2 + a3 * a3)
        return c * a1, c * a2, c * a3

    v = np.asarray(v0, dtype=float)
    n_steps = max(1, round(length / step))
    h = length / n_steps
    h2, h6 = 0.5 * h, h / 6.0
    x1, x2, x3 = np.asarray(x0, dtype=float).tolist()
    v1, v2, v3 = (v / np.linalg.norm(v)).tolist()
    acc = accel(x1, x2, x3, v1, v2, v3)
    xs, vs, accs = [(x1, x2, x3)], [(v1, v2, v3)], [acc]
    for _ in range(n_steps):
        k1v1, k1v2, k1v3 = acc
        k2x1, k2x2, k2x3 = v1 + h2 * k1v1, v2 + h2 * k1v2, v3 + h2 * k1v3
        k2v1, k2v2, k2v3 = accel(x1 + h2 * v1, x2 + h2 * v2, x3 + h2 * v3,
                                 k2x1, k2x2, k2x3)
        k3x1, k3x2, k3x3 = v1 + h2 * k2v1, v2 + h2 * k2v2, v3 + h2 * k2v3
        k3v1, k3v2, k3v3 = accel(x1 + h2 * k2x1, x2 + h2 * k2x2, x3 + h2 * k2x3,
                                 k3x1, k3x2, k3x3)
        k4x1, k4x2, k4x3 = v1 + h * k3v1, v2 + h * k3v2, v3 + h * k3v3
        k4v1, k4v2, k4v3 = accel(x1 + h * k3x1, x2 + h * k3x2, x3 + h * k3x3,
                                 k4x1, k4x2, k4x3)
        x1, x2, x3 = (x1 + h6 * (v1 + 2 * k2x1 + 2 * k3x1 + k4x1),
                      x2 + h6 * (v2 + 2 * k2x2 + 2 * k3x2 + k4x2),
                      x3 + h6 * (v3 + 2 * k2x3 + 2 * k3x3 + k4x3))
        v1, v2, v3 = (v1 + h6 * (k1v1 + 2 * k2v1 + 2 * k3v1 + k4v1),
                      v2 + h6 * (k1v2 + 2 * k2v2 + 2 * k3v2 + k4v2),
                      v3 + h6 * (k1v3 + 2 * k2v3 + 2 * k3v3 + k4v3))
        a1, a2, a3 = grad(x1, x2, x3)
        c = 0.5 * (x1 * a1 + x2 * a2 + x3 * a3 - 1.0) / (a1 * a1 + a2 * a2 + a3 * a3)
        x1, x2, x3 = x1 - c * a1, x2 - c * a2, x3 - c * a3
        a1, a2, a3 = grad(x1, x2, x3)
        c = (v1 * a1 + v2 * a2 + v3 * a3) / (a1 * a1 + a2 * a2 + a3 * a3)
        v1, v2, v3 = v1 - c * a1, v2 - c * a2, v3 - c * a3
        norm = math.sqrt(v1 * v1 + v2 * v2 + v3 * v3)
        v1, v2, v3 = v1 / norm, v2 / norm, v3 / norm
        acc = accel(x1, x2, x3, v1, v2, v3)
        xs.append((x1, x2, x3))
        vs.append((v1, v2, v3))
        accs.append(acc)
    return np.array(xs), np.array(vs), np.array(accs)


def start_on(q):
    """A point of q (L e_1 with A = L L^T) and a unit tangent there."""
    x0 = np.linalg.cholesky(q.A)[:, 0]
    a = q.A_inv @ x0
    v0 = np.array([0.3, 1.0, -0.2])
    v0 = v0 - (v0 @ a) / (a @ a) * a
    return x0, v0 / np.linalg.norm(v0)


def generic_start_on(q):
    """A point of q off every coordinate plane and a unit tangent there
    that is parallel to none of them."""
    x0 = np.linalg.cholesky(q.A) @ np.array([0.6, -0.48, 0.64])
    a = q.A_inv @ x0
    v0 = np.array([-0.5, 0.2, 0.9])
    v0 = v0 - (v0 @ a) / (a @ a) * a
    return x0, v0 / np.linalg.norm(v0)


def near_sphere_quadric(eps):
    """I + eps B, B the symmetric part of a fixed random matrix (numpy seed 3):
    A^-1 has nonzero off-diagonal entries."""
    m = np.random.default_rng(3).standard_normal((3, 3))
    return Quadric(np.eye(3) + eps * (m + m.T) / 2)


def chords_start(q):
    """The start of the chords command, (a1, 0, 0) along (0, 1, 0), on the
    principal section x3 = 0."""
    return np.array([math.sqrt(q.A[0, 0]), 0.0, 0.0]), np.array([0.0, 1.0, 0.0])


def waist_start(q):
    """(0, a2, 0) along (1, 0, 0): on a prolate spheroid diag(a1^2, a2^2,
    a2^2), a meridian from the waist towards the tip."""
    return np.array([0.0, math.sqrt(q.A[1, 1]), 0.0]), np.array([1.0, 0.0, 0.0])


def tilted_start(q, theta):
    """(a1, 0, 0) along (0, cos theta, sin theta): on diag(a1^2, a2^2, a3^2)
    the chords command's start, turned out of the plane x3 = 0."""
    return np.array([math.sqrt(q.A[0, 0]), 0.0, 0.0]), np.array([0.0, math.cos(theta),
                                                                 math.sin(theta)])


def joachimsthal_drift(q, traj):
    """max |J(s)/J(0) - 1| of Joachimsthal's J = <A^-1 v, v> |A^-1 x|^2, which
    is constant along every geodesic of q."""
    a, Bv = traj.x @ q.A_inv, traj.v @ q.A_inv
    J = np.einsum("ij,ij->i", Bv, traj.v) * np.einsum("ij,ij->i", a, a)
    return float(np.abs(J / J[0] - 1.0).max())


def mpmath_geodesic(q, x0, v0, h, steps, order=20):
    """The points at s = h, 2h, .. steps h of the geodesic from (x0, v0), by
    Taylor steps in 50 digits: X_(k+2) from x'' = c B x, B = A^-1, with
    P = <v, B v>, Q = |B x|^2 and c = -P/Q each expanded by its own Cauchy
    product."""
    points = []
    with mp.workdps(50):
        B = mp.matrix(q.A_inv.tolist())
        x, v = mp.matrix(list(x0)), mp.matrix(list(v0))
        v /= mp.norm(v)
        h = mp.mpf(h)
        for _ in range(steps):
            X, A, c, Q = [x, v], [B * x], [], []
            for k in range(order - 1):
                A.append(B * X[k + 1])
                P = mp.fsum((i + 1) * (k - i + 1) * mp.fdot(X[i + 1], A[k - i + 1])
                            for i in range(k + 1))
                Q.append(mp.fsum(mp.fdot(A[i], A[k - i]) for i in range(k + 1)))
                c.append(-(P + mp.fsum(Q[j] * c[k - j] for j in range(1, k + 1))) / Q[0])
                X.append(sum((c[i] * A[k - i] for i in range(k + 1)), mp.matrix(3, 1))
                         / ((k + 1) * (k + 2)))
            x = sum((X[k] * h ** k for k in range(order + 1)), mp.matrix(3, 1))
            v = sum((k * X[k] * h ** (k - 1) for k in range(1, order + 1)), mp.matrix(3, 1))
            points.append([float(xi) for xi in x])
    return np.array(points)


def great_circle_phase_error(length, step):
    """max |phase - s| of the unit sphere's geodesic from (1, 0, 0) along
    (0, 1, 0), whose closed form is the great circle (cos s, sin s, 0)."""
    traj = integrate_geodesic(sphere_quadric(1.0), [1.0, 0, 0], [0, 1.0, 0], length, step)
    phase = np.unwrap(np.arctan2(traj.x[:, 1], traj.x[:, 0]))
    return float(np.abs(phase - traj.s).max())


# a body and a start for each reference-route test; every coordinate of x
# and v changes sign along the two generic runs
RK4_CASES = [(np.eye(3), start_on), (np.diag([4.0, 1.0, 1.0]), start_on), (SPD, start_on),
             (np.diag([2.0 ** 80, 2.0 ** 80, 2.0 ** 78]), start_on),
             (TRIAXIAL, generic_start_on), (SPD, generic_start_on), (TRIAXIAL, chords_start)]
RK4_IDS = ["sphere", "spheroid", "spd", "scaled", "triaxial-generic", "spd-generic",
           "triaxial-chords"]


@pytest.fixture(scope="module")
def great_circle():
    sp = sphere_quadric(1.0)
    return sp, integrate_geodesic(sp, [1.0, 0, 0], [0, 1.0, 0], 2 * math.pi, 1e-3)


@pytest.fixture(scope="module")
def sphere_chords(great_circle):
    sp, traj = great_circle
    frenet = frenet_apparatus(sp, traj)
    cc = chord_correspondence(sp, traj, frenet, math.pi / 6)
    return sp, traj, frenet, cc


@pytest.fixture(scope="module")
def generic_spheroid():
    el = Quadric(np.diag([4.0, 1.0, 1.0]))
    v0 = np.array([1.0, 0.0, 1.0]) / math.sqrt(2)
    return el, integrate_geodesic(el, [0.0, 1.0, 0.0], v0, 6.0, 1e-3)


class TestDerivSamples:
    """The reference stencil itself, on functions with known derivatives."""

    def test_fourth_order_interior(self):
        s = np.linspace(0, 1, 201)
        h = s[1] - s[0]
        err = np.abs(stencil(np.sin(3 * s), h) - 3 * np.cos(3 * s[2:-2]))
        assert err.max() < 1e-8

    def test_vector_samples(self):
        s = np.linspace(0, 1, 101)
        y = np.stack([np.sin(s), np.cos(s)], axis=1)
        d = stencil(y, s[1] - s[0])
        assert d.shape == (97, 2)
        assert np.abs(d[:, 0] - np.cos(s[2:-2])).max() < 1e-8
        assert np.abs(d[:, 1] + np.sin(s[2:-2])).max() < 1e-8


class TestIntegrateGeodesic:
    def test_great_circle_closes(self, great_circle):
        _, traj = great_circle
        assert np.linalg.norm(traj.x[-1] - traj.x[0]) < 1e-7

    def test_constraint_drift(self, great_circle):
        sp, traj = great_circle
        assert max(abs(x @ sp.A_inv @ x - 1) for x in traj.x) < 1e-9
        assert np.abs(np.linalg.norm(traj.v, axis=1) - 1).max() < 1e-9

    def test_long_run_drift(self):
        sp = sphere_quadric(1.0)
        traj = integrate_geodesic(sp, [1.0, 0, 0], [0, 1.0, 0],
                                  20.0, 1e-3)
        assert max(abs(x @ sp.A_inv @ x - 1) for x in traj.x) < 1e-9

    @pytest.mark.parametrize("length, bound", [(6.0, 3e-15), (20.0, 1e-14)])
    def test_great_circle_at_every_step(self, length, bound):
        # the phase of the great circle (cos s, sin s, 0) is at rounding at
        # every sample spacing, the same at each: 8.9e-16 over 6 and 3.6e-15
        # over 20 measured, where RK4's O(h^4) error was 5e-10 at 1e-2
        for step in (0.1, 2e-2, 1e-2, 5e-3, 1e-3):
            assert great_circle_phase_error(length, step) < bound

    def test_acceleration_normal(self, great_circle):
        _, traj = great_circle
        dots = np.einsum("ij,ij->i", traj.x_ddot, traj.v)
        assert np.abs(dots).max() < 1e-8

    def test_principal_section_stays_planar(self):
        el = Quadric(np.diag([4.0, 1.0, 1.0]))
        traj = integrate_geodesic(el, [2.0, 0, 0], [0, 1.0, 0], 8.0, 1e-3)
        assert np.abs(traj.x[:, 2]).max() < 1e-8

    def test_off_surface_rejected(self):
        sp = sphere_quadric(1.0)
        with pytest.raises(OffSurface):
            integrate_geodesic(sp, [1.1, 0, 0], [0, 1.0, 0], 1.0, 1e-3)
        with pytest.raises(OffSurface):
            integrate_geodesic(sp, [1.0, 0, 0], [1.0, 0, 0], 1.0, 1e-3)

    @pytest.mark.parametrize("speed", [1e-3, 1.0, 100.0])
    def test_tangency_test_ignores_speed(self, speed):
        # the normal part of v0 is compared with 1e-10 |v0|, so the verdict
        # on a direction does not depend on its length
        sp = sphere_quadric(1.0)
        traj = integrate_geodesic(sp, [1.0, 0, 0], [1e-11 * speed, speed, 0], 0.1, 1e-2)
        assert np.linalg.norm(traj.v[0]) == pytest.approx(1.0, abs=1e-15)
        with pytest.raises(OffSurface, match="tangent"):
            integrate_geodesic(sp, [1.0, 0, 0], [1e-9 * speed, speed, 0], 0.1, 1e-2)

    @pytest.mark.parametrize("v0", [[0.0, 0.0, 0.0], [0.0, math.nan, 0.0]])
    def test_zero_or_nan_direction_rejected(self, v0):
        with pytest.raises(OffSurface, match="nonzero vector tangent"):
            integrate_geodesic(sphere_quadric(1.0), [1.0, 0, 0], v0, 0.1, 1e-2)

    def test_nan_start_rejected(self):
        with pytest.raises(OffSurface, match="F\\(x0\\) = nan"):
            integrate_geodesic(sphere_quadric(1.0), [math.nan, 0, 0], [0, 1.0, 0], 0.1, 1e-2)

    @pytest.mark.parametrize("A", [np.eye(3), np.diag([4.0, 1.0, 1.0]), SPD],
                             ids=["sphere", "spheroid", "spd"])
    def test_matches_numpy_reference(self, A):
        # numpy_rk4's own O(h^4) error: 3.9e-13 to 6.6e-13 in x, 4.0e-13 to
        # 1.1e-12 in v and 3.9e-13 to 2.6e-12 in x_ddot measured
        q = Quadric(np.array(A))
        x0, v0 = start_on(q)
        traj = integrate_geodesic(q, x0, v0, 3.0, 2e-3)
        x, v, x_ddot = numpy_rk4(q, x0, v0, 3.0, 2e-3)
        assert np.abs(traj.x - x).max() < 2e-12
        assert np.abs(traj.v - v).max() < 3e-12
        assert np.abs(traj.x_ddot - x_ddot).max() < 6e-12

    @pytest.mark.parametrize("A, start, length, step, bounds", [
        # float_rk4's O(h^4) error in x, v and x_ddot, measured in units of
        # the half-width w: at most 4.5e-12, 2.5e-11 and 1.8e-10 over pi
        # half-widths at 1e-3 of one, 4.6e-5, 2.8e-4 and 2.0e-3 over 5 at 0.05
        *(pytest.param(A, start, math.pi, 1e-3, (1e-11, 6e-11, 5e-10), id=name)
          for (A, start), name in zip(RK4_CASES, RK4_IDS)),
        *(pytest.param(A, start, 5.0, 0.05, (1e-4, 6e-4, 4e-3), id=f"5.0-0.05-{name}")
          for (A, start), name in zip(RK4_CASES, RK4_IDS)),
    ])
    def test_matches_float_rk4(self, A, start, length, step, bounds):
        q = Quadric(np.array(A))
        x0, v0 = start(q)
        w = q.half_width
        traj = integrate_geodesic(q, x0, v0, length * w, step * w)
        x, v, x_ddot = float_rk4(q, x0, v0, length * w, step * w)
        assert np.abs(traj.x - x).max() < bounds[0] * w
        assert np.abs(traj.v - v).max() < bounds[1]
        assert np.abs(traj.x_ddot - x_ddot).max() < bounds[2] / w

    def test_fourth_order_convergence(self):
        # float_rk4 converges to the samples at fourth order: halving its
        # step over 5 half-widths cuts its distance from them 16-fold, as
        # RK4's O(h^4) error falls when the samples are exact (ratios 15.2
        # to 16.2 measured over the cases)
        for A, start in RK4_CASES:
            q = Quadric(np.array(A))
            x0, v0 = start(q)
            w = q.half_width
            traj = integrate_geodesic(q, x0, v0, 5.0 * w, 0.05 * w)
            n = traj.s.size - 1
            coarse = float_rk4(q, x0, v0, 5.0 * w, 5.0 * w / n)[0]
            fine = float_rk4(q, x0, v0, 5.0 * w, 5.0 * w / (2 * n))[0][::2]
            ratio = np.abs(traj.x - coarse).max() / np.abs(traj.x - fine).max()
            assert 14.0 < ratio < 18.0

    @pytest.mark.parametrize("axes", [(AXIS_RANGE[0],) * 3, (AXIS_RANGE[1],) * 3,
                                      (AXIS_RANGE[0], 1.0, AXIS_RANGE[1]), (1.93, 0.81, 0.55)])
    def test_chords_bodies_have_diagonal_inverse(self, axes):
        # the chords command's geodesic stays in the plane x3 = 0, so that its
        # tau and D_numeric columns are exact zeros, only if inv gives the
        # off-diagonal entries of A^-1 as exact zeros
        off = ~np.eye(3, dtype=bool)
        axes = np.array(axes)
        assert (Quadric(np.diag(axes ** 2)).A_inv[off] == 0.0).all()
        for radius in axes:
            assert (sphere_quadric(radius).A_inv[off] == 0.0).all()

    @pytest.mark.parametrize("A, start, length, step", [
        *(pytest.param(SPD, start_on, 6.0, step, id=str(step)) for step in (0.7, 1.0, 2.0, 3.0)),
        pytest.param(np.eye(3), start_on, 6.0, 1.0, id="sphere-1.0"),
        pytest.param(np.eye(3), start_on, 6.0, 2.0, id="sphere-2.0"),
        pytest.param(np.diag([25.0, 1.0, 1.0]), waist_start, 12.0, 0.3, id="prolate-0.3"),
        pytest.param(np.diag([25.0, 1.0, 1.0]), waist_start, 12.0, 0.4, id="prolate-0.4"),
    ])
    def test_coarse_step_runs(self, A, start, length, step):
        # steps that RK4 refused for their drift: the series steps do not
        # depend on the sample spacing, so the samples are those of a run 64
        # times finer, to rounding (relative to max |x| and max |x''|, at
        # most 7.8e-16, 1.0e-14 and 1.0e-14 in x, v and x_ddot measured)
        q = Quadric(np.array(A))
        x0, v0 = start(q)
        with pytest.raises(StepTooLarge):
            numpy_rk4(q, x0, v0, length, step)
        traj = integrate_geodesic(q, x0, v0, length, step)
        fine = integrate_geodesic(q, x0, v0, length, length / (64 * (traj.s.size - 1)))
        assert traj.series_steps == fine.series_steps
        assert np.array_equal(traj.s, fine.s[::64])
        for got, want, bound in ((traj.x, fine.x, 2e-15), (traj.v, fine.v, 2e-14),
                                 (traj.x_ddot, fine.x_ddot, 2e-14)):
            assert np.abs(got - want[::64]).max() < bound * np.abs(want).max()

    @pytest.mark.parametrize("axes, step", [((1.0, 1.0, 1.0), 1e150), ((2.0, 1.0, 1.0), 1e100)])
    def test_overflowing_step_refused(self, axes, step):
        # six samples, whose steps overflowed RK4's stages: the run would take
        # more than MAX_STEPS series steps, and is refused at the first
        q = Quadric(np.diag(np.square(axes)))
        message = (re.escape(f"length {6 * step:g}") + " would take .* series steps of the mean "
                   f"length so far, .*; a run may take at most {MAX_STEPS}")
        with pytest.raises(StepTooLarge, match=f"^{message}$"):
            integrate_geodesic(q, [axes[0], 0, 0], [0, 1.0, 0], 6 * step, step)

    @pytest.mark.parametrize("A, start, most", [
        (np.eye(3), start_on, 4), (TRIAXIAL, generic_start_on, 40),
        # the equator of a disk whose rim has the curvature radius 1e-6
        (np.diag([1.0, 1.0, 1e-6]), chords_start, 4),
    ], ids=["sphere", "triaxial-generic", "disk"])
    def test_work_bound(self, monkeypatch, A, start, most):
        # a run of n series steps, whatever its sample spacing, is refused
        # when MAX_STEPS is below n, and not when it is 2n
        q = Quadric(A)
        x0, v0 = start(q)
        n = integrate_geodesic(q, x0, v0, 2 * math.pi, 1e-3).series_steps
        assert n == integrate_geodesic(q, x0, v0, 2 * math.pi, 0.5).series_steps <= most
        monkeypatch.setattr(geodesic_chords, "MAX_STEPS", 2 * n)
        integrate_geodesic(q, x0, v0, 2 * math.pi, 0.5)
        monkeypatch.setattr(geodesic_chords, "MAX_STEPS", n - 1)
        with pytest.raises(StepTooLarge, match=f"a run may take at most {n - 1}$"):
            integrate_geodesic(q, x0, v0, 2 * math.pi, 0.5)

    @pytest.mark.parametrize("tolerance, message", [
        # steps of 1e-13 or of no length at all: refused at the first
        (1e-300, "^length 50 would take 5.*e[+]13 series steps of the mean length so far, "),
        (0.0, "^length 50 would take inf series steps of the mean length so far, 0; "),
        # steps far past the series' radius of convergence
        (1e6, "^constraint drift .* at series step 0$"),
    ])
    def test_step_rule_refusals(self, monkeypatch, tolerance, message):
        monkeypatch.setattr(geodesic_chords, "TOLERANCE", tolerance)
        with pytest.raises(StepTooLarge, match=message):
            integrate_geodesic(sphere_quadric(1.0), [1.0, 0, 0], [0, 1.0, 0], 50.0, 0.1)

    @pytest.mark.parametrize("length, step", [
        (1.0, 0.0), (1.0, -1e-3), (1.0, math.nan), (1.0, math.inf),
        (math.nan, 1e-3), (-1.0, 1e-3), (0.0, 1e-3), (math.inf, 1e-3),
    ])
    def test_length_and_step_validated(self, length, step):
        with pytest.raises(ValueError, match="positive and finite"):
            integrate_geodesic(sphere_quadric(1.0), [1.0, 0, 0], [0, 1.0, 0],
                               length, step)

    @pytest.mark.parametrize("length, step", [(1e300, 1e-300), (1e200, 1e-100),
                                              (1e20, 1e-2)])
    def test_step_count_overflow(self, length, step):
        with pytest.raises(ValueError, match="overflows the step count"):
            integrate_geodesic(sphere_quadric(1.0), [1.0, 0, 0], [0, 1.0, 0],
                               length, step)

    @pytest.mark.parametrize("length, step", [(1e12, 1e-3), (2e18, 1.0)])
    def test_unstorable_run_fails_at_once(self, length, step):
        # both counts fit an index; the second one's nine floats a sample
        # do not, which must still read as a shortage of memory
        with pytest.raises(MemoryError):
            integrate_geodesic(sphere_quadric(1.0), [1.0, 0, 0], [0, 1.0, 0],
                               length, step)

    def test_other_dimension_rejected(self, sphere_chords):
        _, traj, frenet, _ = sphere_chords
        q = sphere_quadric(1.0, d=2)
        with pytest.raises(ValueError):
            integrate_geodesic(q, [1.0, 0], [0, 1.0], 1.0, 1e-3)
        with pytest.raises(ValueError):
            frenet_apparatus(q, traj)
        with pytest.raises(ValueError):
            chord_correspondence(q, traj, frenet, 0.5)


class TestOracles:
    """The samples against Joachimsthal's integral and 50-digit mpmath."""

    @pytest.mark.parametrize("axes", [(1.93, 0.81, 0.55), (2.0, 1.5, 1.0),
                                      (1.655, 0.863, 0.701), (2.0, 0.8, 0.5)])
    @pytest.mark.parametrize("theta", [0.3, 0.9, 1.4])
    def test_joachimsthal_tilted(self, axes, theta):
        # diagonal bodies, the chords command's start turned out of x3 = 0,
        # over 2 pi a1: at most 7.0e-15 measured, at 62 to 80 series steps
        axes = np.array(axes)
        q = Quadric(np.diag(axes ** 2))
        traj = integrate_geodesic(q, *tilted_start(q, theta), 2 * math.pi * axes[0], 1e-3)
        assert joachimsthal_drift(q, traj) < 2e-14

    @pytest.mark.parametrize("q", [Quadric(np.array(SPD)), near_sphere_quadric(0.3),
                                   near_sphere_quadric(1e-2), near_sphere_quadric(1e-4)],
                             ids=["spd", "eps-0.3", "eps-1e-2", "eps-1e-4"])
    def test_joachimsthal_full_inverse(self, q):
        # bodies with a full A^-1, from a generic start over 2 pi: 2.0e-15,
        # 2.8e-15, 1.3e-15 and 2.0e-15 measured
        traj = integrate_geodesic(q, *generic_start_on(q), 2 * math.pi, 1e-3)
        assert joachimsthal_drift(q, traj) < 1e-14

    def test_joachimsthal_long_run(self):
        # diag(4, 2.25, 1) over length 200, 780 series steps: 6.0e-15
        # measured, where RK4 read 1.8e-13 at h = 1e-3 and 2.6e-8 at 3e-2
        q = Quadric(np.diag([4.0, 2.25, 1.0]))
        traj = integrate_geodesic(q, [0.0, 1.5, 0.0], np.array([1.0, 0.0, 1.0]) / math.sqrt(2),
                                  200.0, 1e-2)
        assert joachimsthal_drift(q, traj) < 3e-14

    @pytest.mark.parametrize("q, start", [
        (Quadric(np.diag([4.0, 2.25, 1.0])), lambda q: tilted_start(q, 0.9)),
        (Quadric(np.array(SPD)), generic_start_on), (near_sphere_quadric(0.3), generic_start_on),
    ], ids=["triaxial-tilted", "spd", "eps-0.3"])
    def test_short_arc_matches_mpmath(self, q, start):
        # the position every 0.05 along an arc of 1, against order-20 steps
        # of 0.05 in 50 digits: at most 6.7e-16 measured
        x0, v0 = start(q)
        traj = integrate_geodesic(q, x0, v0, 1.0, 0.05)
        assert np.abs(traj.x[1:] - mpmath_geodesic(q, x0, v0, 0.05, 20)).max() < 2e-15


def chords_of(q, traj, delta):
    """The Frenet data and chords of a trajectory, formed as the chords
    command forms them."""
    frenet = frenet_apparatus(q, traj)
    return frenet, chord_correspondence(q, traj, frenet, delta)


@pytest.fixture(scope="module")
def tilted_triaxial():
    """A geodesic of diag(4, 2.25, 1) that leaves every principal plane."""
    q = Quadric(np.diag([4.0, 2.25, 1.0]))
    v0 = np.array([1.0, 0.0, 1.0]) / math.sqrt(2)
    return q, integrate_geodesic(q, [0.0, 1.5, 0.0], v0, 6.0, 1e-3)


@pytest.fixture(scope="module")
def near_sphere_run():
    """A geodesic of near_sphere_quadric(0.3) from a generic start."""
    q = near_sphere_quadric(0.3)
    return q, integrate_geodesic(q, *generic_start_on(q), 2 * math.pi, 1e-3)


@pytest.fixture(scope="module")
def readme_spheroid():
    """The geodesic of `chords --surface ellipsoid --axes 2,1,1`, a principal
    section, at the README's delta."""
    q = Quadric(np.diag([4.0, 1.0, 1.0]))
    return q, integrate_geodesic(q, [2.0, 0, 0], [0, 1.0, 0], 2 * math.pi, 1e-3)


# each run with a delta; with the round sphere, the three runs with torsion
# and the README's principal section
RUNS = [("great_circle", math.pi / 6), ("generic_spheroid", 0.8), ("tilted_triaxial", 0.7),
        ("near_sphere_run", 0.7), ("readme_spheroid", 0.5236)]


class TestFrenet:
    def test_great_circle(self, great_circle):
        sp, traj = great_circle
        frenet = frenet_apparatus(sp, traj)
        assert np.abs(frenet.k - 1.0).max() < 1e-6

    @pytest.mark.parametrize("run", ["great_circle", "readme_spheroid"])
    def test_principal_section_torsion_is_positive_zero(self, request, run):
        # tau = <n', w> adds products of zeros, whatever their signs, to +0.0
        q, traj = request.getfixturevalue(run)
        frenet = frenet_apparatus(q, traj)
        assert (frenet.tau == 0.0).all() and not np.signbit(frenet.tau).any()
        assert (frenet.tau_dot == 0.0).all()

    def test_sphere_radius_2(self):
        sp = sphere_quadric(2.0)
        traj = integrate_geodesic(sp, [2.0, 0, 0], [0, 1.0, 0], 4.0, 1e-3)
        assert np.abs(frenet_apparatus(sp, traj).k - 0.5).max() < 1e-6

    def test_frame_orthonormal(self, generic_spheroid):
        el, traj = generic_spheroid
        frenet = frenet_apparatus(el, traj)
        for a, b in [(frenet.v, frenet.n), (frenet.v, frenet.w), (frenet.n, frenet.w)]:
            assert np.abs(np.einsum("ij,ij->i", a, b)).max() < 1e-8

    def test_generic_torsion_nonzero(self, generic_spheroid):
        el, traj = generic_spheroid
        frenet = frenet_apparatus(el, traj)
        assert np.abs(frenet.tau).max() > 1e-3

    def test_frenet_identity(self, generic_spheroid):
        # n' = -k v + tau w at every sample; 8.6e-16 measured
        el, traj = generic_spheroid
        frenet = frenet_apparatus(el, traj)
        recon = -frenet.k[:, None] * frenet.v + frenet.tau[:, None] * frenet.w
        assert np.linalg.norm(frenet.n_dot - recon, axis=1).max() < 3e-15

    def test_ndot_v_projection(self, great_circle):
        # 2.2e-16 measured
        sp, traj = great_circle
        frenet = frenet_apparatus(sp, traj)
        proj = np.einsum("ij,ij->i", frenet.n_dot, frenet.v)
        assert np.abs(proj + frenet.k).max() < 1e-15

    def test_degenerate_rejected(self):
        from gutkin.geodesic_chords import GeodesicTrajectory
        s = np.arange(6) * 0.1
        x = np.zeros((6, 3))
        x[:, 0] = s
        traj = GeodesicTrajectory(s=s, x=x, v=np.tile([1.0, 0, 0], (6, 1)),
                                  x_ddot=np.zeros((6, 3)))
        with pytest.raises(DegenerateCurvature):
            frenet_apparatus(sphere_quadric(1.0), traj)


class TestShortRun:
    @pytest.mark.parametrize("stage", ["frenet", "chords"])
    def test_three_samples(self, stage):
        # every rate is taken at its own sample, so a run of 3 samples gets
        # every column, at rounding as on a long run
        sp = sphere_quadric(1.0)
        traj = integrate_geodesic(sp, [1.0, 0, 0], [0, 1.0, 0], 0.002, 1e-3)
        assert traj.s.size == 3
        if stage == "frenet":
            frenet = frenet_apparatus(sp, traj)
            assert frenet.tau_dot.shape == (3,)
            assert np.abs(frenet.k - 1.0).max() < 1e-15
            assert (frenet.tau == 0.0).all()
        else:
            frenet, cc = chords_of(sp, traj, 0.5)
            assert cc.l_ddot.shape == (3,)
            assert np.abs(cc.l - 2 * math.sin(0.5)).max() < 1e-15
            assert max(r.max() for r in angle_condition_residuals(cc, frenet)) < 1e-15


class TestChordCorrespondence:
    def test_sphere_chord_length(self, sphere_chords):
        _, _, _, cc = sphere_chords
        assert np.abs(cc.l - 1.0).max() < 1e-8  # 2 R sin(pi/6)

    def test_diameters_at_right_angle(self, great_circle):
        sp, traj = great_circle
        _, cc = chords_of(sp, traj, math.pi / 2)
        assert np.abs(cc.l - 2.0).max() < 1e-8

    def test_image_is_great_circle(self, sphere_chords):
        _, _, _, cc = sphere_chords
        centered = cc.Gamma - cc.Gamma.mean(axis=0)
        assert np.linalg.svd(centered, compute_uv=False)[-1] < 1e-7

    def test_image_angle(self, sphere_chords):
        # 1.0e-15 measured
        _, _, _, cc = sphere_chords
        cosang = (np.einsum("ij,ij->i", cc.Gamma_dot, cc.z)
                  / np.linalg.norm(cc.Gamma_dot, axis=1))
        ang = np.arccos(np.clip(cosang, -1, 1))
        assert np.abs(ang - math.pi / 6).max() < 4e-15

    def test_ellipsoid_chord_length_by_bisection(self):
        # oracle: bisect <A^-1 p, p> - 1 along each ray, A^-1 = diag(1/4, 1, 1)
        q = Quadric(np.diag([4.0, 1.0, 1.0]))
        traj = integrate_geodesic(q, [2.0, 0, 0], [0, 1.0, 0], 6.0, 1e-2)
        delta = 0.7
        _, cc = chords_of(q, traj, delta)
        a_inv = np.array([0.25, 1.0, 1.0])
        normal = traj.x * a_inv
        normal /= np.linalg.norm(normal, axis=1)[:, None]
        z = math.cos(delta) * traj.v - math.sin(delta) * normal
        z /= np.linalg.norm(z, axis=1)[:, None]
        lo = np.full(len(z), 1e-6)  # just inside, past the start point
        hi = np.full(len(z), 5.0)  # beyond the diameter 4
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            p = traj.x + mid[:, None] * z
            inside = (p * p * a_inv).sum(axis=1) < 1.0
            lo = np.where(inside, mid, lo)
            hi = np.where(inside, hi, mid)
        assert np.abs(cc.l - 0.5 * (lo + hi)).max() < 1e-12

    def test_image_on_surface(self, sphere_chords):
        sp, _, _, cc = sphere_chords
        assert max(abs(g @ sp.A_inv @ g - 1) for g in cc.Gamma) < 1e-9

    @pytest.mark.parametrize("delta", [0.0, -0.2, math.pi / 2 + 1e-9, math.nan])
    def test_delta_out_of_range(self, sphere_chords, delta):
        sp, traj, frenet, _ = sphere_chords
        with pytest.raises(ValueError, match="delta"):
            chord_correspondence(sp, traj, frenet, delta)

    @pytest.mark.parametrize("run, delta", RUNS[2:])
    def test_rates_match_stencils(self, request, run, delta):
        # the closed forms against 4th-order differences of the samples at
        # h = 1e-3, away from the two samples at each end; each bound is about
        # 2-3 times the largest difference measured over the three runs, whose
        # maxima were 1.8e-11, 3.5e-10, 1.1e-10, 1.8e-10, 1.9e-9, 2.2e-10 and
        # 2.5e-9 in the order below
        q, traj = request.getfixturevalue(run)
        frenet, cc = chords_of(q, traj, delta)
        h, inner = traj.s[1], slice(2, -2)
        pairs = {"tau": (np.einsum("ij,ij->i", stencil(frenet.n, h), frenet.w[inner]),
                         frenet.tau, 5e-11),
                 "k_dot": (stencil(frenet.k, h), frenet.k_dot, 1e-9),
                 "tau_dot": (stencil(frenet.tau, h), frenet.tau_dot, 3e-10),
                 "l_dot": (stencil(cc.l, h), cc.l_dot, 5e-10),
                 "l_ddot": (stencil(cc.l_dot, h), cc.l_ddot, 5e-9),
                 "Gamma_dot": (stencil(cc.Gamma, h), cc.Gamma_dot, 5e-10),
                 "Gamma_ddot": (stencil(cc.Gamma_dot, h), cc.Gamma_ddot, 6e-9)}
        for name, (differenced, closed, bound) in pairs.items():
            assert np.abs(differenced - closed[inner]).max() < bound, name

    @pytest.mark.parametrize("run", ["tilted_triaxial", "near_sphere_run"])
    def test_jet_matches_mpmath(self, request, run):
        # every 750th sample; the largest errors measured over both runs were
        # 6.7e-16 (x'''), 1.6e-15 (l') and 8.0e-15 (l'')
        q, traj = request.getfixturevalue(run)
        frenet, cc = chords_of(q, traj, 0.7)
        for i in range(0, traj.s.size, 750):
            x_dddot, l_dot, l_ddot = mpmath_chord_jet(q, traj.x[i], traj.v[i], 0.7)
            assert np.abs(frenet.x_dddot[i] - x_dddot).max() < 2e-15
            assert abs(cc.l_dot[i] - l_dot) < 4e-15
            assert abs(cc.l_ddot[i] - l_ddot) < 2e-14


def mpmath_chord_jet(q, x, v, delta):
    """x''', l' and l'' at the sample (x, v), in 60 digits: x''' differentiates
    x'' = -(<v, B v>/|B x|^2) B x, B = A^-1, along (x, v) -> (v, x''), and l'
    and l'' differentiate the far root of the ray along the geodesic's
    second-order Taylor arc, which is all that l'' depends on."""
    with mp.workdps(60):
        B = mp.matrix(q.A_inv.tolist())
        x, v = mp.matrix(x.tolist()), mp.matrix(v.tolist())

        def accel(x, v):
            a = B * x
            return -mp.fdot(v, B * v) / mp.fdot(a, a) * a

        x2 = accel(x, v)
        x3 = mp.matrix([mp.diff(lambda t: accel(x + t * v, v + t * x2)[i], 0) for i in range(3)])

        def chord_length(t):
            a = B * (x + t * v + t ** 2 / 2 * x2)
            z = mp.cos(delta) * (v + t * x2 + t ** 2 / 2 * x3) - mp.sin(delta) * a / mp.norm(a)
            return -2 * mp.fdot(a, z) / mp.fdot(B * z, z)

        return (np.array([float(c) for c in x3]), float(mp.diff(chord_length, 0, 1)),
                float(mp.diff(chord_length, 0, 2)))


def chord_report(axes, scale):
    """Every column of a ``chords`` report on the quadric with semi-axes
    axes * scale, its geodesic run over a length and step scaled alike."""
    axes = np.asarray(axes, dtype=float) * scale
    q = Quadric(np.diag(axes ** 2))
    traj = integrate_geodesic(q, [axes[0], 0, 0], [0, 1.0, 0], 2.0 * scale, 1e-3 * scale)
    frenet, cc = chords_of(q, traj, 0.5236)
    return {"s": traj.s, "k": frenet.k, "tau": frenet.tau, "l": cc.l, "ldot": cc.l_dot,
            **dict(zip(("R5", "R6", "R9"), angle_condition_residuals(cc, frenet))),
            **dict(zip(("D_numeric", "D_analytic", "A_coeff"), planarity_residuals(cc, frenet)))}


class TestScaleFree:
    """Both refusal thresholds compare scale-free ratios (l / |x| and k |x|),
    so a quadric scaled by a power of two gives every column of the unit
    one, scaled exactly by the power of length it carries."""

    POWERS = {"s": 1, "k": -1, "tau": -1, "l": 1, "ldot": 0, "R5": 0, "R6": 0, "R9": 0,
              "D_numeric": -1, "D_analytic": -1, "A_coeff": 1}

    @pytest.mark.parametrize("axes", [(1.0, 1.0, 1.0), (2.0, 1.0, 1.0)])
    @pytest.mark.parametrize("scale", [2.0 ** -43, 2.0 ** 30])
    def test_columns_scale_exactly(self, axes, scale):
        unit, scaled = chord_report(axes, 1.0), chord_report(axes, scale)
        for name, power in self.POWERS.items():
            assert np.array_equal(scaled[name], unit[name] * scale ** power), name


class TestAngleConditions:
    def test_sphere_residuals(self, sphere_chords):
        # 8.9e-16, 5.6e-16 and 1.2e-15 measured, ends included
        _, _, frenet, cc = sphere_chords
        r5, r6, r9 = angle_condition_residuals(cc, frenet)
        assert r5.max() < 3e-15
        assert r6.max() < 2e-15
        assert r9.max() < 4e-15

    @pytest.mark.parametrize("run, delta", RUNS)
    def test_consistency_at_rounding(self, request, run, delta):
        # R5, R6 and D_numeric - D_analytic restate the closed forms in the
        # frame, so they are at rounding at every sample, ends included: the
        # largest over the runs were 1.8e-14, 2.7e-15 and 9.2e-15
        q, traj = request.getfixturevalue(run)
        frenet, cc = chords_of(q, traj, delta)
        r5, r6, _ = angle_condition_residuals(cc, frenet)
        d_num, d_ana, _ = planarity_residuals(cc, frenet)
        assert r5.max() < 5e-14
        assert r6.max() < 8e-15
        assert np.abs(d_num - d_ana).max() < 3e-14

    def test_ellipsoid_negative_control(self, generic_spheroid):
        el, traj = generic_spheroid
        frenet, cc = chords_of(el, traj, 0.9117382909684876)
        _, _, r9 = angle_condition_residuals(cc, frenet)
        assert r9.max() > 1e-2


class TestPlanarity:
    def test_sphere_determinants_vanish(self, sphere_chords):
        # every row lies in the plane x3 = 0, whose third entries are zeros
        _, _, frenet, cc = sphere_chords
        d_num, d_ana, a_coeff = planarity_residuals(cc, frenet)
        assert (d_num == 0.0).all() and (d_ana == 0.0).all()
        assert np.abs(a_coeff - 2 * math.sin(math.pi / 6) ** 3).max() < 2e-15  # 5.0e-16 measured

    def test_principal_section_coplanar(self):
        el = Quadric(np.diag([4.0, 1.0, 1.0]))
        traj = integrate_geodesic(el, [2.0, 0, 0], [0, 1.0, 0], 6.0, 1e-3)
        frenet, cc = chords_of(el, traj, 0.6)
        d_num, _, _ = planarity_residuals(cc, frenet)
        assert (d_num == 0.0).all()

    def test_stacked_determinant_matches_per_sample(self, generic_spheroid):
        el, traj = generic_spheroid
        frenet, cc = chords_of(el, traj, 0.8)
        d_num, _, _ = planarity_residuals(cc, frenet)
        want = [np.linalg.det(np.array([z, g1, g2]))
                for z, g1, g2 in zip(cc.z, cc.Gamma_dot, cc.Gamma_ddot)]
        assert np.array_equal(d_num, want)

    def test_determinant_expansion_matches(self, generic_spheroid):
        # on a genuinely non-planar curve both determinant routes must agree
        el, traj = generic_spheroid
        frenet, cc = chords_of(el, traj, 0.8)
        d_num, d_ana, _ = planarity_residuals(cc, frenet)
        big = np.abs(d_num) > 1e-10
        assert big.any()
        rel = np.abs(d_num - d_ana)[big] / np.abs(d_num)[big]
        assert rel.max() < 5e-12  # 1.35e-12 measured


class TestSimultaneousVanish:
    @pytest.mark.parametrize("delta", [math.pi / 6, math.pi / 3])
    def test_sphere_closed_form(self, great_circle, delta):
        sp, traj = great_circle
        frenet, cc = chords_of(sp, traj, delta)
        val = simultaneous_vanish_check(cc, frenet)
        assert val == pytest.approx(math.sin(delta) ** 2, abs=5e-15)  # 1.6e-15 measured

    def test_nonnegative(self, generic_spheroid):
        el, traj = generic_spheroid
        frenet, cc = chords_of(el, traj, 0.5)
        assert simultaneous_vanish_check(cc, frenet) >= 0.0
