import math

import numpy as np
import pytest

from gutkin.billiard_nd import Quadric, sphere_quadric
from gutkin.errors import DegenerateCurvature, OffSurface, StepTooLarge
from gutkin.geodesic_chords import (DRIFT_LIMIT, angle_condition_residuals,
                                    chord_correspondence, deriv_samples,
                                    frenet_apparatus, integrate_geodesic,
                                    planarity_residuals,
                                    simultaneous_vanish_check)

INTERIOR = slice(2, -2)
SPD = [[2.0, 0.3, -0.2], [0.3, 1.5, 0.4], [-0.2, 0.4, 1.1]]


def numpy_rk4(q, x0, v0, length, step, project=True):
    """The integrator with one numpy call per 3-vector, as it was first
    written; the reference for the float loop of integrate_geodesic."""
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
        if project:
            a = A_inv @ x
            x = x - 0.5 * (x @ a - 1.0) / (a @ a) * a
            a = A_inv @ x
            v = v - (v @ a) / (a @ a) * a
            v = v / np.linalg.norm(v)
        drift = max(abs(x @ A_inv @ x - 1.0), abs(np.linalg.norm(v) - 1.0))
        if drift > DRIFT_LIMIT:
            raise StepTooLarge(f"constraint drift {drift:g} at step {i}")
        xs.append(x)
        vs.append(v)
        accs.append(accel(x, v))
    return np.array(xs), np.array(vs), np.array(accs)


def start_on(q):
    """A point of q (L e_1 with A = L L^T) and a unit tangent there."""
    x0 = np.linalg.cholesky(q.A)[:, 0]
    a = q.A_inv @ x0
    v0 = np.array([0.3, 1.0, -0.2])
    v0 = v0 - (v0 @ a) / (a @ a) * a
    return x0, v0 / np.linalg.norm(v0)


@pytest.fixture(scope="module")
def great_circle():
    sp = sphere_quadric(1.0)
    return sp, integrate_geodesic(sp, [1.0, 0, 0], [0, 1.0, 0], 2 * math.pi, 1e-3)


@pytest.fixture(scope="module")
def sphere_chords(great_circle):
    sp, traj = great_circle
    frenet = frenet_apparatus(traj)
    cc = chord_correspondence(sp, traj, math.pi / 6)
    return sp, traj, frenet, cc


@pytest.fixture(scope="module")
def generic_spheroid():
    el = Quadric(np.diag([4.0, 1.0, 1.0]))
    v0 = np.array([1.0, 0.0, 1.0]) / math.sqrt(2)
    return el, integrate_geodesic(el, [0.0, 1.0, 0.0], v0, 6.0, 1e-3)


class TestDerivSamples:
    def test_fourth_order_interior(self):
        s = np.linspace(0, 1, 201)
        h = s[1] - s[0]
        err = np.abs(deriv_samples(np.sin(3 * s), h) - 3 * np.cos(3 * s))
        assert err[INTERIOR].max() < 1e-8

    def test_vector_samples(self):
        s = np.linspace(0, 1, 101)
        y = np.stack([np.sin(s), np.cos(s)], axis=1)
        d = deriv_samples(y, s[1] - s[0])
        assert np.abs(d[INTERIOR, 0] - np.cos(s[INTERIOR])).max() < 1e-8


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

    def test_fourth_order_convergence(self):
        sp = sphere_quadric(1.0)
        drifts = []
        for h in (2e-2, 1e-2):
            traj = integrate_geodesic(sp, [1.0, 0, 0], [0, 1.0, 0], 6.0, h,
                                      project=False)
            drifts.append(max(abs(x @ sp.A_inv @ x - 1) for x in traj.x))
        assert drifts[0] / drifts[1] >= 8.0

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

    @pytest.mark.parametrize("project", [True, False])
    @pytest.mark.parametrize("A", [np.eye(3), np.diag([4.0, 1.0, 1.0]), SPD],
                             ids=["sphere", "spheroid", "spd"])
    def test_matches_numpy_reference(self, A, project):
        q = Quadric(np.array(A))
        x0, v0 = start_on(q)
        traj = integrate_geodesic(q, x0, v0, 3.0, 2e-3, project=project)
        x, v, x_ddot = numpy_rk4(q, x0, v0, 3.0, 2e-3, project=project)
        assert np.abs(traj.x - x).max() < 1e-14
        assert np.abs(traj.v - v).max() < 1e-14
        assert np.abs(traj.x_ddot - x_ddot).max() < 1e-14

    @pytest.mark.parametrize("project, step", [(True, 1.0), (False, 0.1)])
    def test_coarse_step_refused(self, project, step):
        q = Quadric(np.array(SPD))
        x0, v0 = start_on(q)
        with pytest.raises(StepTooLarge) as ref:
            numpy_rk4(q, x0, v0, 6.0, step, project=project)
        with pytest.raises(StepTooLarge) as got:
            integrate_geodesic(q, x0, v0, 6.0, step, project=project)
        assert str(got.value) == str(ref.value)

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

    def test_other_dimension_rejected(self, great_circle):
        q = sphere_quadric(1.0, d=2)
        with pytest.raises(ValueError):
            integrate_geodesic(q, [1.0, 0], [0, 1.0], 1.0, 1e-3)
        with pytest.raises(ValueError):
            chord_correspondence(q, great_circle[1], 0.5)


class TestFrenet:
    def test_great_circle(self, great_circle):
        _, traj = great_circle
        frenet = frenet_apparatus(traj)
        assert np.abs(frenet.k - 1.0).max() < 1e-6
        assert np.abs(frenet.tau[INTERIOR]).max() < 1e-6

    def test_sphere_radius_2(self):
        sp = sphere_quadric(2.0)
        traj = integrate_geodesic(sp, [2.0, 0, 0], [0, 1.0, 0], 4.0, 1e-3)
        assert np.abs(frenet_apparatus(traj).k - 0.5).max() < 1e-6

    def test_frame_orthonormal(self, generic_spheroid):
        _, traj = generic_spheroid
        frenet = frenet_apparatus(traj)
        for a, b in [(frenet.v, frenet.n), (frenet.v, frenet.w), (frenet.n, frenet.w)]:
            assert np.abs(np.einsum("ij,ij->i", a, b)).max() < 1e-8

    def test_generic_torsion_nonzero(self, generic_spheroid):
        _, traj = generic_spheroid
        frenet = frenet_apparatus(traj)
        assert np.abs(frenet.tau[INTERIOR]).max() > 1e-3

    def test_frenet_identity(self, generic_spheroid):
        # ndot = -k v + tau w pointwise
        _, traj = generic_spheroid
        frenet = frenet_apparatus(traj)
        n_dot = deriv_samples(frenet.n, traj.step)
        recon = -frenet.k[:, None] * frenet.v + frenet.tau[:, None] * frenet.w
        assert np.linalg.norm(n_dot - recon, axis=1)[INTERIOR].max() < 1e-5

    def test_ndot_v_projection(self, great_circle):
        _, traj = great_circle
        frenet = frenet_apparatus(traj)
        n_dot = deriv_samples(frenet.n, traj.step)
        proj = np.einsum("ij,ij->i", n_dot, frenet.v)
        assert np.abs(proj + frenet.k)[INTERIOR].max() < 1e-5

    def test_degenerate_rejected(self):
        from gutkin.geodesic_chords import GeodesicTrajectory
        s = np.arange(6) * 0.1
        x = np.zeros((6, 3))
        x[:, 0] = s
        traj = GeodesicTrajectory(s=s, x=x, v=np.tile([1.0, 0, 0], (6, 1)),
                                  x_ddot=np.zeros((6, 3)), step=0.1)
        with pytest.raises(DegenerateCurvature):
            frenet_apparatus(traj)


class TestChordCorrespondence:
    def test_sphere_chord_length(self, sphere_chords):
        _, _, _, cc = sphere_chords
        assert np.abs(cc.l - 1.0).max() < 1e-8  # 2 R sin(pi/6)

    def test_diameters_at_right_angle(self, great_circle):
        sp, traj = great_circle
        cc = chord_correspondence(sp, traj, math.pi / 2)
        assert np.abs(cc.l - 2.0).max() < 1e-8

    def test_image_is_great_circle(self, sphere_chords):
        _, _, _, cc = sphere_chords
        centered = cc.Gamma - cc.Gamma.mean(axis=0)
        assert np.linalg.svd(centered, compute_uv=False)[-1] < 1e-7

    def test_image_angle(self, sphere_chords):
        _, _, _, cc = sphere_chords
        cosang = (np.einsum("ij,ij->i", cc.Gamma_dot, cc.z)
                  / np.linalg.norm(cc.Gamma_dot, axis=1))
        ang = np.arccos(np.clip(cosang, -1, 1))
        assert np.abs(ang - math.pi / 6)[INTERIOR].max() < 1e-6

    def test_ellipsoid_chord_length_by_bisection(self):
        # oracle: bisect <A^-1 p, p> - 1 along each ray, A^-1 = diag(1/4, 1, 1)
        q = Quadric(np.diag([4.0, 1.0, 1.0]))
        traj = integrate_geodesic(q, [2.0, 0, 0], [0, 1.0, 0], 6.0, 1e-2)
        delta = 0.7
        cc = chord_correspondence(q, traj, delta)
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
    def test_delta_out_of_range(self, great_circle, delta):
        sp, traj = great_circle
        with pytest.raises(ValueError, match="delta"):
            chord_correspondence(sp, traj, delta)


def chord_report(axes, scale):
    """Every column of a ``chords`` report on the quadric with semi-axes
    axes * scale, its geodesic run over a length and step scaled alike."""
    axes = np.asarray(axes, dtype=float) * scale
    q = Quadric(np.diag(axes ** 2))
    traj = integrate_geodesic(q, [axes[0], 0, 0], [0, 1.0, 0], 2.0 * scale, 1e-3 * scale)
    frenet = frenet_apparatus(traj)
    cc = chord_correspondence(q, traj, 0.5236)
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
        _, _, frenet, cc = sphere_chords
        r5, r6, r9 = angle_condition_residuals(cc, frenet)
        assert r5[INTERIOR].max() < 1e-6
        assert r6[INTERIOR].max() < 1e-6
        assert r9[INTERIOR].max() < 1e-6

    def test_ellipsoid_negative_control(self, generic_spheroid):
        el, traj = generic_spheroid
        frenet = frenet_apparatus(traj)
        delta = 0.9117382909684876
        cc = chord_correspondence(el, traj, delta)
        _, _, r9 = angle_condition_residuals(cc, frenet)
        assert r9[INTERIOR].max() > 1e-2


class TestPlanarity:
    def test_sphere_determinants_vanish(self, sphere_chords):
        _, _, frenet, cc = sphere_chords
        d_num, d_ana, a_coeff = planarity_residuals(cc, frenet)
        assert np.abs(d_num[INTERIOR]).max() < 1e-7
        assert np.abs(d_ana[INTERIOR]).max() < 1e-7
        assert np.abs(a_coeff - 2 * math.sin(math.pi / 6) ** 3)[INTERIOR].max() < 1e-6

    def test_principal_section_coplanar(self):
        el = Quadric(np.diag([4.0, 1.0, 1.0]))
        traj = integrate_geodesic(el, [2.0, 0, 0], [0, 1.0, 0], 6.0, 1e-3)
        frenet = frenet_apparatus(traj)
        cc = chord_correspondence(el, traj, 0.6)
        d_num, _, _ = planarity_residuals(cc, frenet)
        assert np.abs(d_num[INTERIOR]).max() < 1e-6

    def test_stacked_determinant_matches_per_sample(self, generic_spheroid):
        el, traj = generic_spheroid
        frenet = frenet_apparatus(traj)
        cc = chord_correspondence(el, traj, 0.8)
        d_num, _, _ = planarity_residuals(cc, frenet)
        want = [np.linalg.det(np.array([z, g1, g2]))
                for z, g1, g2 in zip(cc.z, cc.Gamma_dot, cc.Gamma_ddot)]
        assert np.array_equal(d_num, want)

    def test_determinant_expansion_matches(self, generic_spheroid):
        # on a genuinely non-planar curve both determinant routes must agree
        el, traj = generic_spheroid
        frenet = frenet_apparatus(traj)
        cc = chord_correspondence(el, traj, 0.8)
        d_num, d_ana, _ = planarity_residuals(cc, frenet)
        big = np.abs(d_num[INTERIOR]) > 1e-10
        assert big.any()
        rel = (np.abs(d_num[INTERIOR] - d_ana[INTERIOR])[big]
               / np.abs(d_num[INTERIOR])[big])
        assert rel.max() < 1e-5


class TestSimultaneousVanish:
    @pytest.mark.parametrize("delta", [math.pi / 6, math.pi / 3])
    def test_sphere_closed_form(self, great_circle, delta):
        sp, traj = great_circle
        frenet = frenet_apparatus(traj)
        cc = chord_correspondence(sp, traj, delta)
        val = simultaneous_vanish_check(cc, frenet)
        assert val == pytest.approx(math.sin(delta) ** 2, abs=1e-6)

    def test_nonnegative(self, generic_spheroid):
        el, traj = generic_spheroid
        frenet = frenet_apparatus(traj)
        cc = chord_correspondence(el, traj, 0.5)
        assert simultaneous_vanish_check(cc, frenet) >= 0.0
