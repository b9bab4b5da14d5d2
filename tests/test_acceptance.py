"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line (run with -s to see them on
success); tolerances are fixed here, not tuned elsewhere.
"""

import math

import numpy as np
import pytest

from conftest import trig_eval
from gutkin import billiard2d as b2
from gutkin import billiard_nd as bnd
from gutkin import geodesic_chords as gc
from gutkin import support_geometry as sg

TWO_PI = 2 * math.pi


def report(num: int, name: str, ok: bool):
    print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num:02d} {name} failed"


@pytest.fixture(scope="module")
def gutkin5():
    return sg.build_gutkin_table(5, 0, 1.0, 0.05)


@pytest.fixture(scope="module")
def test_tables(gutkin5):
    return [
        sg.circle(1.0),
        gutkin5[0],
        sg.build_gutkin_table(4, 0, 1.0, 0.05)[0],
        sg.build_gutkin_table(7, 1, 1.0, 0.02)[0],
        sg.SupportCurve(sg.TrigPolynomial(
            1.0, [0.0, 0.01, -0.004, 0.006, 0.0, -0.003, 0.002, 0.001])),
    ]


def test_criterion_1_gutkin_roots():
    ok = True
    ok &= abs(sg.solve_gutkin_angles(4)[0] - math.atan(math.sqrt(5))) < 1e-10
    ok &= abs(sg.solve_gutkin_angles(5)[0] - math.atan(math.sqrt(5 / 3))) < 1e-10
    t2 = [(14 - math.sqrt(112)) / 6, (14 + math.sqrt(112)) / 6]
    expected7 = sorted(math.atan(math.sqrt(v)) for v in t2)
    got7 = sg.solve_gutkin_angles(7)
    ok &= len(got7) == 2
    ok &= all(abs(a - b) < 1e-10 for a, b in zip(got7, expected7))
    report(1, "gutkin-roots", ok)


def test_criterion_2_gutkin_invariance(gutkin5):
    curve, meta = gutkin5
    good = b2.verify_constant_angle(curve, meta["delta"], 360)
    bad = b2.verify_constant_angle(curve, meta["delta"] + 0.1, 360)
    report(2, "gutkin-invariance", good < 1e-8 and bad > 1e-3)


def test_criterion_3_generating_equivalence(test_tables):
    # every bounce (p1, phi1) -> (p2, phi2) of the geometric map obeys the
    # generating relation p1 = -S1(phi1, phi2), p2 = S2(phi1, phi2), with S1
    # and S2 central differences of a long-double S, independent of the
    # chord solve
    rng = np.random.default_rng(2024)
    ok = True
    step = np.longdouble(1e-6)
    for curve in test_tables:
        const = np.longdouble(curve.h.constant)
        a_k = curve.h.cos_coeffs.astype(np.longdouble)
        b_k = curve.h.sin_coeffs.astype(np.longdouble)
        k = np.arange(1, a_k.size + 1, dtype=np.longdouble)

        def S(p1, p2):
            mid = (np.longdouble(p1) + np.longdouble(p2)) / 2
            alpha = (np.longdouble(p2) - np.longdouble(p1)) / 2
            h = const + np.sum(a_k * np.cos(k * mid)) + np.sum(b_k * np.sin(k * mid))
            return 2 * h * np.sin(alpha)

        h_min = float(np.min(trig_eval(curve.h, np.linspace(0, TWO_PI, 512, endpoint=False))))
        count = 0
        while count < 200:
            line = b2.OrientedLine2D(rng.uniform(-0.85, 0.85) * h_min,
                                     rng.uniform(0, TWO_PI))
            try:
                nxt, _ = b2.reflect_geometric(curve, line)
            except b2.TangentLine:
                continue
            phi1 = np.longdouble(line.phi)
            phi2 = phi1 + (nxt.phi - line.phi) % TWO_PI
            s1 = (S(phi1 + step, phi2) - S(phi1 - step, phi2)) / (2 * step)
            s2 = (S(phi1, phi2 + step) - S(phi1, phi2 - step)) / (2 * step)
            ok &= abs(line.p + float(s1)) < 1e-10
            ok &= abs(nxt.p - float(s2)) < 1e-10
            count += 1
        # derivative consistency and twist on random chords
        eps = 1e-5
        for _ in range(20):
            phi1 = rng.uniform(0, TWO_PI)
            phi2 = phi1 + rng.uniform(0.2, TWO_PI - 0.2)
            _, s11, s12, s22 = b2.generating_function(curve, phi1, phi2)
            ok &= s12 > 0
            fd11 = (S(phi1 + eps, phi2) - 2 * S(phi1, phi2)
                    + S(phi1 - eps, phi2)) / eps ** 2
            fd22 = (S(phi1, phi2 + eps) - 2 * S(phi1, phi2)
                    + S(phi1, phi2 - eps)) / eps ** 2
            fd12 = (S(phi1 + eps, phi2 + eps) - S(phi1 + eps, phi2 - eps)
                    - S(phi1 - eps, phi2 + eps)
                    + S(phi1 - eps, phi2 - eps)) / (4 * eps ** 2)
            ok &= abs(s11 - float(fd11)) < 1e-6
            ok &= abs(s12 - float(fd12)) < 1e-6
            ok &= abs(s22 - float(fd22)) < 1e-6
    report(3, "generating-equivalence", bool(ok))


def test_criterion_4_rigidity_integral(test_tables):
    strip = b2.Strip(0.5, 1.3)
    ok = True
    for curve in test_tables:
        quad = b2.rigidity_integral(curve, strip)
        closed = b2.rigidity_integral_closed(curve, strip)
        if closed == 0.0:
            ok &= abs(quad) < 1e-10  # circle
        else:
            ok &= abs(quad - closed) / abs(closed) < 1e-6
            ok &= quad > 0
    report(4, "rigidity-integral", bool(ok))


def test_criterion_5_constant_width(gutkin5):
    ok = True
    for n in (5, 7, 9):
        curve, _ = sg.build_gutkin_table(n, 0, 1.0, 0.03)
        is_const, _ = sg.check_constant_width(curve)
        ok &= is_const
    a_even = 0.01
    curve = sg.SupportCurve(sg.TrigPolynomial(1.0, [0, 0, 0, a_even]))
    grid = np.linspace(0, TWO_PI, 4096, endpoint=False)
    width = trig_eval(curve.h, grid) + trig_eval(curve.h, grid + math.pi)
    deviation = float(np.max(np.abs(width - width.mean())))
    is_const, _ = sg.check_constant_width(curve)
    ok &= (not is_const) and deviation >= 2 * a_even - 1e-9
    report(5, "constant-width", bool(ok))


def test_criterion_6_nd_gradient_contract():
    rng = np.random.default_rng(7)
    ok = True
    for q in (bnd.sphere_quadric(1.0), bnd.sphere_quadric(2.5),
              bnd.Quadric(np.diag([4.0, 1.0, 1.0]))):
        done = 0
        while done < 100:
            n1 = rng.normal(size=3)
            n1 /= np.linalg.norm(n1)
            n2 = rng.normal(size=3)
            n2 /= np.linalg.norm(n2)
            if np.linalg.norm(n1 - n2) < 0.1:
                continue
            r1, r2 = bnd.gradient_contract_residual(q, n1, n2)
            ok &= r1 < 1e-7 and r2 < 1e-7
            done += 1
    report(6, "nd-gradient-contract", bool(ok))


def test_criterion_7_sigma_delta_invariance():
    sphere = bnd.sphere_quadric(1.0)
    n, x = bnd.launch_line(sphere, np.array([0.2, -0.3, 0.93]), 0.6)
    sphere_res = np.abs(bnd.orbit_nd(sphere, n, x, 100)[3] - 0.6).max()
    triax = bnd.Quadric(np.diag([4.0, 1.0, 1.0]))
    n, x = bnd.launch_line(triax, np.array([0.3, 0.5, 0.8]), 0.5)
    triax_res = np.abs(bnd.orbit_nd(triax, n, x, 50)[3] - 0.5).max()
    report(7, "sigma-delta-invariance", sphere_res < 1e-10 and triax_res > 1e-2)


@pytest.fixture(scope="module")
def sphere_run():
    sp = bnd.sphere_quadric(1.0)
    traj = gc.integrate_geodesic(sp, [1.0, 0, 0], [0, 1.0, 0], TWO_PI, 1e-3)
    frenet = gc.frenet_apparatus(sp, traj)
    cc = gc.chord_correspondence(sp, traj, frenet, math.pi / 6)
    return sp, traj, frenet, cc


def test_criterion_8_sphere_chords(sphere_run):
    _, _, frenet, cc = sphere_run
    delta = math.pi / 6
    ok = np.abs(cc.l - 1.0).max() < 1e-8
    # every sample, ends included; the residuals measured 8.9e-16, 5.6e-16
    # and 1.2e-15, D_numeric 0, the vanish check 6.7e-16 and A_coeff 5.0e-16
    r5, r6, r9 = gc.angle_condition_residuals(cc, frenet)
    ok &= r5.max() < 3e-15
    ok &= r6.max() < 2e-15
    ok &= r9.max() < 4e-15
    d_num, _, a_coeff = gc.planarity_residuals(cc, frenet)
    ok &= np.abs(d_num).max() < 1e-15
    ok &= abs(gc.simultaneous_vanish_check(cc, frenet)
              - math.sin(delta) ** 2) < 5e-15
    ok &= np.abs(a_coeff - 2 * math.sin(delta) ** 3).max() < 2e-15
    report(8, "sphere-chord-correspondence", bool(ok))


def test_criterion_9_determinant_expansion(sphere_run):
    def agree(d_num, d_ana):
        # every sample, ends included; both runs lie in a plane, where both
        # determinants measured 0
        big = np.abs(d_num) > 1e-10
        fine = True
        if big.any():
            fine &= bool((np.abs(d_num - d_ana)[big] / np.abs(d_num)[big]).max() < 1e-11)
        fine &= bool(np.abs(d_num - d_ana)[~big].max() < 1e-15)
        return fine

    _, _, frenet, cc = sphere_run
    d_num, d_ana, _ = gc.planarity_residuals(cc, frenet)
    ok = agree(d_num, d_ana)

    el = bnd.Quadric(np.diag([4.0, 1.0, 1.0]))
    traj = gc.integrate_geodesic(el, [2.0, 0, 0], [0, 1.0, 0], 6.0, 1e-3)
    frenet2 = gc.frenet_apparatus(el, traj)
    cc2 = gc.chord_correspondence(el, traj, frenet2, 0.7)
    d_num2, d_ana2, _ = gc.planarity_residuals(cc2, frenet2)
    ok &= agree(d_num2, d_ana2)
    report(9, "determinant-expansion", bool(ok))


def test_criterion_10_geodesic_integrator():
    sp = bnd.sphere_quadric(1.0)
    traj = gc.integrate_geodesic(sp, [1.0, 0, 0], [0, 1.0, 0],
                                 20.0, 1e-3)
    drift = max(max(abs(x @ sp.A_inv @ x - 1) for x in traj.x),
                float(np.abs(np.linalg.norm(traj.v, axis=1) - 1).max()))
    ok = drift < 1e-9
    # fourth order: the phase error against the great circle (cos s, sin s, 0)
    # falls at least 8x for each halving of h
    for length in (6.0, 20.0):
        errors = []
        for h in (2e-2, 1e-2, 5e-3):
            t = gc.integrate_geodesic(sp, [1.0, 0, 0], [0, 1.0, 0], length, h)
            phase = np.unwrap(np.arctan2(t.x[:, 1], t.x[:, 0]))
            errors.append(np.abs(phase - t.s).max())
        ok &= errors[0] / errors[1] >= 8.0 and errors[1] / errors[2] >= 8.0
    closed = gc.integrate_geodesic(sp, [1.0, 0, 0], [0, 1.0, 0], TWO_PI, 1e-3)
    ok &= np.linalg.norm(closed.x[-1] - closed.x[0]) < 1e-7
    report(10, "geodesic-integrator", bool(ok))
