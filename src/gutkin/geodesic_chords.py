"""Geodesics on a quadric in R^3 and the constant-angle chord curve.

The surface is a `billiard_nd.Quadric` with d = 3, the ellipsoid
F(x) = <A^-1 x, x> - 1 = 0 (F < 0 inside), with gradient 2 A^-1 x and
constant Hessian 2 A^-1.  A geodesic gamma(s) is integrated with RK4 plus
per-step projection.  Its Frenet data (k, tau, frames v, n, w = v x n) feed
the chord construction

    Gamma(s) = gamma(s) + l(s) z(s),   z = cos(delta) v + sin(delta) n,

with n the inner surface normal and l the closed-form far root of the ray,
and the identity checks on |Gamma'|^2, <Gamma', z>, the constant-angle
balance, and the planarity determinant det[z, Gamma', Gamma''] together
with its frame-coordinate expansion.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .billiard_nd import Quadric
from .errors import DegenerateCurvature, NoExit, OffSurface, StepTooLarge

DRIFT_LIMIT = 1e-6
VANISH_TRIM = 2


def _check_space(q: Quadric):
    if q.d != 3:
        raise ValueError(f"geodesics need a quadric in R^3, got d = {q.d}")


@dataclass(frozen=True)
class GeodesicTrajectory:
    """Arc-length samples (x, v, x_ddot) of a geodesic, uniform step."""

    s: np.ndarray
    x: np.ndarray
    v: np.ndarray
    x_ddot: np.ndarray
    step: float


@dataclass(frozen=True)
class FrenetData:
    k: np.ndarray
    tau: np.ndarray
    v: np.ndarray
    n: np.ndarray
    w: np.ndarray


@dataclass(frozen=True)
class ChordCorrespondence:
    Gamma: np.ndarray
    l: np.ndarray
    z: np.ndarray
    Gamma_dot: np.ndarray
    Gamma_ddot: np.ndarray
    l_dot: np.ndarray
    delta: float
    step: float


def integrate_geodesic(q: Quadric, x0, v0, length: float,
                       step: float) -> GeodesicTrajectory:
    """RK4 integration of x'' = -(<v, Hess F v>/|grad F|^2) grad F on q.

    The actual step is length/round(length/step) so the final sample lands
    exactly at s = length.  Each step ends with one Newton step of x along
    the gradient and v re-tangented and renormalized; a step whose
    |F(x)| then exceeds DRIFT_LIMIT, or is NaN, raises StepTooLarge.  The
    acceleration that ends a step reuses the gradient at the projected x.
    The steps run on Python floats, whose arithmetic on 3-vectors costs far
    less than a numpy call each.
    """
    _check_space(q)
    if not (0.0 < length < math.inf and 0.0 < step < math.inf):
        raise ValueError("length and step must be positive and finite")
    # the step count must fit a Python index, or the sample lists cannot be sized
    if not length / step < sys.maxsize:
        raise ValueError(f"length/step = {length:g}/{step:g} overflows the step count")
    A_inv = q.A_inv
    x = np.asarray(x0, dtype=float)
    v = np.asarray(v0, dtype=float)
    F0 = x @ A_inv @ x - 1.0
    # negated comparisons, so that a NaN x0 or a zero or NaN v0 fails
    if not abs(F0) <= 1e-10:
        raise OffSurface(f"F(x0) = {F0:g}")
    a = A_inv @ x
    if not abs(v @ a) < 1e-10 * np.linalg.norm(v) * np.linalg.norm(a):
        raise OffSurface("v0 is not a nonzero vector tangent to the surface")
    v = v / np.linalg.norm(v)

    (b11, b12, b13), (b21, b22, b23), (b31, b32, b33) = A_inv.tolist()

    def grad(x1, x2, x3):
        # A^-1 x, half the gradient of F
        return (b11 * x1 + b12 * x2 + b13 * x3, b21 * x1 + b22 * x2 + b23 * x3,
                b31 * x1 + b32 * x2 + b33 * x3)

    def accel(x1, x2, x3, v1, v2, v3, a=None):
        # x'' = -(<v, Hess F v>/|grad F|^2) grad F with grad F = 2 A^-1 x, Hess F = 2 A^-1;
        # a is A^-1 x where the caller has it, else formed here: a call to
        # grad would cost more than its products
        a1, a2, a3 = a or (b11 * x1 + b12 * x2 + b13 * x3, b21 * x1 + b22 * x2 + b23 * x3,
                           b31 * x1 + b32 * x2 + b33 * x3)
        c = -((v1 * b11 + v2 * b21 + v3 * b31) * v1 + (v1 * b12 + v2 * b22 + v3 * b32) * v2
              + (v1 * b13 + v2 * b23 + v3 * b33) * v3) / (a1 * a1 + a2 * a2 + a3 * a3)
        return c * a1, c * a2, c * a3

    n_steps = max(1, round(length / step))
    h = length / n_steps
    h2, h6 = 0.5 * h, h / 6.0
    x1, x2, x3 = x.tolist()
    v1, v2, v3 = v.tolist()
    acc = accel(x1, x2, x3, v1, v2, v3)
    # sized up front, so a step count too large to store fails at once
    xs, vs, accs = ([None] * (n_steps + 1) for _ in range(3))
    xs[0], vs[0], accs[0] = (x1, x2, x3), (v1, v2, v3), acc
    for i in range(n_steps):
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
        a = grad(x1, x2, x3)
        a1, a2, a3 = a
        c = (v1 * a1 + v2 * a2 + v3 * a3) / (a1 * a1 + a2 * a2 + a3 * a3)
        v1, v2, v3 = v1 - c * a1, v2 - c * a2, v3 - c * a3
        norm = math.sqrt(v1 * v1 + v2 * v2 + v3 * v3)
        v1, v2, v3 = v1 / norm, v2 / norm, v3 / norm
        # |v| is 1 to rounding after the division, so F(x) is the drift
        drift = abs(x1 * a1 + x2 * a2 + x3 * a3 - 1.0)
        # negated <=, so that a step whose stages overflowed to NaN fails
        if not drift <= DRIFT_LIMIT:
            raise StepTooLarge(f"constraint drift {drift:g} at step {i}")
        acc = accel(x1, x2, x3, v1, v2, v3, a)
        xs[i + 1], vs[i + 1], accs[i + 1] = (x1, x2, x3), (v1, v2, v3), acc
    return GeodesicTrajectory(s=np.arange(n_steps + 1) * h, x=np.array(xs),
                              v=np.array(vs), x_ddot=np.array(accs), step=h)


def deriv_samples(y: np.ndarray, h: float) -> np.ndarray:
    """4th-order first derivative on a uniform grid (one-sided at the edges)."""
    y = np.asarray(y, dtype=float)
    out = np.empty_like(y)
    out[2:-2] = (y[:-4] - 8 * y[1:-3] + 8 * y[3:-1] - y[4:]) / (12 * h)
    first = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / (12 * h)
    second = np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / (12 * h)
    out[0] = np.tensordot(first, y[:5], axes=(0, 0))
    out[1] = np.tensordot(second, y[:5], axes=(0, 0))
    out[-1] = -np.tensordot(first, y[::-1][:5], axes=(0, 0))
    out[-2] = -np.tensordot(second, y[::-1][:5], axes=(0, 0))
    return out


def frenet_apparatus(traj: GeodesicTrajectory) -> FrenetData:
    """Curvature, torsion and (v, n, w) frames from sampled accelerations."""
    if traj.s.size < 5:
        raise ValueError(f"need at least 5 samples, got {traj.s.size}")
    k = np.linalg.norm(traj.x_ddot, axis=1)
    # k |x| is scale-free: it is 1 on a sphere of any radius centred at 0
    if (k * np.linalg.norm(traj.x, axis=1)).min() < 1e-8:
        raise DegenerateCurvature(f"min curvature {k.min():g}")
    n = traj.x_ddot / k[:, None]
    w = np.cross(traj.v, n)
    n_dot = deriv_samples(n, traj.step)
    tau = np.einsum("ij,ij->i", n_dot, w)
    return FrenetData(k=k, tau=tau, v=traj.v, n=n, w=w)


def _rowdot(p: np.ndarray, r: np.ndarray) -> np.ndarray:
    # <p_i, r_i> per row, by matmul as for one sample's p_i @ r_i, so each
    # value is the one the per-sample formula gives
    return (p[:, None, :] @ r[:, :, None])[:, 0, 0]


def chord_correspondence(q: Quadric, traj: GeodesicTrajectory,
                         delta: float) -> ChordCorrespondence:
    """Far endpoint of the ray at angle delta below the tangent, per sample.

    On the quadric the ray x + t z meets F = 0 again at
    t = -2 <A^-1 x, z> / <A^-1 z, z>, taken for all samples at once.
    """
    _check_space(q)
    if not 0.0 < delta <= math.pi / 2:
        raise ValueError("delta must be in (0, pi/2]")
    a = traj.x @ q.A_inv  # half the gradient; A^-1 is symmetric
    inner = -a / np.sqrt(_rowdot(a, a))[:, None]
    z = math.cos(delta) * traj.v + math.sin(delta) * inner
    z /= np.sqrt(_rowdot(z, z))[:, None]
    l = -2.0 * _rowdot(a, z) / _rowdot(z @ q.A_inv, z)
    # l / |x| is scale-free, the quadric being centred at the origin
    bad = np.flatnonzero(l <= 1e-12 * np.sqrt(_rowdot(traj.x, traj.x)))
    if bad.size:
        raise NoExit(f"ray at sample {bad[0]} does not re-enter the surface")
    Gamma = traj.x + l[:, None] * z
    Gamma_dot = deriv_samples(Gamma, traj.step)
    Gamma_ddot = deriv_samples(Gamma_dot, traj.step)
    return ChordCorrespondence(Gamma=Gamma, l=l, z=z, Gamma_dot=Gamma_dot,
                               Gamma_ddot=Gamma_ddot, l_dot=deriv_samples(l, traj.step),
                               delta=delta, step=traj.step)


def angle_condition_residuals(cc: ChordCorrespondence, frenet: FrenetData):
    """Residual series of the speed, projection and angle-balance identities.

    R5: |Gamma'|^2 = (l'+cos d)^2 + (kl-sin d)^2 + tau^2 l^2 sin^2 d
    R6: <Gamma', z> = l' + cos d
    R9: l' + cos d = (cos d/sin d) sqrt((kl-sin d)^2 + tau^2 l^2 sin^2 d)
    """
    sd, cd = math.sin(cc.delta), math.cos(cc.delta)
    l_dot = cc.l_dot
    kl = frenet.k * cc.l
    aux = (kl - sd) ** 2 + frenet.tau ** 2 * cc.l ** 2 * sd ** 2
    speed2 = np.einsum("ij,ij->i", cc.Gamma_dot, cc.Gamma_dot)
    r5 = np.abs(speed2 - ((l_dot + cd) ** 2 + aux))
    r6 = np.abs(np.einsum("ij,ij->i", cc.Gamma_dot, cc.z) - (l_dot + cd))
    r9 = np.abs((l_dot + cd) - (cd / sd) * np.sqrt(aux))
    return r5, r6, r9


def planarity_residuals(cc: ChordCorrespondence, frenet: FrenetData):
    """det[z, Gamma', Gamma''] two ways, plus the torsion-rate coefficient.

    D_numeric uses the ambient R^3 coordinates; D_analytic expands the same
    rows in the (v, n, w) frame with the chain-rule coefficients of Gamma''
    (the frame is right-handed, so the two determinants agree exactly in
    exact arithmetic).  A_coeff = l sin(delta) (kl - sin(delta)) multiplies
    tau' in the expansion of D.
    """
    sd, cd = math.sin(cc.delta), math.cos(cc.delta)
    h = cc.step
    l, k, tau, l_dot = cc.l, frenet.k, frenet.tau, cc.l_dot
    l_ddot = deriv_samples(l_dot, h)
    k_dot = deriv_samples(k, h)
    tau_dot = deriv_samples(tau, h)

    D_num = np.linalg.det(np.stack([cc.z, cc.Gamma_dot, cc.Gamma_ddot], axis=1))

    c1 = 1.0 + l_dot * cd - k * l * sd
    c2 = l_dot * sd + k * l * cd
    c3 = tau * l * sd
    a1 = l_ddot * cd - k_dot * l * sd - 2.0 * k * l_dot * sd - k ** 2 * l * cd
    a2 = l_ddot * sd + k_dot * l * cd + 2.0 * k * l_dot * cd + k \
        - (k ** 2 + tau ** 2) * l * sd
    a3 = tau_dot * l * sd + 2.0 * tau * l_dot * sd + tau * k * l * cd
    D_ana = np.linalg.det(np.array([
        [np.full_like(l, cd), np.full_like(l, sd), np.zeros_like(l)],
        [c1, c2, c3],
        [a1, a2, a3],
    ]).transpose(2, 0, 1))
    A_coeff = l * sd * (k * l - sd)
    return D_num, D_ana, A_coeff


def simultaneous_vanish_check(cc: ChordCorrespondence, frenet: FrenetData) -> float:
    """min over s of (kl - sin(delta))^2 + tau^2, VANISH_TRIM samples off each
    end, where the one-sided stencils hold tau; positive for valid tables."""
    sl = slice(VANISH_TRIM, -VANISH_TRIM)
    vals = (frenet.k[sl] * cc.l[sl] - math.sin(cc.delta)) ** 2 + frenet.tau[sl] ** 2
    return float(vals.min())
