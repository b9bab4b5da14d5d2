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
with its frame-coordinate expansion, all from derivatives in closed form.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .billiard_nd import Quadric
from .errors import DegenerateCurvature, NoExit, OffSurface, StepTooLarge

DRIFT_LIMIT = 1e-6


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


@dataclass(frozen=True)
class FrenetData:
    k: np.ndarray
    tau: np.ndarray
    v: np.ndarray
    n: np.ndarray
    w: np.ndarray
    k_dot: np.ndarray
    tau_dot: np.ndarray
    x_dddot: np.ndarray
    n_dot: np.ndarray
    n_ddot: np.ndarray


@dataclass(frozen=True)
class ChordCorrespondence:
    Gamma: np.ndarray
    l: np.ndarray
    z: np.ndarray
    Gamma_dot: np.ndarray
    Gamma_ddot: np.ndarray
    l_dot: np.ndarray
    l_ddot: np.ndarray
    delta: float


def integrate_geodesic(q: Quadric, x0, v0, length: float,
                       step: float) -> GeodesicTrajectory:
    """RK4 integration of x'' = -(<v, Hess F v>/|grad F|^2) grad F on q.

    The actual step is length/round(length/step) so the final sample lands
    exactly at s = length.  Each step ends with one Newton step of x along
    the gradient and v re-tangented and renormalized; a step whose
    |F(x)| then exceeds DRIFT_LIMIT, or is NaN, raises StepTooLarge.  The
    acceleration that ends a step reuses the gradient at the projected x.
    The steps run on Python floats, whose arithmetic on 3-vectors costs far
    less than a numpy call each.  When the six off-diagonal entries of A^-1
    are 0, as for `sphere_quadric` and `Quadric(np.diag(axes**2))`, the
    steps are written out with no call per stage, and A^-1 x and
    <v, A^-1 v> take only the three diagonal products, in the order the
    nine-term sums add them; each dropped product is a zero that leaves the
    sum's bits alone, so x, v and x_ddot equal the nine-term loop's bit for
    bit, signs of zero included.  The one exception is a kept product of
    -0.0, which a dropped +0.0 would turn into +0.0: a start with a -0.0
    coordinate takes the nine terms, and a coordinate so near 0 that its
    product underflows is not guarded.  The samples go in one list sized
    before the first step, so a run too long to store raises MemoryError at
    once.
    """
    _check_space(q)
    if not (0.0 < length < math.inf and 0.0 < step < math.inf):
        raise ValueError("length and step must be positive and finite")
    # the step count must fit a Python index, or the sample list cannot be sized
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

    n_steps = max(1, round(length / step))
    h = length / n_steps
    # (x, v, x'') of every sample, nine floats each; repeating the nine-float
    # list n + 1 times raises MemoryError for a size past an index, where
    # [0.0] * (9 * (n + 1)) would raise OverflowError
    samples = [0.0] * 9 * (n_steps + 1)
    samples[:6] = *x.tolist(), *v.tolist()
    rows = A_inv.tolist()
    (b11, b12, b13), (b21, b22, b23), (b31, b32, b33) = rows
    # checking the start suffices: a stage coordinate is -0.0 only where the
    # start's is, x + y being -0.0 only when x and y are
    if b12 == b13 == b21 == b23 == b31 == b32 == 0.0 and not np.signbit(x[x == 0.0]).any():
        _diagonal_steps(samples, h, b11, b22, b33)
    else:
        _nine_product_steps(samples, h, rows)
    # one conversion; the copy makes each of x, v and x_ddot contiguous
    x, v, x_ddot = (np.fromiter(samples, float, len(samples))
                    .reshape(-1, 3, 3).transpose(1, 0, 2).copy())
    return GeodesicTrajectory(s=np.arange(n_steps + 1) * h, x=x, v=v, x_ddot=x_ddot)


def _diagonal_steps(samples: list, h: float, b11: float, b22: float, b33: float):
    """The RK4 steps of integrate_geodesic on a diagonal A^-1 = diag(b11, b22,
    b33), written out: each stage forms A^-1 y, <k, A^-1 k> and c from the
    three diagonal products, in the order of the nine-product sums.  Reads
    the start from samples[:6] and fills in the rest of samples."""
    sqrt = math.sqrt
    h2, h6 = 0.5 * h, h / 6.0
    x1, x2, x3, v1, v2, v3 = samples[:6]
    a1, a2, a3 = b11 * x1, b22 * x2, b33 * x3
    c = -(v1 * b11 * v1 + v2 * b22 * v2 + v3 * b33 * v3) / (a1 * a1 + a2 * a2 + a3 * a3)
    k1v1, k1v2, k1v3 = c * a1, c * a2, c * a3
    samples[6:9] = k1v1, k1v2, k1v3
    for j in range(9, len(samples), 9):
        k2x1, k2x2, k2x3 = v1 + h2 * k1v1, v2 + h2 * k1v2, v3 + h2 * k1v3
        a1, a2, a3 = b11 * (x1 + h2 * v1), b22 * (x2 + h2 * v2), b33 * (x3 + h2 * v3)
        c = (-(k2x1 * b11 * k2x1 + k2x2 * b22 * k2x2 + k2x3 * b33 * k2x3)
             / (a1 * a1 + a2 * a2 + a3 * a3))
        k2v1, k2v2, k2v3 = c * a1, c * a2, c * a3
        k3x1, k3x2, k3x3 = v1 + h2 * k2v1, v2 + h2 * k2v2, v3 + h2 * k2v3
        a1, a2, a3 = b11 * (x1 + h2 * k2x1), b22 * (x2 + h2 * k2x2), b33 * (x3 + h2 * k2x3)
        c = (-(k3x1 * b11 * k3x1 + k3x2 * b22 * k3x2 + k3x3 * b33 * k3x3)
             / (a1 * a1 + a2 * a2 + a3 * a3))
        k3v1, k3v2, k3v3 = c * a1, c * a2, c * a3
        k4x1, k4x2, k4x3 = v1 + h * k3v1, v2 + h * k3v2, v3 + h * k3v3
        a1, a2, a3 = b11 * (x1 + h * k3x1), b22 * (x2 + h * k3x2), b33 * (x3 + h * k3x3)
        c = (-(k4x1 * b11 * k4x1 + k4x2 * b22 * k4x2 + k4x3 * b33 * k4x3)
             / (a1 * a1 + a2 * a2 + a3 * a3))
        x1, x2, x3 = (x1 + h6 * (v1 + 2.0 * k2x1 + 2.0 * k3x1 + k4x1),
                      x2 + h6 * (v2 + 2.0 * k2x2 + 2.0 * k3x2 + k4x2),
                      x3 + h6 * (v3 + 2.0 * k2x3 + 2.0 * k3x3 + k4x3))
        v1, v2, v3 = (v1 + h6 * (k1v1 + 2.0 * k2v1 + 2.0 * k3v1 + c * a1),
                      v2 + h6 * (k1v2 + 2.0 * k2v2 + 2.0 * k3v2 + c * a2),
                      v3 + h6 * (k1v3 + 2.0 * k2v3 + 2.0 * k3v3 + c * a3))
        a1, a2, a3 = b11 * x1, b22 * x2, b33 * x3
        c = 0.5 * (x1 * a1 + x2 * a2 + x3 * a3 - 1.0) / (a1 * a1 + a2 * a2 + a3 * a3)
        x1, x2, x3 = x1 - c * a1, x2 - c * a2, x3 - c * a3
        a1, a2, a3 = b11 * x1, b22 * x2, b33 * x3
        aa = a1 * a1 + a2 * a2 + a3 * a3
        c = (v1 * a1 + v2 * a2 + v3 * a3) / aa
        v1, v2, v3 = v1 - c * a1, v2 - c * a2, v3 - c * a3
        norm = sqrt(v1 * v1 + v2 * v2 + v3 * v3)
        v1, v2, v3 = v1 / norm, v2 / norm, v3 / norm
        # |v| is 1 to rounding after the division, so F(x) is the drift
        drift = abs(x1 * a1 + x2 * a2 + x3 * a3 - 1.0)
        # negated <=, so that a step whose stages overflowed to NaN fails
        if not drift <= DRIFT_LIMIT:
            raise StepTooLarge(f"constraint drift {drift:g} at step {j // 9 - 1}")
        # the acceleration at the projected x, whose A^-1 x is a
        c = -(v1 * b11 * v1 + v2 * b22 * v2 + v3 * b33 * v3) / aa
        k1v1, k1v2, k1v3 = c * a1, c * a2, c * a3
        samples[j:j + 9] = x1, x2, x3, v1, v2, v3, k1v1, k1v2, k1v3


def _nine_product_steps(samples: list, h: float, A_inv: list):
    """_diagonal_steps for any A^-1, each product of A^-1 taken."""
    (b11, b12, b13), (b21, b22, b23), (b31, b32, b33) = A_inv

    def grad(x1, x2, x3):
        # A^-1 x, half the gradient of F
        return (b11 * x1 + b12 * x2 + b13 * x3, b21 * x1 + b22 * x2 + b23 * x3,
                b31 * x1 + b32 * x2 + b33 * x3)

    def accel(x1, x2, x3, v1, v2, v3, a=None):
        # x'' = -(<v, Hess F v>/|grad F|^2) grad F with grad F = 2 A^-1 x,
        # Hess F = 2 A^-1; a is A^-1 x where the caller has it, else formed
        # here: a call to grad would cost more than its products
        a1, a2, a3 = a or (b11 * x1 + b12 * x2 + b13 * x3, b21 * x1 + b22 * x2 + b23 * x3,
                           b31 * x1 + b32 * x2 + b33 * x3)
        c = -((v1 * b11 + v2 * b21 + v3 * b31) * v1 + (v1 * b12 + v2 * b22 + v3 * b32) * v2
              + (v1 * b13 + v2 * b23 + v3 * b33) * v3) / (a1 * a1 + a2 * a2 + a3 * a3)
        return c * a1, c * a2, c * a3

    h2, h6 = 0.5 * h, h / 6.0
    x1, x2, x3, v1, v2, v3 = samples[:6]
    k1v1, k1v2, k1v3 = accel(x1, x2, x3, v1, v2, v3)
    samples[6:9] = k1v1, k1v2, k1v3
    for j in range(9, len(samples), 9):
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
        drift = abs(x1 * a1 + x2 * a2 + x3 * a3 - 1.0)
        if not drift <= DRIFT_LIMIT:
            raise StepTooLarge(f"constraint drift {drift:g} at step {j // 9 - 1}")
        k1v1, k1v2, k1v3 = accel(x1, x2, x3, v1, v2, v3, a)
        samples[j:j + 9] = x1, x2, x3, v1, v2, v3, k1v1, k1v2, k1v3


def _dot(p: np.ndarray, r: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", p, r)


def frenet_apparatus(q: Quadric, traj: GeodesicTrajectory) -> FrenetData:
    """Curvature, torsion, (v, n, w) frames, their rates and the jet
    (x''', n', n''), in closed form at each sample.

    A geodesic's principal normal is the inner normal -a/r, a = B x, B = A^-1,
    r = |a|, and x'' = c a, c = -<v, Bv>/r^2.  With g = <a, Bv>/r^2:
        n'   = (g a - Bv)/r
        n''  = (g' a + 2g Bv - g^2 a - Bx'')/r,  g' = (<Bv, Bv> + <a, Bx''>)/r^2 - 2g^2
        x''' = c' a + c Bv,                      c' = -2<x'', Bv>/r^2 - 2cg
    and tau = <n', w>, k' = <x''', n>, tau' = <n'', w>.
    """
    _check_space(q)
    k = np.linalg.norm(traj.x_ddot, axis=1)
    # k |x| is scale-free: it is 1 on a sphere of any radius centred at 0;
    # the initial value lets a run of no samples through
    if (k * np.linalg.norm(traj.x, axis=1)).min(initial=math.inf) < 1e-8:
        raise DegenerateCurvature(f"min curvature {k.min():g}")
    n = traj.x_ddot / k[:, None]
    w = np.cross(traj.v, n)
    a, Bv, Bx2 = (y @ q.A_inv for y in (traj.x, traj.v, traj.x_ddot))
    r2 = _dot(a, a)
    r = np.sqrt(r2)[:, None]
    g, c = _dot(a, Bv) / r2, -_dot(traj.v, Bv) / r2
    g_dot = (_dot(Bv, Bv) + _dot(a, Bx2)) / r2 - 2.0 * g * g
    c_dot = -2.0 * _dot(traj.x_ddot, Bv) / r2 - 2.0 * c * g
    n_dot = (g[:, None] * a - Bv) / r
    n_ddot = ((g_dot - g * g)[:, None] * a + 2.0 * g[:, None] * Bv - Bx2) / r
    x_dddot = c_dot[:, None] * a + c[:, None] * Bv
    return FrenetData(k=k, tau=_dot(n_dot, w), v=traj.v, n=n, w=w,
                      k_dot=_dot(x_dddot, n), tau_dot=_dot(n_ddot, w),
                      x_dddot=x_dddot, n_dot=n_dot, n_ddot=n_ddot)


def _rowdot(p: np.ndarray, r: np.ndarray) -> np.ndarray:
    # <p_i, r_i> per row, by matmul as for one sample's p_i @ r_i, so each
    # value is the one the per-sample formula gives
    return (p[:, None, :] @ r[:, :, None])[:, 0, 0]


def chord_correspondence(q: Quadric, traj: GeodesicTrajectory, frenet: FrenetData,
                         delta: float) -> ChordCorrespondence:
    """Far endpoint of the ray at angle delta below the tangent, per sample.

    On the quadric the ray x + t z meets F = 0 again at t = l = -2 P / Q,
    P = <A^-1 x, z>, Q = <A^-1 z, z>, for all samples at once.  l' and l''
    differentiate l Q = -2 P along frenet's jet, in ambient coordinates.
    """
    _check_space(q)
    if not 0.0 < delta <= math.pi / 2:
        raise ValueError("delta must be in (0, pi/2]")
    cd, sd = math.cos(delta), math.sin(delta)
    a = traj.x @ q.A_inv  # half the gradient; A^-1 is symmetric
    inner = -a / np.sqrt(_rowdot(a, a))[:, None]
    z = cd * traj.v + sd * inner
    z /= np.sqrt(_rowdot(z, z))[:, None]
    Bz = z @ q.A_inv
    Q = _rowdot(Bz, z)
    l = -2.0 * _rowdot(a, z) / Q
    # l / |x| is scale-free, the quadric being centred at the origin
    bad = np.flatnonzero(l <= 1e-12 * np.sqrt(_rowdot(traj.x, traj.x)))
    if bad.size:
        raise NoExit(f"ray at sample {bad[0]} does not re-enter the surface")
    # |z| = 1, so rescaling z adds no rate
    z_dot = cd * traj.x_ddot + sd * frenet.n_dot
    z_ddot = cd * frenet.x_dddot + sd * frenet.n_ddot
    Bz_dot = z_dot @ q.A_inv
    Q_dot = 2.0 * _dot(Bz, z_dot)
    l_dot = -(2.0 * (_dot(traj.v, Bz) + _dot(a, z_dot)) + l * Q_dot) / Q
    P_ddot = _dot(traj.x_ddot, Bz) + 2.0 * _dot(traj.v, Bz_dot) + _dot(a, z_ddot)
    Q_ddot = 2.0 * (_dot(Bz_dot, z_dot) + _dot(Bz, z_ddot))
    l_ddot = -(2.0 * P_ddot + 2.0 * l_dot * Q_dot + l * Q_ddot) / Q
    lc, lc_dot = l[:, None], l_dot[:, None]
    return ChordCorrespondence(
        Gamma=traj.x + lc * z, l=l, z=z, Gamma_dot=traj.v + lc_dot * z + lc * z_dot,
        Gamma_ddot=traj.x_ddot + l_ddot[:, None] * z + 2.0 * lc_dot * z_dot + lc * z_ddot,
        l_dot=l_dot, l_ddot=l_ddot, delta=delta)


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
    speed2 = _dot(cc.Gamma_dot, cc.Gamma_dot)
    r5 = np.abs(speed2 - ((l_dot + cd) ** 2 + aux))
    r6 = np.abs(_dot(cc.Gamma_dot, cc.z) - (l_dot + cd))
    r9 = np.abs((l_dot + cd) - (cd / sd) * np.sqrt(aux))
    return r5, r6, r9


def planarity_residuals(cc: ChordCorrespondence, frenet: FrenetData):
    """det[z, Gamma', Gamma''] two ways, plus the torsion-rate coefficient.

    D_numeric takes Gamma' and Gamma'' in ambient R^3 coordinates, built from
    x''' and n''; D_analytic expands the same rows in the (v, n, w) frame
    with k', tau' and l'', so their gap tests the Frenet-Serret relations
    (in exact arithmetic it is 0).  A_coeff = l sin(delta) (kl - sin(delta))
    multiplies tau' in the expansion of D.
    """
    sd, cd = math.sin(cc.delta), math.cos(cc.delta)
    l, k, tau, l_dot, l_ddot = cc.l, frenet.k, frenet.tau, cc.l_dot, cc.l_ddot
    k_dot, tau_dot = frenet.k_dot, frenet.tau_dot
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
    """min over s of (kl - sin(delta))^2 + tau^2; positive for valid tables."""
    return float(((frenet.k * cc.l - math.sin(cc.delta)) ** 2 + frenet.tau ** 2).min())
