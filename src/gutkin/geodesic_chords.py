"""Geodesics on a quadric in R^3 and the constant-angle chord curve.

The surface is a `billiard_nd.Quadric` with d = 3, the ellipsoid
F(x) = <A^-1 x, x> - 1 = 0 (F < 0 inside), with gradient 2 A^-1 x and
constant Hessian 2 A^-1.  A geodesic gamma(s) is integrated by Taylor
series steps whose length the decay of their coefficients sets, with each
step end projected on the surface, and sampled from the step polynomials
(dense output), so the sample spacing does not set the error.  Its Frenet
data (k, tau, frames v, n, w = v x n) feed the chord construction

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
from math import fsum
from operator import mul

import numpy as np

from .billiard_nd import Quadric
from .errors import DegenerateCurvature, NoExit, OffSurface, StepTooLarge

DRIFT_LIMIT = 1e-6
# the order of each series step, and its truncation tolerance relative to |x0|
ORDER = 24
TOLERANCE = 1e-17
# the most series steps a run may take
MAX_STEPS = 100_000


def _check_space(q: Quadric):
    if q.d != 3:
        raise ValueError(f"geodesics need a quadric in R^3, got d = {q.d}")


@dataclass(frozen=True)
class GeodesicTrajectory:
    """Arc-length samples (x, v, x_ddot) of a geodesic, uniform step, with the
    number of series steps that made them and the largest |F(x)| at a step
    end before its projection."""

    s: np.ndarray
    x: np.ndarray
    v: np.ndarray
    x_ddot: np.ndarray
    series_steps: int = 0
    max_drift: float = 0.0


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
    """Taylor-series integration of x'' = c A^-1 x, c = -<v, A^-1 v>/|A^-1 x|^2,
    on q, sampled from the step polynomials.

    Each series step expands x about its start to order ORDER = 24, by the
    recurrences of _series.  Its length is the least of (tol/|X_j|)^(1/j)
    over its last two coefficients, j = 23 and 24, with tol = TOLERANCE |x0|
    = 1e-17 |x0|, so that the first term left out is below rounding; a zero
    coefficient sets no bound, and a length that is not positive raises
    StepTooLarge.  Each step end is
    projected: one Newton step of x along the gradient, and v made tangent
    and unit again; an end whose |F(x)| then exceeds DRIFT_LIMIT, or is NaN,
    raises StepTooLarge.  The largest |F(x)| at a step end before its
    projection, the last end included, is the trajectory's max_drift.

    The samples lie at s = i length/round(length/step), the last at length.
    Each is its step's polynomial and that polynomial's derivative, taken for
    all of a step's samples by one power matrix; then its v is made tangent
    and unit, and its x'' is the equation at its (x, v), for all samples in
    one pass.  So step sets only the spacing of the samples, and the number
    of series steps grows with length over the radii of curvature the
    geodesic meets.  A run that would take more than MAX_STEPS = 100000 of
    them at the mean length of its steps so far raises StepTooLarge as soon
    as that is seen: at the first step for a run far too long, and in any
    case before a step past the MAX_STEPS-th.

    The run is taken in units of the power of two 2^e with max |x0_i| in
    [2^(e-1), 2^e), and scaled back exactly, so a body and a start scaled by
    a power of two give every sample scaled alike, bit for bit.  x and v are
    stored in arrays sized before the first step, so a run too long to store
    raises MemoryError at once.
    """
    _check_space(q)
    if not (0.0 < length < math.inf and 0.0 < step < math.inf):
        raise ValueError("length and step must be positive and finite")
    # the step count must fit a Python index, or the samples cannot be sized
    if not length / step < sys.maxsize:
        raise ValueError(f"length/step = {length:g}/{step:g} overflows the step count")
    x = np.asarray(x0, dtype=float)
    v = np.asarray(v0, dtype=float)
    F0 = x @ q.A_inv @ x - 1.0
    # negated comparisons, so that a NaN x0 or a zero or NaN v0 fails
    if not abs(F0) <= 1e-10:
        raise OffSurface(f"F(x0) = {F0:g}")
    a = q.A_inv @ x
    if not abs(v @ a) < 1e-10 * np.linalg.norm(v) * np.linalg.norm(a):
        raise OffSurface("v0 is not a nonzero vector tangent to the surface")
    n = max(1, round(length / step)) + 1
    # an array of more bytes than an index can count cannot be made at all,
    # which is a shortage of memory too
    if n > sys.maxsize // 24:
        raise MemoryError(f"{n} samples cannot be stored")
    xs, vs = np.empty((n, 3)), np.empty((n, 3))
    e = math.frexp(float(np.abs(x).max()))[1]
    unit = math.ldexp(1.0, e)
    B = np.ldexp(q.A_inv, 2 * e)
    b = B.ravel().tolist()
    s = np.arange(n) * (length / (n - 1))
    t, end = s / unit, length / unit
    y, w = x / unit, v / np.linalg.norm(v)
    tol = TOLERANCE * math.hypot(*y.tolist())
    orders = np.arange(1.0, ORDER + 1.0)[:, None]
    start, lo, steps, worst = 0.0, 0, 0, 0.0
    while True:
        X = _series(y.tolist(), w.tolist(), b)
        h = math.inf
        for j in (ORDER - 1, ORDER):
            size = math.hypot(*X[3 * j:3 * j + 3])
            if size:
                h = min(h, (tol / size) ** (1.0 / j))
        steps += 1
        # the steps the run would take at the mean length of its steps so far,
        # and at least those taken
        need = steps * max(1.0, end / (start + h)) if h > 0.0 else math.inf
        if not need <= MAX_STEPS:
            raise StepTooLarge(f"length {length:g} would take {need:.3g} series steps of the "
                               f"mean length so far, {(start + h) * unit / steps:g}; a run may "
                               f"take at most {MAX_STEPS}")
        last = not start + h < end
        hi = n if last else int(np.searchsorted(t, start + h))
        # the powers of the offsets of the step's samples and of its end, a
        # row per power, by doubling: t^(k+i) = t^k t^i
        T = np.empty((ORDER + 1, hi - lo + 1))
        T[0] = 1.0
        np.subtract(t[lo:hi], start, out=T[1, :-1])
        T[1, -1] = end - start if last else h
        k = 2
        while k <= ORDER:
            width = min(k, ORDER + 1 - k)
            np.multiply(T[:width], T[k - 1] * T[1], out=T[k:k + width])
            k += width
        C = np.array(X).reshape(ORDER + 1, 3)
        ys, ws = T.T @ C, T[:-1].T @ (C[1:] * orders)
        xs[lo:hi], vs[lo:hi] = ys[:-1], ws[:-1]
        y, w = ys[-1], ws[-1]
        a = B @ y
        worst = max(worst, abs(y @ a - 1.0))
        y = y - 0.5 * (y @ a - 1.0) / (a @ a) * a
        a = B @ y
        w = w - (w @ a) / (a @ a) * a
        w = w / np.linalg.norm(w)
        drift = abs(y @ a - 1.0)
        # negated <=, so that a step end that overflowed to NaN fails
        if not drift <= DRIFT_LIMIT:
            raise StepTooLarge(f"constraint drift {drift:g} at series step {steps - 1}")
        if last:
            break
        start, lo = start + h, hi
    # every sample's v tangent and unit, and its x'' from the equation
    a = xs @ B
    aa = _dot(a, a)
    vs -= (_dot(vs, a) / aa)[:, None] * a
    vs /= np.sqrt(_dot(vs, vs))[:, None]
    x_ddot = (-_dot(vs, vs @ B) / (aa * unit))[:, None] * a
    return GeodesicTrajectory(s=s, x=xs * unit, v=vs, x_ddot=x_ddot,
                              series_steps=steps, max_drift=float(worst))


def _series(x: list, v: list, b: list) -> list:
    """The Taylor coefficients X_0 .. X_ORDER of the geodesic through x with
    velocity v, with B = A^-1 row-major in b, as one flat list of floats.

    With A_k = B X_k, Q = |B x|^2 and c = -<v, B v>/Q, the equation is
    x'' = c B x.  Along it <v, B v>' = 2 c <B x, B v> = c Q', so (c Q)' =
    -c Q', that is c' Q = -2 c Q' (c Q^2 is Joachimsthal's integral).  At
    each order K >= 1 this gives
        Q_K = sum_(i=0..K) <A_i, A_(K-i)>,
        K Q_0 c_K = -sum_(i=0..K-1) (2K - i) c_i Q_(K-i),
        X_(K+2) = sum_(i=0..K) c_i A_(K-i) / ((K+1) (K+2)),
    each sum taken by math.fsum, so correctly rounded over its products.
    The lists ending in _rev hold A and Q from the highest order down.
    """
    b11, b12, b13, b21, b22, b23, b31, b32, b33 = b
    X = [*x, *v]
    A, A_rev, c, Q_rev = [], [], [], []
    for K in range(ORDER):
        x1, x2, x3 = X[3 * K:3 * K + 3]
        a = [b11 * x1 + b12 * x2 + b13 * x3, b21 * x1 + b22 * x2 + b23 * x3,
             b31 * x1 + b32 * x2 + b33 * x3]
        A += a
        A_rev = a + A_rev
        Q_rev.insert(0, fsum(map(mul, A, A_rev)))
        if K:
            c.append(-fsum(map(mul, map(mul, range(2 * K, K, -1), c), Q_rev)) / (K * Q_rev[-1]))
        else:
            v1, v2, v3 = v
            c.append(-fsum(map(mul, v, (b11 * v1 + b12 * v2 + b13 * v3,
                                         b21 * v1 + b22 * v2 + b23 * v3,
                                         b31 * v1 + b32 * v2 + b33 * v3))) / Q_rev[0])
        if K < ORDER - 1:
            d = (K + 1.0) * (K + 2.0)
            X += (fsum(map(mul, c, A_rev[0::3])) / d, fsum(map(mul, c, A_rev[1::3])) / d,
                  fsum(map(mul, c, A_rev[2::3])) / d)
    return X


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
