"""Billiards inside ellipsoids in R^d via the sphere-pair generating function.

An oriented line has a unit direction n and its moment m = x - <x,n>n,
orthogonal to n, the same for every point x of the line.  ``orbit_nd``
starts a line from any of its points and returns the moments of the lines
it follows.  For a strictly convex body with 1-homogeneous support
function H, the generating function of the billiard map is

    S(n1, n2) = H(n1 - n2),

and the bounce point is grad H(n1 - n2), the boundary point with outward
normal along n1 - n2.  For the ellipsoid <A^-1 x, x> = 1 these are
``Quadric.support``, H(x) = sqrt(<A x, x>), and ``Quadric.boundary_point``,
A x / H(x).  The map contract is m1 = D1 S, m2 = -D2 S with derivatives
taken tangentially on the sphere of directions; both are checked here by
great-circle finite differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (MIN_CHORD_ANGLE, CoincidentDirections, NoIntersection, NonUnit,
                     TangentLine)

# great-circle steps of the first-derivative and the mixed-Hessian stencils
FD_STEP = 1e-5
FD_STEP_NESTED = 1e-4


@dataclass(frozen=True)
class Quadric:
    """Ellipsoid <A^-1 x, x> = 1 with A symmetric positive definite."""

    A: np.ndarray
    A_inv: np.ndarray = field(init=False)
    # A / 4^k, 4^k the power of four nearest max A_ii: H and grad H run on it
    # and scale back by 2^k exactly, so no square of A's size overflows
    _A_unit: np.ndarray = field(init=False, repr=False, compare=False)
    _root_scale: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("A must be a square matrix")
        if not np.isfinite(A).all():
            raise ValueError("A must have finite entries")
        # the test runs on A / max |A_ij|, so that it is the same at every
        # scale and no square overflows
        B = A / np.abs(A).max() if A.any() else A
        if np.linalg.norm(B - B.T) > 1e-14 * np.linalg.norm(B):
            raise ValueError("A must be symmetric")
        # Cholesky doubles as the positive-definiteness check
        np.linalg.cholesky(A)
        k = round(0.5 * math.log2(A.diagonal().max()))
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "A_inv", np.linalg.inv(A))
        object.__setattr__(self, "_A_unit", np.ldexp(A, -2 * k))
        object.__setattr__(self, "_root_scale", math.ldexp(1.0, k))

    @property
    def d(self) -> int:
        return self.A.shape[0]

    @property
    def half_width(self) -> float:
        """The largest half-width along an axis, max_i H(e_i) = sqrt(max A_ii)."""
        return math.sqrt(self.A.diagonal().max())

    def _unit_support(self, x: np.ndarray) -> np.ndarray:
        return np.sqrt(np.einsum("...i,...i->...", x @ self._A_unit, x))

    def support(self, x):
        """H(x) = sqrt(<A x, x>) over the last axis of any (..., d) array; one
        vector gives a float.  H is 1-homogeneous: H(c x) = c H(x), c > 0.
        x A of a batch is one matrix product: a row may be an ulp off a vector's."""
        h = self._root_scale * self._unit_support(np.asarray(x, dtype=float))
        return float(h) if h.ndim == 0 else h

    def boundary_point(self, x) -> np.ndarray:
        """grad H(x) = A x / H(x), the boundary point with outward normal
        x/|x|, over the last axis of nonzero vectors of shape (..., d);
        0-homogeneous in x."""
        x = np.asarray(x, dtype=float)
        # one matrix-vector product per row, so that each row gets the bits of
        # a single vector's A @ x and H(x), whatever the batch
        Ax = (self._A_unit @ x[..., None])[..., 0]
        return self._root_scale * (Ax / self._unit_support(x[..., None, :]))


def sphere_quadric(radius: float, d: int = 3) -> Quadric:
    return Quadric(radius ** 2 * np.eye(d))


def _check_directions(n: np.ndarray):
    """|n| = 1 to within 1e-12 over rows of directions.  NaN fails."""
    norm = np.linalg.norm(n, axis=-1)
    # negated <=, so that NaN counts as a failure
    off_unit = ~(np.abs(norm - 1.0) <= 1e-12)
    if off_unit.any():
        raise NonUnit(f"|n| = {np.extract(off_unit, norm)[0]:.15g}")


def _check_lines(n: np.ndarray, m: np.ndarray, size: float):
    """|n| = 1, m finite and <m, n> = 0 to within 1e-12 of the larger of
    max |m_i| and the body's size, over rows of lines: a line through the
    centre has a moment of rounding size.  NaN fails every check."""
    _check_directions(n)
    if not np.isfinite(m).all():
        raise ValueError("m must be finite")
    mn = np.einsum("...i,...i->...", m, n)
    skew = ~(np.abs(mn) <= 1e-12 * np.maximum(np.abs(m).max(axis=-1), size))
    if skew.any():
        raise ValueError(f"<m, n> = {np.extract(skew, mn)[0]:g} != 0")


def _diff(n1, n2) -> np.ndarray:
    delta = np.asarray(n1, dtype=float) - np.asarray(n2, dtype=float)
    # |delta| < 1e-12 on every row, by the squared norm
    if (np.einsum("...i,...i->...", delta, delta) < 1e-24).any():
        raise CoincidentDirections("n1 and n2 coincide")
    return delta


def generating_value_nd(q: Quadric, n1, n2):
    """S(n1, n2) = H(n1 - n2) over the last axis of pairs of any leading
    shape (..., d); one pair gives a float.  S(n1, n2) = S(n2, n1) bit for
    bit, since negating n1 - n2 is exact."""
    return q.support(_diff(n1, n2))


def tangent_basis(n) -> np.ndarray:
    """Orthonormal bases of the tangent spaces to the unit sphere at the rows
    of n, shape (..., d), as the rows of an array of shape (..., d-1, d).

    With s the sign of the largest coordinate n_drop of a row n, the
    Householder reflector H = I - 2 u u^T/|u|^2, u = n + s e_drop, swaps n
    and -s e_drop, so its rows e_i H, i != drop, are orthonormal and
    orthogonal to n.  As |u|^2 = 2 + 2 |n_drop| >= 2, the reflector is well
    conditioned for every n.
    """
    n = np.asarray(n, dtype=float)
    d = n.shape[-1]
    top = np.arange(d) == np.argmax(np.abs(n), axis=-1)[..., None]
    u = n + np.copysign(top, n)
    # |u|^2 by matmul, the bits of one vector's u @ u
    scale = 2.0 / (u[..., None, :] @ u[..., :, None])
    H = np.eye(d) - scale * (u[..., :, None] * u[..., None, :])
    return H[~top].reshape(n.shape[:-1] + (d - 1, d))


def _great_circle_steps(n: np.ndarray, step: float):
    """(points, basis) for rows n of shape (..., d): points[..., k, i] =
    cos(step) n +- sin(step) basis[..., i], shape (..., 2, d-1, d), on great
    circles through n; basis = tangent_basis(n)."""
    basis = tangent_basis(n)
    signed = np.array([[[math.sin(step)]], [[-math.sin(step)]]])
    return math.cos(step) * n[..., None, None, :] + signed * basis[..., None, :, :], basis


def _moment(P: np.ndarray, n: np.ndarray) -> np.ndarray:
    """P - <P, n> n over the last axis; <P, n> by matmul, so that each row
    gets the bits of one vector's P @ n."""
    return P - (P[..., None, :] @ n[..., :, None])[..., 0] * n


def unit_vector(v):
    """v / |v| for a finite nonzero vector v, else None.

    Wherever the plain norm is finite and nonzero this is v / np.linalg.norm(v)
    bit for bit; a finite nonzero v whose squares overflow or underflow is
    first divided by max |v_i|.
    """
    v = np.asarray(v, dtype=float)
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(v)
    if not 0 < norm < math.inf and np.isfinite(v).all() and v.any():
        v = v / np.abs(v).max()
        norm = np.linalg.norm(v)
    return v / norm if 0 < norm < math.inf else None


def gradient_contract_residual(q: Quadric, n1, n2):
    """Residuals of m1 = D1 S and m2 = -D2 S, derivatives by finite differences,
    for pairs of directions of shape (..., d); one pair gives two floats.

    D1 S is assembled from central differences of S along great circles at
    n1; analytically it equals the projection of the bounce point P
    orthogonally along n1, which is exactly the moment m1.
    """
    n1 = np.asarray(n1, dtype=float)
    n2 = np.asarray(n2, dtype=float)
    P = q.boundary_point(_diff(n1, n2))

    def fd_grad(base, other):
        # D1 S(base, other); D2 S(n1, n2) is fd_grad(n2, n1) as S is symmetric
        points, basis = _great_circle_steps(base, FD_STEP)
        s = generating_value_nd(q, points, other[..., None, None, :])
        slope = (s[..., 0, :] - s[..., 1, :]) / (2.0 * FD_STEP)
        return (slope[..., None, :] @ basis)[..., 0, :]

    r1 = np.linalg.norm(fd_grad(n1, n2) - _moment(P, n1), axis=-1)
    r2 = np.linalg.norm(fd_grad(n2, n1) + _moment(P, n2), axis=-1)
    if r1.ndim == 0:
        return float(r1), float(r2)
    return r1, r2


def twist_jacobian_min_sv(q: Quadric, n1, n2) -> float:
    """Smallest singular value of the mixed tangential Hessian D12 S; its four
    stencils come from one S call on shape (2, 2, d-1, d-1, d)."""
    points1, _ = _great_circle_steps(np.asarray(n1, dtype=float), FD_STEP_NESTED)
    points2, _ = _great_circle_steps(np.asarray(n2, dtype=float), FD_STEP_NESTED)
    (spp, spm), (smp, smm) = generating_value_nd(
        q, points1[:, None, :, None], points2[None, :, None])
    M = (spp - spm - smp + smm) / (4.0 * FD_STEP_NESTED * FD_STEP_NESTED)
    return float(np.linalg.svd(M, compute_uv=False)[-1])


def launch_line(q: Quadric, nu: np.ndarray, delta: float):
    """(n, x) of the line leaving the boundary point x with outward normal
    nu at angle delta; ``orbit_nd(q, n, x, steps)`` solves its first chord
    from x.

    The direction is cos(delta)*t + sin(delta)*(-nu) for the unit tangent
    t = (e_j - nu_j nu)/|e_j - nu_j nu|, e_j the first axis other than the
    one where |nu| is largest, so the departure incidence angle is exactly
    delta.
    """
    if not 0.0 < delta <= math.pi / 2:
        raise ValueError("delta must be in (0, pi/2]")
    nu = unit_vector(nu)
    if nu is None or nu.shape != (q.d,):
        raise ValueError(f"nu must be a nonzero finite vector of d = {q.d} entries")
    drop = int(np.argmax(np.abs(nu)))
    j = 1 if drop == 0 else 0
    t = np.eye(nu.size)[j] - nu[j] * nu
    t = t / np.linalg.norm(t)
    return math.cos(delta) * t - math.sin(delta) * nu, q.boundary_point(nu)


def _incidence(n, nu, dot):
    """atan2(|dot|, |n - dot nu|) over rows, dot = <n, nu>: the angle of unit n
    to the plane with unit normal nu, accurate up to pi/2, unlike asin(|dot|)."""
    t = n - dot[..., None] * nu
    return np.arctan2(np.abs(dot), np.sqrt((t[..., None, :] @ t[..., :, None])[..., 0, 0]))


def orbit_nd(q: Quadric, n, x, steps: int):
    """The billiard map iterated ``steps`` times from the line along the
    unit direction n through the point x.  x is any point of the line: its
    moment, or the boundary point it leaves, as ``launch_line`` gives.

    Returns (n, m, P, incidence): the directions and moments of the lines,
    shape (steps+1, d), row 0 being the start line with the moment of x;
    the exit points P, shape (steps, d); and the angle between each outgoing
    line and the tangent plane at its exit point, shape (steps,).  n must
    have |n| = 1 and x must be finite with d entries; every line out is
    checked.

    Every chord, the first included, runs from the point P the line is at,
    x for the first, to P + s n, s the larger root of
    F(P + s n) = f + 2 s beta + s^2 alpha = 0 with g = A^-1 P,
    beta = <g, n>, alpha = <A^-1 n, n> and f = <g, P> - 1:

        s = (sqrt(max(disc, 0)) - beta) / alpha,   disc = beta^2 - alpha f.

    From an exit point f is the rounding left in F(P), and taking it in
    keeps |F| at its rounding floor along the orbit; nothing cancels, as
    beta < 0 for a line leaving the body.  The first chord is as accurate
    as this quadratic from x, whose rounding grows as (|x| / size)^2: pass
    the moment or the departure point.  Only a first line with
    disc < -2.5e-15 alpha, a ratio that does not change when the body is
    scaled, misses the body, and raises NoIntersection.  Any other negative
    disc, from a tangent line or a glancing chord less deep than the
    rounding of P, gives s = -beta / alpha, where the outgoing incidence is
    0.  The outward normal at an exit point is g/|g|, and n is mirrored
    across it, n - (2 <n, g>/<g, g>) g.  A bounce is refused, with a
    TangentLine that names it, only where the outgoing line meets the
    boundary at an incidence below MIN_CHORD_ANGLE, the planar map's rule.

    The mirrored n is carried to the next chord unnormalized.  The root s
    is homogeneous of degree -1 in n and the mirror of degree 1, so P and
    g do not depend on |n|, and the mirror keeps |n| to rounding.  The
    returned directions, rows 1 to steps, are normalized once after the
    loop, and each incidence is formed from its row as <n, g>/|g|, so a
    one-bounce orbit has the bits of a map that normalizes every bounce.
    The moments are formed once, for all rows.
    """
    n, x = np.asarray(n, dtype=float), np.asarray(x, dtype=float)
    _check_directions(n)
    if x.shape != (q.d,) or not np.isfinite(x).all():
        raise ValueError(f"x must be a finite vector of d = {q.d} entries")
    A_inv = q.A_inv
    P = x
    g = A_inv.dot(P)
    beta = float(g.dot(n))
    ns, Ps, gs = [n], [], []
    # a.dot(b) gives the bits of a @ b, and math.sqrt(a.dot(a)) those of
    # np.linalg.norm(a), at a fraction of the call overhead on short vectors;
    # the scalars are Python floats, whose arithmetic costs less than numpy's
    for k in range(steps):
        alpha = float(A_inv.dot(n).dot(n))
        disc = beta * beta - alpha * (float(g.dot(P)) - 1.0)
        # 4 disc < -1e-14 alpha: the test on the discriminant of
        # <A^-1 (x + t n), x + t n> = 1 in t, in units that do not scale
        if disc < -2.5e-15 * alpha and not k:
            raise NoIntersection("line misses the quadric at bounce 0")
        P = P + (math.sqrt(max(disc, 0.0)) - beta) / alpha * n
        g = A_inv.dot(P)
        gg = float(g.dot(g))
        n = n - 2.0 * float(n.dot(g)) / gg * g
        beta = float(n.dot(g))
        # the incidence is at least |<n, g>| / (|n| |g|) and |n| is 1 to
        # rounding, so only a bounce with a small |beta| can graze; those are
        # checked on unit copies, as the returned rows are formed
        if abs(beta) < 2.0 * MIN_CHORD_ANGLE * math.sqrt(gg):
            unit, root = n / math.sqrt(n.dot(n)), math.sqrt(gg)
            angle = _incidence(unit, g / root, unit.dot(g) / root)
            if angle < MIN_CHORD_ANGLE:
                raise TangentLine(f"line grazes the quadric at incidence {angle:g}, "
                                  f"below {MIN_CHORD_ANGLE:g}, at bounce {k}")
        ns.append(n)
        Ps.append(P)
        gs.append(g)
    ns = np.array(ns)
    Ps, gs = (np.reshape(rows, (steps, q.d)) for rows in (Ps, gs))
    # the carried directions normalized once, and the incidences formed from
    # them; the dots by matmul, so that each row has the bits of the loop's
    # check on one vector
    ns[1:] /= np.sqrt(ns[1:, None, :] @ ns[1:, :, None])[:, 0]
    roots = np.sqrt(gs[:, None, :] @ gs[:, :, None])[:, 0]
    dots = (ns[1:, None, :] @ gs[:, :, None])[:, 0] / roots
    ms = _moment(np.concatenate([x[None], Ps]), ns)
    _check_lines(ns, ms, q.half_width)
    return ns, ms, Ps, _incidence(ns[1:], gs / roots, dots[:, 0])
