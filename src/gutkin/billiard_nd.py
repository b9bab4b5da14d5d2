"""Billiards inside ellipsoids in R^d via the sphere-pair generating function.

An oriented line is (n, m) with unit direction n and moment m = P - <P,n>n
orthogonal to n.  For a strictly convex body with 1-homogeneous support
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

from .errors import CoincidentDirections, NoIntersection, NonUnit, TangentLine

# great-circle steps of the first-derivative and the mixed-Hessian stencils
FD_STEP = 1e-5
FD_STEP_NESTED = 1e-4


@dataclass(frozen=True)
class Quadric:
    """Ellipsoid <A^-1 x, x> = 1 with A symmetric positive definite."""

    A: np.ndarray
    A_inv: np.ndarray = field(init=False)

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("A must be a square matrix")
        if not np.isfinite(A).all():
            raise ValueError("A must have finite entries")
        if np.linalg.norm(A - A.T) > 1e-14 * max(1.0, np.linalg.norm(A)):
            raise ValueError("A must be symmetric")
        # Cholesky doubles as the positive-definiteness check
        np.linalg.cholesky(A)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "A_inv", np.linalg.inv(A))

    @property
    def d(self) -> int:
        return self.A.shape[0]

    def support(self, x):
        """H(x) = sqrt(<A x, x>) over the last axis of any (..., d) array; one
        vector gives a float.  H is 1-homogeneous: H(c x) = c H(x), c > 0."""
        x = np.asarray(x, dtype=float)
        h = np.sqrt(np.einsum("...i,...i->...", x @ self.A, x))
        return float(h) if h.ndim == 0 else h

    def boundary_point(self, x) -> np.ndarray:
        """grad H(x) = A x / H(x), the boundary point with outward normal
        x/|x| for one nonzero vector x; 0-homogeneous in x."""
        x = np.asarray(x, dtype=float)
        return self.A @ x / self.support(x)


def sphere_quadric(radius: float, d: int = 3) -> Quadric:
    return Quadric(radius ** 2 * np.eye(d))


@dataclass(frozen=True)
class OrientedLineND:
    """Line {m + t n} with |n| = 1 and m orthogonal to n."""

    n: np.ndarray
    m: np.ndarray

    def __post_init__(self):
        n = np.asarray(self.n, dtype=float)
        m = np.asarray(self.m, dtype=float)
        _check_lines(n, m)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)


def _check_lines(n: np.ndarray, m: np.ndarray):
    """|n| = 1, m finite and <m, n> = 0 over the last axis, for one line or rows
    of lines; NaN fails every check."""
    norm = np.linalg.norm(n, axis=-1)
    # negated <=, so that NaN counts as a failure
    off_unit = ~(np.abs(norm - 1.0) <= 1e-12)
    if off_unit.any():
        raise NonUnit(f"|n| = {np.extract(off_unit, norm)[0]:.15g}")
    if not np.isfinite(m).all():
        raise ValueError("m must be finite")
    mn = np.einsum("...i,...i->...", m, n)
    skew = ~(np.abs(mn) <= 1e-12 * np.maximum(1.0, np.linalg.norm(m, axis=-1)))
    if skew.any():
        raise ValueError(f"<m, n> = {np.extract(skew, mn)[0]:g} != 0")


def _diff(n1, n2) -> np.ndarray:
    delta = np.asarray(n1, dtype=float) - np.asarray(n2, dtype=float)
    if (np.linalg.norm(delta, axis=-1) < 1e-12).any():
        raise CoincidentDirections("n1 and n2 coincide")
    return delta


def generating_value_nd(q: Quadric, n1, n2):
    """S(n1, n2) = H(n1 - n2) over the last axis of pairs of any leading
    shape (..., d); one pair gives a float.  S(n1, n2) = S(n2, n1) bit for
    bit, since negating n1 - n2 is exact."""
    return q.support(_diff(n1, n2))


def reflect_nd(q: Quadric, line: OrientedLineND):
    """One bounce of ``orbit_nd``: (next line, exit point)."""
    n, m, P, _ = orbit_nd(q, line, 1)
    return OrientedLineND(n[1], m[1]), P[0]


def tangent_basis(n: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the tangent space to the unit sphere at n, as rows.

    With s the sign of the largest coordinate n_drop of n, the Householder
    reflector H = I - 2 u u^T/|u|^2, u = n + s e_drop, swaps n and -s e_drop,
    so its rows e_i H, i != drop, are orthonormal and orthogonal to n.  As
    |u|^2 = 2 + 2 |n_drop| >= 2, the reflector is well conditioned for every n.
    """
    n = np.asarray(n, dtype=float)
    drop = int(np.argmax(np.abs(n)))
    u = n.copy()
    u[drop] += math.copysign(1.0, n[drop])
    H = np.eye(n.size) - (2.0 / (u @ u)) * np.outer(u, u)
    return np.delete(H, drop, axis=0)


def _great_circle_steps(n: np.ndarray, step: float):
    """(points, basis): points[k, i] = cos(step) n +- sin(step) basis[i], shape
    (2, d-1, d), on great circles through n; basis = tangent_basis(n)."""
    basis = tangent_basis(n)
    sin = math.sin(step)
    return math.cos(step) * n + np.multiply.outer([sin, -sin], basis), basis


def _moment(P: np.ndarray, n: np.ndarray) -> np.ndarray:
    return P - float(P @ n) * n


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
    """Residuals of m1 = D1 S and m2 = -D2 S, derivatives by finite differences.

    D1 S is assembled from central differences of S along great circles at
    n1; analytically it equals the projection of the bounce point P
    orthogonally along n1, which is exactly the moment m1.
    """
    n1 = np.asarray(n1, dtype=float)
    n2 = np.asarray(n2, dtype=float)
    P = q.boundary_point(_diff(n1, n2))
    m1 = _moment(P, n1)
    m2 = _moment(P, n2)

    def fd_grad(base, other):
        # D1 S(base, other); D2 S(n1, n2) is fd_grad(n2, n1) as S is symmetric
        points, basis = _great_circle_steps(base, FD_STEP)
        sp, sm = generating_value_nd(q, points, other)
        return (sp - sm) / (2.0 * FD_STEP) @ basis

    d1s = fd_grad(n1, n2)
    d2s = fd_grad(n2, n1)
    return float(np.linalg.norm(d1s - m1)), float(np.linalg.norm(d2s + m2))


def twist_jacobian_min_sv(q: Quadric, n1, n2) -> float:
    """Smallest singular value of the mixed tangential Hessian D12 S; its four
    stencils come from one S call on shape (2, 2, d-1, d-1, d)."""
    points1, _ = _great_circle_steps(np.asarray(n1, dtype=float), FD_STEP_NESTED)
    points2, _ = _great_circle_steps(np.asarray(n2, dtype=float), FD_STEP_NESTED)
    (spp, spm), (smp, smm) = generating_value_nd(
        q, points1[:, None, :, None], points2[None, :, None])
    M = (spp - spm - smp + smm) / (4.0 * FD_STEP_NESTED * FD_STEP_NESTED)
    return float(np.linalg.svd(M, compute_uv=False)[-1])


def launch_line(q: Quadric, nu: np.ndarray, delta: float,
                tangent_index: int = 0) -> OrientedLineND:
    """Line leaving the boundary point with outward normal nu at angle delta.

    The direction is cos(delta)*t + sin(delta)*(-nu) for the unit tangent
    t = (e_j - nu_j nu)/|e_j - nu_j nu|, e_j the tangent_index-th axis other
    than the one where |nu| is largest, so the departure incidence angle is
    exactly delta.
    """
    if not 0.0 < delta <= math.pi / 2:
        raise ValueError("delta must be in (0, pi/2]")
    nu = unit_vector(nu)
    if nu is None or nu.shape != (q.d,):
        raise ValueError(f"nu must be a nonzero finite vector of d = {q.d} entries")
    P = q.boundary_point(nu)
    drop = int(np.argmax(np.abs(nu)))
    j = [i for i in range(nu.size) if i != drop][tangent_index]
    t = np.eye(nu.size)[j] - nu[j] * nu
    t = t / np.linalg.norm(t)
    n = math.cos(delta) * t - math.sin(delta) * nu
    return OrientedLineND(n, _moment(P, n))


def constant_angle_residual_nd(q: Quadric, delta: float, line: OrientedLineND,
                               steps: int) -> float:
    """Max |incidence - delta| along an orbit of the billiard map."""
    *_, incidence = orbit_nd(q, line, steps)
    return float(np.abs(incidence - delta).max(initial=0.0))


def orbit_nd(q: Quadric, line: OrientedLineND, steps: int):
    """The billiard map iterated ``steps`` times from ``line``.

    Returns (n, m, P, incidence): the directions and moments of the lines,
    shape (steps+1, d), row 0 being ``line``; the exit points P, shape
    (steps, d); and the angle between each outgoing line and the tangent
    plane at its exit point, shape (steps,).  A bounce takes the larger
    root t of <A^-1(m + t n), m + t n> = 1 and mirrors n across the outward
    normal nu there; it raises TangentLine on a tangent line or a grazing
    one (n - n2 too short to recover nu) and NoIntersection on a miss.
    """
    A_inv = q.A_inv
    ns = np.empty((steps + 1, q.d))
    ms = np.empty_like(ns)
    Ps = np.empty((steps, q.d))
    incidence = np.empty(steps)
    ns[0], ms[0] = line.n, line.m
    for k in range(steps):
        n, m = ns[k], ms[k]
        # (n A^-1) n, not n (A^-1 n): over long orbits the other order moves
        # the CSV in its last digits.  x.dot(y) gives the bits of x @ y, and
        # math.sqrt(x.dot(x)) those of np.linalg.norm(x), at a fraction of
        # the call overhead on vectors this short
        nA, mA = n.dot(A_inv), m.dot(A_inv)
        a = nA.dot(n)
        b = 2.0 * mA.dot(n)
        c = mA.dot(m) - 1.0
        # disc / a does not change when the body is scaled
        disc = b * b - 4.0 * a * c
        if disc < 1e-14 * a:
            if abs(disc) < 1e-14 * a:
                raise TangentLine("line is tangent to the quadric")
            raise NoIntersection("line misses the quadric")
        t = (-b + math.sqrt(disc)) / (2.0 * a)
        P = m + t * n
        grad = A_inv.dot(P)
        nu = grad / math.sqrt(grad.dot(grad))
        n2 = n - 2.0 * n.dot(nu) * nu
        n2 /= math.sqrt(n2.dot(n2))
        chord = n - n2
        gap = nu - chord / math.sqrt(chord.dot(chord))
        consistency = math.sqrt(gap.dot(gap))
        if consistency > 1e-10:
            # a grazing line leaves n - n2 too short to recover the normal
            raise TangentLine(f"line grazes the quadric: normal/direction "
                              f"consistency {consistency:g}")
        ns[k + 1], ms[k + 1], Ps[k] = n2, P - P.dot(n2) * n2, P
        incidence[k] = math.asin(min(1.0, abs(n2.dot(nu))))
    _check_lines(ns, ms)
    return ns, ms, Ps, incidence
