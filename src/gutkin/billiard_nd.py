"""Billiards inside ellipsoids in R^d via the sphere-pair generating function.

An oriented line is (n, m) with unit direction n and moment m = P - <P,n>n
orthogonal to n.  For the ellipsoid <A^-1 x, x> = 1 the support function is
h(nu) = sqrt(<A nu, nu>), the inverse Gauss map is A nu / h(nu), and the
generating function of the billiard map is

    S(n1, n2) = sqrt(<A (n1-n2), n1-n2>) = h(nu) |n1-n2|,

with nu = (n1-n2)/|n1-n2| the outward normal at the bounce point.  The map
contract is m1 = D1 S, m2 = -D2 S with derivatives taken tangentially on
the sphere of directions; both are checked here by great-circle finite
differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CoincidentDirections, NoIntersection, NonUnit, TangentLine

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
        if abs(np.linalg.norm(n) - 1.0) > 1e-12:
            raise NonUnit(f"|n| = {np.linalg.norm(n):.15g}")
        if abs(float(m @ n)) > 1e-12 * max(1.0, np.linalg.norm(m)):
            raise ValueError(f"<m, n> = {float(m @ n):g} != 0")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)

    def reversed(self) -> "OrientedLineND":
        return OrientedLineND(-self.n, self.m)


def _check_unit(nu: np.ndarray):
    if abs(np.linalg.norm(nu) - 1.0) > 1e-9:
        raise NonUnit(f"|nu| = {np.linalg.norm(nu):.15g}")


def ellipsoid_support(q: Quadric, nu: np.ndarray) -> float:
    """h(nu) = sqrt(<A nu, nu>)."""
    nu = np.asarray(nu, dtype=float)
    _check_unit(nu)
    return math.sqrt(float(nu @ q.A @ nu))


def gauss_inverse(q: Quadric, nu: np.ndarray) -> np.ndarray:
    """Boundary point with outward unit normal nu: A nu / h(nu)."""
    return q.A @ np.asarray(nu, dtype=float) / ellipsoid_support(q, nu)


def _outward_normal(q: Quadric, P: np.ndarray) -> np.ndarray:
    grad = q.A_inv @ P
    return grad / np.linalg.norm(grad)


def _diff(n1, n2) -> np.ndarray:
    delta = np.asarray(n1, dtype=float) - np.asarray(n2, dtype=float)
    if (np.linalg.norm(delta, axis=-1) < 1e-12).any():
        raise CoincidentDirections("n1 and n2 coincide")
    return delta


def generating_value_nd(q: Quadric, n1, n2):
    """S(n1, n2) = sqrt(<A(n1-n2), n1-n2>) over the last axis of pairs of any
    leading shape (..., d); one pair gives a float.  S(n1, n2) = S(n2, n1)
    bit for bit, since negating n1 - n2 is exact."""
    delta = _diff(n1, n2)
    s = np.sqrt(np.einsum("...i,...i->...", delta @ q.A, delta))
    return float(s) if s.ndim == 0 else s


def generating_value_nd_general(q: Quadric, n1, n2) -> float:
    """Same quantity through the support function: h(nu)|n1-n2|; cross-check."""
    delta = _diff(n1, n2)
    norm = np.linalg.norm(delta)
    return ellipsoid_support(q, delta / norm) * norm


def reflect_nd(q: Quadric, line: OrientedLineND):
    """One bounce: exit point P, mirror the direction across the normal there."""
    n, m = line.n, line.m
    a = float(n @ q.A_inv @ n)
    b = 2.0 * float(m @ q.A_inv @ n)
    c = float(m @ q.A_inv @ m) - 1.0
    disc = b * b - 4.0 * a * c
    if disc < 1e-14:
        if abs(disc) < 1e-14:
            raise TangentLine("line is tangent to the quadric")
        raise NoIntersection("line misses the quadric")
    t = (-b + math.sqrt(disc)) / (2.0 * a)  # larger root: exit point
    P = m + t * n
    nu = _outward_normal(q, P)
    n2 = n - 2.0 * float(n @ nu) * nu
    n2 /= np.linalg.norm(n2)
    m2 = P - float(P @ n2) * n2
    consistency = np.linalg.norm(nu - (n - n2) / np.linalg.norm(n - n2))
    if consistency > 1e-10:
        # a grazing line leaves n - n2 too short to recover the normal
        raise TangentLine(f"line grazes the quadric: normal/direction "
                          f"consistency {consistency:g}")
    return OrientedLineND(n2, m2), P


def tangent_basis(n: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the tangent space to the unit sphere at n.

    Gram-Schmidt over the standard basis, dropping the axis most parallel
    to n; deterministic and stable away from that axis.
    """
    n = np.asarray(n, dtype=float)
    d = n.size
    drop = int(np.argmax(np.abs(n)))
    vecs = [np.eye(d)[i] for i in range(d) if i != drop]
    basis = []
    for v in vecs:
        w = v - float(v @ n) * n
        for u in basis:
            w = w - float(w @ u) * u
        basis.append(w / np.linalg.norm(w))
    return np.array(basis)


def _great_circle_steps(n: np.ndarray, step: float):
    """(points, basis): points[k, i] = cos(step) n +- sin(step) basis[i], shape
    (2, d-1, d), on great circles through n; basis = tangent_basis(n)."""
    basis = tangent_basis(n)
    sin = math.sin(step)
    return math.cos(step) * n + np.multiply.outer([sin, -sin], basis), basis


def _moment(P: np.ndarray, n: np.ndarray) -> np.ndarray:
    return P - float(P @ n) * n


def chord_point(q: Quadric, n1, n2) -> np.ndarray:
    """Bounce point of the chord with incoming/outgoing directions (n1, n2)."""
    delta = _diff(n1, n2)
    return gauss_inverse(q, delta / np.linalg.norm(delta))


def gradient_contract_residual(q: Quadric, n1, n2, step: float = FD_STEP):
    """Residuals of m1 = D1 S and m2 = -D2 S, derivatives by finite differences.

    D1 S is assembled from central differences of S along great circles at
    n1; analytically it equals the projection of the bounce point P
    orthogonally along n1, which is exactly the moment m1.
    """
    n1 = np.asarray(n1, dtype=float)
    n2 = np.asarray(n2, dtype=float)
    P = chord_point(q, n1, n2)
    m1 = _moment(P, n1)
    m2 = _moment(P, n2)

    def fd_grad(base, other):
        # D1 S(base, other); D2 S(n1, n2) is fd_grad(n2, n1) as S is symmetric
        points, basis = _great_circle_steps(base, step)
        sp, sm = generating_value_nd(q, points, other)
        return (sp - sm) / (2.0 * step) @ basis

    d1s = fd_grad(n1, n2)
    d2s = fd_grad(n2, n1)
    return float(np.linalg.norm(d1s - m1)), float(np.linalg.norm(d2s + m2))


def twist_jacobian_min_sv(q: Quadric, n1, n2, step: float = FD_STEP_NESTED) -> float:
    """Smallest singular value of the mixed tangential Hessian D12 S; its four
    stencils come from one S call on shape (2, 2, d-1, d-1, d)."""
    points1, _ = _great_circle_steps(np.asarray(n1, dtype=float), step)
    points2, _ = _great_circle_steps(np.asarray(n2, dtype=float), step)
    (spp, spm), (smp, smm) = generating_value_nd(
        q, points1[:, None, :, None], points2[None, :, None])
    M = (spp - spm - smp + smm) / (4.0 * step * step)
    return float(np.linalg.svd(M, compute_uv=False)[-1])


def incidence_angle(q: Quadric, n: np.ndarray, P: np.ndarray) -> float:
    """Angle between the direction n and the tangent plane at the boundary point P."""
    nu = _outward_normal(q, P)
    return math.asin(min(1.0, abs(float(n @ nu))))


def launch_line(q: Quadric, nu: np.ndarray, delta: float,
                tangent_index: int = 0) -> OrientedLineND:
    """Line leaving the boundary point with outward normal nu at angle delta.

    The direction is cos(delta)*t + sin(delta)*(-nu) for a tangent unit
    vector t, so the departure incidence angle is exactly delta.
    """
    if not 0.0 < delta <= math.pi / 2:
        raise ValueError("delta must be in (0, pi/2]")
    nu = np.asarray(nu, dtype=float)
    nu = nu / np.linalg.norm(nu)
    P = gauss_inverse(q, nu)
    t = tangent_basis(nu)[tangent_index]
    n = math.cos(delta) * t - math.sin(delta) * nu
    return OrientedLineND(n, _moment(P, n))


def constant_angle_residual_nd(q: Quadric, delta: float, line: OrientedLineND,
                               steps: int) -> float:
    """Max |incidence - delta| along an orbit of the billiard map."""
    lines, points = orbit_nd(q, line, steps)
    return max((abs(incidence_angle(q, ln.n, P) - delta)
                for ln, P in zip(lines[1:], points)), default=0.0)


def orbit_nd(q: Quadric, line: OrientedLineND, steps: int):
    """Iterate reflect_nd; returns (lines, points) with len(points) = steps."""
    lines = [line]
    points = []
    for _ in range(steps):
        nxt, P = reflect_nd(q, lines[-1])
        lines.append(nxt)
        points.append(P)
    return lines, points
