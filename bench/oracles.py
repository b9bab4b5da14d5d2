"""Independent reference computations the benchmark checks the program against.

Nothing here imports the program.  Each function recomputes a quantity from
its closed form or by a method the program does not use:

* roots of tan(n d) = n tan(d): mpmath bisection, one root per branch;
* planar chords and bounces: bisection on the exact brackets
  (phi, phi + pi) and (phi + pi, phi + 2 pi), where the support-line
  residual is monotone;
* rigidity integral: 2 (F(d2) - F(d1)) pi sum k^2 (k^2 - 1) |h_k|^2;
* ellipsoid bounces: the exit point of a ray from the quadric equation and
  the mirror law at the exit point;
* twist: the mixed tangential Hessian of S(n1, n2) = sqrt(<A w, w>) in
  closed form;
* geodesic chords: 2 R sin(delta) on the sphere; on an ellipsoid the
  geodesic through a vertex along a principal direction is a principal
  ellipse, parametrised here by arc length.
"""

from __future__ import annotations

import math
from functools import lru_cache

import mpmath
import numpy as np

ROOT_DPS = 40
BISECT_STEPS = 64


# --- roots of tan(n d) = n tan(d) ---------------------------------------


@lru_cache(maxsize=None)
def gutkin_roots(n: int) -> tuple[float, ...]:
    """Roots in (0, pi/2), j-th inside the branch ((2j-1) pi/2n, (2j+1) pi/2n).

    g(d) = sin(n d) cos(d) - n sin(d) cos(n d) has no poles and changes sign
    across each branch for j = 1 .. floor(n/2) - 1.
    """
    with mpmath.workdps(ROOT_DPS):
        def g(d):
            return (mpmath.sin(n * d) * mpmath.cos(d)
                    - n * mpmath.sin(d) * mpmath.cos(n * d))

        roots = []
        for j in range(1, n // 2):
            lo = (2 * j - 1) * mpmath.pi / (2 * n)
            hi = (2 * j + 1) * mpmath.pi / (2 * n)
            g_lo = g(lo)
            for _ in range(110):
                mid = (lo + hi) / 2
                if (g(mid) > 0) == (g_lo > 0):
                    lo = mid
                else:
                    hi = mid
            roots.append(float((lo + hi) / 2))
    return tuple(roots)


# --- planar tables ---------------------------------------------------------


def support_derivs(a0: float, cos_k: np.ndarray, sin_k: np.ndarray, psi):
    """h, h', h'' of h = a0 + sum_k (cos_k cos k psi + sin_k sin k psi)."""
    psi = np.asarray(psi, dtype=float)
    k = np.arange(1, cos_k.size + 1, dtype=float)
    kpsi = np.multiply.outer(psi, k)
    c, s = np.cos(kpsi), np.sin(kpsi)
    h = a0 + c @ cos_k + s @ sin_k
    hp = s @ (-k * cos_k) + c @ (k * sin_k)
    hpp = -(c @ (k * k * cos_k) + s @ (k * k * sin_k))
    return h, hp, hpp


def _line_residual(table, psi, p, phi):
    # <x(psi), e_phi> - p with x = h e_psi + h' e_psi_perp
    h, hp, _ = support_derivs(table.a0, table.cos_k, table.sin_k, psi)
    return h * np.cos(psi - phi) - hp * np.sin(psi - phi) - p


def _bisect(table, lo, hi, p, phi):
    f_lo = _line_residual(table, lo, p, phi)
    for _ in range(BISECT_STEPS):
        mid = 0.5 * (lo + hi)
        same = (_line_residual(table, mid, p, phi) > 0) == (f_lo > 0)
        lo = np.where(same, mid, lo)
        hi = np.where(same, hi, mid)
    return 0.5 * (lo + hi)


def planar_bounce(table, p, phi):
    """Chord and next line for arrays of lines (p, phi) inside a table.

    d f / d psi = rho(psi) sin(phi - psi), so the residual is monotone on
    (phi, phi + pi), which holds the forward endpoint, and on
    (phi + pi, phi + 2 pi), which holds the backward one.  Returns a dict of
    arrays: p2, phi2 (next line), psi_back, psi_fwd, angle_back, angle_fwd.
    """
    p = np.asarray(p, dtype=float)
    phi = np.asarray(phi, dtype=float)
    psi_f = _bisect(table, phi, phi + math.pi, p, phi)
    psi_b = _bisect(table, phi + math.pi, phi + 2 * math.pi, p, phi)
    h, hp, _ = support_derivs(table.a0, table.cos_k, table.sin_k, psi_f)
    xf = np.stack([h * np.cos(psi_f) - hp * np.sin(psi_f),
                   h * np.sin(psi_f) + hp * np.cos(psi_f)], axis=-1)
    d = np.stack([-np.sin(phi), np.cos(phi)], axis=-1)
    nu = np.stack([np.cos(psi_f), np.sin(psi_f)], axis=-1)
    d2 = d - 2.0 * np.sum(d * nu, axis=-1, keepdims=True) * nu
    phi2 = np.mod(np.arctan2(-d2[..., 0], d2[..., 1]), 2 * math.pi)
    p2 = xf[..., 0] * np.cos(phi2) + xf[..., 1] * np.sin(phi2)
    return {
        "p2": p2, "phi2": phi2,
        "psi_back": np.mod(psi_b, 2 * math.pi),
        "psi_fwd": np.mod(psi_f, 2 * math.pi),
        "angle_back": np.arcsin(np.minimum(1.0, np.abs(np.sin(psi_b - phi)))),
        "angle_fwd": np.arcsin(np.minimum(1.0, np.abs(np.sin(psi_f - phi)))),
    }


def angle_gap(a, b):
    """|a - b| modulo 2 pi."""
    return np.abs(np.mod(np.asarray(a) - np.asarray(b) + math.pi, 2 * math.pi) - math.pi)


def rigidity_closed(table, delta1: float, delta2: float) -> float:
    def F(x):
        return 0.5 * (x - math.sin(x) * math.cos(x))

    k = np.arange(1, table.cos_k.size + 1, dtype=float)
    total = float(np.sum(k ** 2 * (k ** 2 - 1) * (table.cos_k ** 2 + table.sin_k ** 2)))
    return 2.0 * (F(delta2) - F(delta1)) * math.pi * total


# --- ellipsoids in R^d --------------------------------------------------------


def _exit_point(A_inv, P, n):
    # P on the quadric, ray P + t n: t (2 <A^-1 P, n> + t <A^-1 n, n>) = 0
    t = -2.0 * np.sum((P @ A_inv) * n, axis=-1) / np.sum((n @ A_inv) * n, axis=-1)
    return P + t[..., None] * n


def _mirror(A_inv, P, n):
    grad = P @ A_inv
    nu = grad / np.linalg.norm(grad, axis=-1, keepdims=True)
    return n - 2.0 * np.sum(n * nu, axis=-1, keepdims=True) * nu, nu


def ellipsoid_orbit_errors(A: np.ndarray, delta: float, P: np.ndarray,
                           n: np.ndarray, angle: np.ndarray) -> np.ndarray:
    """Per-bounce error of a recorded orbit launched by the CLI default.

    Row i holds the bounce point P_i, the outgoing direction n_i and the
    incidence angle there.  The orbit leaves the boundary point with normal
    (1, ..., 1)/sqrt(d) at angle delta, so the first incoming direction is
    the unit chord from that point to P_0; the launch angle is checked too.
    """
    A_inv = np.linalg.inv(A)
    d = A.shape[0]
    nu0 = np.ones(d) / math.sqrt(d)
    x0 = A @ nu0 / math.sqrt(float(nu0 @ A @ nu0))
    n_in = np.empty_like(n)
    n_in[0] = (P[0] - x0) / np.linalg.norm(P[0] - x0)
    n_in[1:] = n[:-1]
    start = np.vstack([x0, P[:-1]])
    err_point = np.linalg.norm(_exit_point(A_inv, start, n_in) - P, axis=-1)
    mirrored, nu = _mirror(A_inv, P, n_in)
    err_dir = np.linalg.norm(mirrored - n, axis=-1)
    err_angle = np.abs(np.arcsin(np.minimum(1.0, np.abs(np.sum(n * nu, axis=-1)))) - angle)
    err_surface = np.abs(np.sum((P @ A_inv) * P, axis=-1) - 1.0)
    launch = abs(math.asin(min(1.0, abs(float(n_in[0] @ nu0)))) - delta)
    err = np.maximum.reduce([err_point, err_dir, err_angle, err_surface])
    err[0] = max(err[0], launch)
    return err


def _tangent_frame(n: np.ndarray) -> np.ndarray:
    # rows: orthonormal basis of the complement of n (from a full QR)
    q, _ = np.linalg.qr(np.column_stack([n, np.eye(n.size)]))
    return q[:, 1:n.size].T


def twist_min_sv(A: np.ndarray, n1: np.ndarray, n2: np.ndarray) -> float:
    """Smallest singular value of D12 S, S = sqrt(<A w, w>), w = n1 - n2.

    Along great circles n1 + s xi and n2 + t eta the mixed derivative is
    -<A xi, eta>/S + <A w, xi><A w, eta>/S^3; singular values do not depend
    on the choice of orthonormal tangent bases.
    """
    w = n1 - n2
    S = math.sqrt(float(w @ A @ w))
    xi = _tangent_frame(n1)
    eta = _tangent_frame(n2)
    Aw = A @ w
    M = -(xi @ A @ eta.T) / S + np.outer(xi @ Aw, eta @ Aw) / S ** 3
    return float(np.linalg.svd(M, compute_uv=False)[-1])


# --- geodesic chords -----------------------------------------------------------


def sphere_chord_length(radius: float, delta: float) -> float:
    return 2.0 * radius * math.sin(delta)


def ellipse_chord_lengths(a: float, b: float, s: np.ndarray, delta: float) -> np.ndarray:
    """Chord lengths along the geodesic (a cos t, b sin t, 0) of an ellipsoid.

    The geodesic leaving the vertex (a, 0, 0) along the y axis stays in the
    plane z = 0, and so does every chord at angle delta to it: the inner
    normal of the ellipsoid along that plane lies in the plane.
    """
    s = np.asarray(s, dtype=float)
    nodes, weights = np.polynomial.legendre.leggauss(16)

    def speed(t):
        return np.sqrt((a * np.sin(t)) ** 2 + (b * np.cos(t)) ** 2)

    def arc(t0, t1):
        mid, half = 0.5 * (t0 + t1), 0.5 * (t1 - t0)
        pts = mid[..., None] + half[..., None] * nodes
        return half * (speed(pts) @ weights)

    panels = 4096
    t_max = 2.0 * float(s.max()) / min(a, b) + 1.0
    edges = np.linspace(0.0, t_max, panels + 1)
    cum = np.concatenate([[0.0], np.cumsum(arc(edges[:-1], edges[1:]))])
    t = np.interp(s, cum, edges)
    for _ in range(8):
        i = np.clip(np.searchsorted(edges, t, side="right") - 1, 0, panels - 1)
        t = t - (cum[i] + arc(edges[i], t) - s) / speed(t)
    x = np.stack([a * np.cos(t), b * np.sin(t)], axis=-1)
    tangent = np.stack([-a * np.sin(t), b * np.cos(t)], axis=-1) / speed(t)[:, None]
    grad = np.stack([np.cos(t) / a, np.sin(t) / b], axis=-1)
    inner = -grad / np.linalg.norm(grad, axis=-1, keepdims=True)
    z = math.cos(delta) * tangent + math.sin(delta) * inner
    z /= np.linalg.norm(z, axis=-1, keepdims=True)
    inv = np.array([1.0 / a ** 2, 1.0 / b ** 2])
    return -2.0 * np.sum(inv * x * z, axis=-1) / np.sum(inv * z * z, axis=-1)
