"""Shared test helpers: oracles independent of the library's own evaluators.

The library evaluates a supporting function at given angles through
``support_geometry.eval_support``, from a table of complex exponentials,
and on uniform grids through ``support_grid``, by an inverse FFT.
``trig_eval`` and ``trig_derivative`` sum the cosine and sine series
directly, so they serve as an oracle of both.  ``solve_gutkin_angles`` finds its
roots by Newton steps and a short bisection; ``bisect_gutkin_angles``
bisects each whole branch instead.  ``gradient_contract_residual`` evaluates
the R^d gradient check over pairs in one batch; ``pairwise_gradient_residual``
is the per-pair loop it replaced.  Import them with
``from conftest import trig_eval``.
"""

import math

import numpy as np

from gutkin.support_geometry import TrigPolynomial


def trig_eval(f: TrigPolynomial, phi):
    """c + sum_k (a_k cos k*phi + b_k sin k*phi) at phi, a scalar or an array."""
    phi = np.asarray(phi, dtype=float)
    k = np.arange(1, f.cos_coeffs.size + 1)
    kphi = np.multiply.outer(phi, k)
    return f.constant + np.cos(kphi) @ f.cos_coeffs + np.sin(kphi) @ f.sin_coeffs


def trig_derivative(f: TrigPolynomial) -> TrigPolynomial:
    """The derivative in phi, harmonic by harmonic."""
    k = np.arange(1, f.cos_coeffs.size + 1)
    return TrigPolynomial(0.0, k * f.sin_coeffs, -k * f.cos_coeffs)


def bisect_gutkin_angles(n: int) -> list[float]:
    """Roots of tan(n d) = n tan(d) in (0, pi/2): the sign of
    tan(n d) - n tan(d) bisected down to adjacent floats over each whole
    branch ((2j-1) pi/2n, (2j+1) pi/2n), j = 1..floor(n/2)-1, in lock-step."""
    j = np.arange(1, n // 2)
    lo = (2 * j - 1) * (math.pi / (2 * n))
    hi = (2 * j + 1) * (math.pi / (2 * n))
    while True:
        mid = 0.5 * (lo + hi)
        live = (lo < mid) & (mid < hi)
        if not live.any():
            return [float(d) for d in mid]
        above = np.tan(n * mid) > n * np.tan(mid)
        hi = np.where(live & above, mid, hi)
        lo = np.where(live & ~above, mid, lo)


def pairwise_gradient_residual(q, n1, n2):
    """(|D1 S - m1|, |D2 S + m2|) for one pair of unit directions, as the
    gradient check computed it one pair at a time: a Householder tangent basis
    from np.eye/np.outer/np.delete, and central differences of
    S = q.support(n1 - n2) along great circles at step 1e-5."""
    step = 1e-5

    def basis(n):
        drop = int(np.argmax(np.abs(n)))
        u = n.copy()
        u[drop] += math.copysign(1.0, n[drop])
        H = np.eye(n.size) - (2.0 / (u @ u)) * np.outer(u, u)
        return np.delete(H, drop, axis=0)

    def fd_grad(base, other):
        B = basis(base)
        points = math.cos(step) * base + np.multiply.outer([math.sin(step), -math.sin(step)], B)
        sp, sm = q.support(points - other)
        return (sp - sm) / (2.0 * step) @ B

    w = n1 - n2
    P = q.A @ w / q.support(w)
    m1 = P - float(P @ n1) * n1
    m2 = P - float(P @ n2) * n2
    return (float(np.linalg.norm(fd_grad(n1, n2) - m1)),
            float(np.linalg.norm(fd_grad(n2, n1) + m2)))
