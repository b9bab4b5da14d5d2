"""Shared test helpers: oracles independent of the library's own evaluators.

The library evaluates a supporting function only through
``support_geometry.eval_support``, from a table of complex exponentials.
``trig_eval`` and ``trig_derivative`` sum the cosine and sine series
directly, so they serve as its oracle.  ``solve_gutkin_angles`` finds its
roots by Newton steps and a short bisection; ``bisect_gutkin_angles``
bisects each whole branch instead.  Import them with
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
