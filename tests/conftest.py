"""Shared test helpers: an evaluator of h independent of ``eval_support``.

The library evaluates a supporting function only through
``support_geometry.eval_support``, from a table of complex exponentials.
The functions here sum the cosine and sine series directly, so they serve
as its oracle; import them with ``from conftest import trig_eval``.
"""

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
