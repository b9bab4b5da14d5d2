"""Seeded inputs for the benchmark, built from their own formulas.

Nothing here calls the program, so a change to the program cannot change
a workload.  A table with curvature radius rho = a0 + sum_k rho_k(phi) has
supporting function h = a0 + sum_k rho_k / (1 - k^2); a constant-angle
("Gutkin") table takes rho = a0 + an cos(n (phi - theta)) and its angle
delta from the mpmath roots in ``oracles.gutkin_roots``.  Ellipsoid specs
are a seeded rotation of a diagonal matrix.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from oracles import gutkin_roots, support_derivs


@dataclass(frozen=True)
class Table:
    """Supporting function h = a0 + sum_k (cos_k[k-1] cos k phi + sin_k[k-1] sin k phi)."""

    name: str
    a0: float
    cos_k: np.ndarray
    sin_k: np.ndarray
    n: int | None = None
    delta: float | None = None

    def to_json(self) -> str:
        harmonics = [{"k": k + 1, "cos": float(c), "sin": float(s)}
                     for k, (c, s) in enumerate(zip(self.cos_k, self.sin_k))
                     if c != 0.0 or s != 0.0]
        gutkin = None if self.n is None else {"n": self.n, "delta": self.delta}
        return json.dumps({"a0": self.a0, "harmonics": harmonics, "gutkin": gutkin})

    def derivs(self, psi):
        return support_derivs(self.a0, self.cos_k, self.sin_k, psi)


def _from_radius(name, a0, rho_cos, rho_sin, n=None, delta=None) -> Table:
    k = np.arange(1, rho_cos.size + 1, dtype=float)
    factor = np.zeros_like(k)
    factor[1:] = 1.0 / (1.0 - k[1:] ** 2)
    return Table(name, float(a0), factor * rho_cos, factor * rho_sin, n, delta)


def gutkin_table(rng: np.random.Generator, name: str, n: int,
                 max_delta: float = 1.35) -> Table:
    """rho = a0 + an cos(n (phi - theta)) at a seeded root delta <= max_delta."""
    a0 = rng.uniform(0.8, 1.6)
    an = a0 * rng.uniform(0.03, 0.25) * rng.choice([-1.0, 1.0])
    theta = rng.uniform(0.0, 2 * math.pi / n)
    roots = [r for r in gutkin_roots(n) if r <= max_delta]
    delta = roots[int(rng.integers(len(roots)))]
    rho_cos = np.zeros(n)
    rho_sin = np.zeros(n)
    rho_cos[n - 1] = an * math.cos(n * theta)
    rho_sin[n - 1] = an * math.sin(n * theta)
    return _from_radius(name, a0, rho_cos, rho_sin, n, delta)


def convex_table(rng: np.random.Generator, name: str, degree: int) -> Table:
    """Harmonics 2..degree of rho with total amplitude below a0/4, so rho > 0."""
    a0 = rng.uniform(0.8, 1.6)
    k = np.arange(1, degree + 1, dtype=float)
    rho_cos = rng.normal(size=degree) / k ** 1.5
    rho_sin = rng.normal(size=degree) / k ** 1.5
    rho_cos[0] = rho_sin[0] = 0.0
    rho_cos[-1] = math.copysign(max(abs(rho_cos[-1]), 0.5 / degree ** 1.5), rho_cos[-1])
    scale = a0 * rng.uniform(0.1, 0.25) / np.sum(np.abs(rho_cos) + np.abs(rho_sin))
    return _from_radius(name, a0, scale * rho_cos, scale * rho_sin)


def circle_table(rng: np.random.Generator, name: str) -> Table:
    return Table(name, float(rng.uniform(0.5, 2.0)), np.zeros(0), np.zeros(0))


def departure_line(table: Table, psi, alpha):
    """Line (p, phi) leaving the boundary point with normal angle psi at angle alpha."""
    h, hp, _ = table.derivs(psi)
    return h * np.cos(alpha) + hp * np.sin(alpha), np.mod(psi + alpha, 2 * math.pi)


def ellipsoid_spec(rng: np.random.Generator, d: int) -> np.ndarray:
    """A = Q diag(axes^2) Q^T, symmetric to the last bit."""
    axes = rng.uniform(0.6, 1.8, size=d)
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    A = q @ np.diag(axes ** 2) @ q.T
    return 0.5 * (A + A.T)


def spec_json(A: np.ndarray) -> str:
    return json.dumps({"d": int(A.shape[0]), "A": [float(x) for x in A.ravel()]})


def unit_pairs(rng: np.random.Generator, d: int, count: int, min_gap: float = 0.3):
    """Pairs of unit vectors in R^d at least min_gap apart."""
    pairs = []
    while len(pairs) < count:
        n1, n2 = rng.normal(size=(2, d))
        n1 /= np.linalg.norm(n1)
        n2 /= np.linalg.norm(n2)
        if np.linalg.norm(n1 - n2) >= min_gap:
            pairs.append((n1, n2))
    return pairs
