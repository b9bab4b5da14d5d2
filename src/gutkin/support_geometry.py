"""Planar convex bodies via supporting functions and constant-angle tables.

A convex body is encoded by its supporting function h(phi), a trigonometric
polynomial in the outward-normal angle phi.  The curvature radius is
rho = h'' + h; strict convexity means rho > 0 everywhere.  Tables whose
curvature radius is a0 + an*cos(n*phi), with the angle delta solving
tan(n*delta) = n*tan(delta), admit a constant-angle invariant curve.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidHarmonic, NonClosedCurve, NonConvex

CONVEXITY_GRID = 4096
CLOSURE_TOL = 1e-12
WIDTH_TOL = 1e-12


@dataclass(frozen=True)
class TrigPolynomial:
    """Finite Fourier series c + sum_k (a_k cos k*phi + b_k sin k*phi)."""

    constant: float = 0.0
    cos_coeffs: np.ndarray = field(default_factory=lambda: np.zeros(0))
    sin_coeffs: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self):
        a = np.atleast_1d(np.asarray(self.cos_coeffs, dtype=float))
        b = np.atleast_1d(np.asarray(self.sin_coeffs, dtype=float))
        n = max(a.size, b.size)
        a = np.concatenate([a, np.zeros(n - a.size)])
        b = np.concatenate([b, np.zeros(n - b.size)])
        object.__setattr__(self, "cos_coeffs", a)
        object.__setattr__(self, "sin_coeffs", b)


def _radius_samples(h: TrigPolynomial) -> np.ndarray:
    """rho = h'' + h at the CONVEXITY_GRID angles 2 pi j / N, by one inverse FFT.

    The grid grows past CONVEXITY_GRID only when the degree would alias on it.
    """
    k = np.arange(1, h.cos_coeffs.size + 1)
    size = max(CONVEXITY_GRID, 2 * k.size + 2)
    spectrum = np.zeros(size // 2 + 1, dtype=complex)
    spectrum[0] = size * h.constant
    spectrum[1:k.size + 1] = 0.5 * size * (1 - k * k) * (h.cos_coeffs - 1j * h.sin_coeffs)
    return np.fft.irfft(spectrum, size)


@dataclass(frozen=True)
class SupportCurve:
    """Planar convex body given by its supporting function h.

    The harmonics of h are cached as complex coefficients: column j of
    ``_coeffs`` holds (i k)^j (a_k - i b_k), so that the j-th derivative of
    h - h_0 is Re sum_k _coeffs[k, j] e^{i k phi}.
    """

    h: TrigPolynomial
    rho_min: float = field(init=False)
    _k: np.ndarray = field(init=False, repr=False, compare=False)
    _coeffs: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        k = np.arange(1, self.h.cos_coeffs.size + 1, dtype=float)
        c = self.h.cos_coeffs - 1j * self.h.sin_coeffs
        object.__setattr__(self, "_k", k)
        object.__setattr__(self, "_coeffs",
                           np.stack([c, 1j * k * c, -k * k * c, -1j * k ** 3 * c], axis=1))
        object.__setattr__(self, "rho_min", float(_radius_samples(self.h).min()))


@dataclass(frozen=True)
class GutkinTable:
    """Constant-angle table with rho = a0 + an*cos(n*phi)."""

    curve: SupportCurve
    n: int
    delta: float
    a0: float
    an: float


def circle(radius: float = 1.0) -> SupportCurve:
    return SupportCurve(TrigPolynomial(radius))


def eval_support(curve: SupportCurve, phi) -> tuple:
    """(h, h', h'', h''') at phi, a scalar or an array, from one table of
    e^{i k phi}: the one evaluator of h at given angles.

    Each value depends only on its own phi, so a point gets the same bits
    whatever array it is evaluated in.
    """
    phi = np.asarray(phi, dtype=float)
    waves = np.exp(1j * np.multiply.outer(phi, curve._k))
    h, hp, hpp, hppp = np.einsum("...k,kj->j...", waves, curve._coeffs).real
    h = h + curve.h.constant
    if phi.ndim == 0:
        return float(h), float(hp), float(hpp), float(hppp)
    return h, hp, hpp, hppp


def curvature_radius(curve: SupportCurve, phi):
    h, _, hpp, _ = eval_support(curve, phi)
    return hpp + h


def boundary_point(curve: SupportCurve, phi):
    """Boundary point whose outward normal has angle phi: x = h*e + h'*e_perp."""
    h, hp, _, _ = eval_support(curve, phi)
    c, s = np.cos(phi), np.sin(phi)
    return np.stack([h * c - hp * s, h * s + hp * c], axis=-1)


def _convex(curve: SupportCurve) -> SupportCurve:
    if curve.rho_min <= 0:
        raise NonConvex(f"min curvature radius {curve.rho_min:g} <= 0")
    return curve


def support_from_radius(rho: TrigPolynomial) -> SupportCurve:
    """Invert h'' + h = rho harmonic by harmonic: h_k = rho_k / (1 - k^2).

    The first harmonic of rho must vanish (closure of the boundary); the
    first harmonic of h is set to zero, pinning the Steiner point at the
    origin.
    """
    a1, b1 = (rho.cos_coeffs[0], rho.sin_coeffs[0]) if rho.cos_coeffs.size else (0.0, 0.0)
    if abs(a1) > CLOSURE_TOL or abs(b1) > CLOSURE_TOL:
        raise NonClosedCurve(
            f"first harmonic of curvature radius is ({a1:g}, {b1:g})")
    k = np.arange(1, rho.cos_coeffs.size + 1)
    denom = 1.0 - k.astype(float) ** 2
    denom[k == 1] = 1.0
    factor = 1.0 / denom
    factor[k == 1] = 0.0  # Steiner normalization
    h = TrigPolynomial(rho.constant, factor * rho.cos_coeffs,
                       factor * rho.sin_coeffs)
    return _convex(SupportCurve(h))


def solve_gutkin_angles(n: int) -> list[float]:
    """All nonzero roots of tan(n*delta) = n*tan(delta) in (0, pi/2), ascending.

    g(d) = tan(n d) - n tan(d) runs from -inf to +inf on each branch
    ((2j-1) pi/2n, (2j+1) pi/2n) of tan(n d), j = 1..floor(n/2)-1, and has one
    root there; all branches are bisected together down to adjacent floats.
    These branches lie below pi/2; the branch j = 0 holds only the trivial
    root 0.
    """
    if not isinstance(n, (int, np.integer)) or n < 4:
        raise InvalidHarmonic(f"need integer n >= 4, got {n!r}")
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


def build_gutkin_table(n: int, root_index: int, a0: float, an: float) -> GutkinTable:
    """Table with curvature radius a0 + an*cos(n*phi) at the chosen root."""
    if not (math.isfinite(a0) and math.isfinite(an)):
        raise ValueError(f"a0 and an must be finite, got a0={a0}, an={an}")
    if not (a0 > abs(an) > 0):
        raise NonConvex(f"need a0 > |an| > 0, got a0={a0}, an={an}")
    roots = solve_gutkin_angles(n)
    if not 0 <= root_index < len(roots):
        raise IndexError(f"root_index {root_index} out of range for n={n} "
                         f"({len(roots)} roots)")
    cos_coeffs = np.zeros(n)
    cos_coeffs[n - 1] = an
    curve = support_from_radius(TrigPolynomial(a0, cos_coeffs, np.zeros(n)))
    return GutkinTable(curve=curve, n=n, delta=roots[root_index], a0=a0, an=an)


def check_constant_width(curve: SupportCurve):
    """Is h(phi) + h(phi+pi) constant?  Returns (is_constant, mean width)."""
    grid = np.linspace(0.0, 2 * np.pi, CONVEXITY_GRID, endpoint=False)
    h, _, _, _ = eval_support(curve, np.stack((grid, grid + np.pi)))
    width = h[0] + h[1]
    mean = float(width.mean())
    return bool(np.max(np.abs(width - mean)) < WIDTH_TOL), mean


# --- table JSON interchange ---------------------------------------------


def table_to_dict(curve: SupportCurve, gutkin: GutkinTable | None = None) -> dict:
    h = curve.h
    harmonics = [
        {"k": k, "cos": float(h.cos_coeffs[k - 1]), "sin": float(h.sin_coeffs[k - 1])}
        for k in range(1, h.cos_coeffs.size + 1)
        if h.cos_coeffs[k - 1] != 0.0 or h.sin_coeffs[k - 1] != 0.0
    ]
    doc = {"a0": float(h.constant), "harmonics": harmonics, "gutkin": None}
    if gutkin is not None:
        doc["gutkin"] = {"n": int(gutkin.n), "delta": float(gutkin.delta)}
    return doc


def _number(value, key: str) -> float:
    """A JSON number as a float; anything else, a bool too, raises ValueError
    naming key.  An integer beyond the float range reads as inf."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"table {key} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf


def _gutkin_metadata(meta) -> dict | None:
    """The table's 'gutkin' entry: null, or {"n": integer, "delta": finite number}."""
    if meta is None:
        return None
    if not isinstance(meta, dict) or not {"n", "delta"} <= meta.keys():
        raise ValueError("table 'gutkin' must be null or an object with the keys "
                         f"'n' and 'delta', got {meta!r}")
    n = meta["n"]
    if isinstance(n, bool) or not isinstance(n, int):
        raise ValueError(f"table gutkin 'n' must be an integer, got {n!r}")
    delta = _number(meta["delta"], "gutkin 'delta'")
    if not math.isfinite(delta):
        raise ValueError(f"table gutkin 'delta' must be finite, got {meta['delta']!r}")
    return {"n": n, "delta": delta}


def table_from_dict(doc: dict) -> tuple[SupportCurve, dict | None]:
    """Inverse of table_to_dict: the curve and the 'gutkin' metadata, with
    delta as a float.  A malformed document raises ValueError naming the key
    at fault: 'a0' must be a number, each harmonic's 'k' an integer >= 1
    given once, its 'cos' and 'sin' (default 0) numbers, and every
    coefficient finite.  A non-convex table (rho_min <= 0) raises NonConvex."""
    if not isinstance(doc, dict) or "a0" not in doc:
        raise ValueError("table needs the key 'a0'")
    a0 = _number(doc["a0"], "'a0'")
    meta = _gutkin_metadata(doc.get("gutkin"))
    harmonics = doc.get("harmonics", [])
    if not isinstance(harmonics, list) or not all(isinstance(e, dict) and "k" in e
                                                  for e in harmonics):
        raise ValueError("table 'harmonics' must be a list of objects with the key 'k'")
    coeffs = {}
    for e in harmonics:
        k = e["k"]
        if isinstance(k, bool) or not isinstance(k, int) or k < 1:
            raise ValueError(f"table harmonic 'k' must be an integer >= 1, got {k!r}")
        if k in coeffs:
            raise ValueError(f"table harmonic k = {k} is given more than once")
        coeffs[k] = (_number(e.get("cos", 0.0), f"harmonic {k} 'cos'"),
                     _number(e.get("sin", 0.0), f"harmonic {k} 'sin'"))
    a = np.zeros(max(coeffs, default=0))
    b = np.zeros(a.size)
    for k, (c, s) in coeffs.items():
        a[k - 1], b[k - 1] = c, s
    if not np.isfinite([a0, *a, *b]).all():
        raise ValueError("table coefficients must be finite")
    return _convex(SupportCurve(TrigPolynomial(a0, a, b))), meta


def save_table(path, curve: SupportCurve, gutkin: GutkinTable | None = None):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(table_to_dict(curve, gutkin), f, indent=2)
        f.write("\n")


def load_table(path) -> tuple[SupportCurve, dict | None]:
    with open(path, encoding="utf-8") as f:
        return table_from_dict(json.load(f))
