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


@dataclass(frozen=True)
class SupportCurve:
    """Planar convex body given by its supporting function h.

    The harmonics of h are cached as complex coefficients: column j of
    ``_coeffs`` holds (i k)^j (a_k - i b_k), so that the j-th derivative of
    h - h_0 is Re sum_k _coeffs[k, j] e^{i k phi}.  ``h_bound`` is
    |h_0| + sum_k (1 + k) |a_k - i b_k|, at least |h| + |h'| at every
    angle; scaling h by a power of two scales it exactly.
    """

    h: TrigPolynomial
    rho_min: float = field(init=False)
    h_bound: float = field(init=False, repr=False, compare=False)
    _ik: np.ndarray = field(init=False, repr=False, compare=False)
    _coeffs: np.ndarray = field(init=False, repr=False, compare=False)
    # h_0 as a 0-d array, a faster numpy operand than a float
    _h0: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        k = np.arange(1, self.h.cos_coeffs.size + 1, dtype=float)
        c = self.h.cos_coeffs - 1j * self.h.sin_coeffs
        object.__setattr__(self, "_ik", 1j * k)
        object.__setattr__(self, "_h0", np.array(self.h.constant, dtype=float))
        # on a table near the float range a derivative column or the width
        # overflows; _convex refuses such a table
        with np.errstate(over="ignore", invalid="ignore"):
            object.__setattr__(self, "_coeffs",
                               np.stack([c, 1j * k * c, -k * k * c, -1j * k ** 3 * c], axis=1))
            object.__setattr__(self, "h_bound",
                               abs(self.h.constant) + float(np.add.reduce((k + 1.0) * np.abs(c))))
        # support_grid never aliases; past CONVEXITY_GRID the grid grows to 2K + 2
        # samples so that it resolves the degree-K radius.  On a table near the
        # float range the spectrum overflows, and rho_min reads inf or NaN
        with np.errstate(over="ignore", invalid="ignore"):
            rho = support_grid(self, max(CONVEXITY_GRID, 2 * k.size + 2), lambda k: 1 - k * k)
        object.__setattr__(self, "rho_min", float(rho.min()))


def circle(radius: float = 1.0) -> SupportCurve:
    return SupportCurve(TrigPolynomial(radius))


def eval_support(curve: SupportCurve, phi) -> tuple:
    """(h, h', h'', h''') at phi, a scalar or an array, from one table of
    e^{i k phi}: the one evaluator of h at arbitrary angles.

    Each value depends only on its own phi, so a point gets the same bits
    whatever array it is evaluated in.
    """
    phi = np.asarray(phi, dtype=float)
    waves = np.exp(phi[..., None] * curve._ik)
    h, hp, hpp, hppp = np.einsum("...k,kj->j...", waves, curve._coeffs).real
    h = h + curve._h0
    if phi.ndim == 0:
        return float(h), float(hp), float(hpp), float(hppp)
    return h, hp, hpp, hppp


def support_grid(curve: SupportCurve, size: int, *symbols) -> np.ndarray:
    """L h at the angles 2 pi j / size, j = 0..size-1, one row per Fourier
    multiplier L, each given as its symbol s(k) over the harmonic numbers
    k = 0..K as floats: 1 gives h, 1j * k gives h', -k * k gives h'' and
    1 - k * k the curvature radius h'' + h.  Shape (len(symbols), size).

    The samples of support_grid_scaled at the scale 2^-e of the table's
    width 2 h_bound = f 2^e, 1/2 <= f < 1, scaled back by 2^e: no spectrum
    overflows unless the width does (frexp leaves an infinite width
    unscaled, e = 0), no sample unless it exceeds the float range itself,
    and scaling h by a power of two scales every sample exactly.
    """
    e = _width_exponent(curve)
    return np.ldexp(support_grid_scaled(curve, size, e, *symbols), e)


def support_grid_scaled(curve: SupportCurve, size: int, e: int, *symbols,
                        low: int = 0) -> np.ndarray:
    """The samples of support_grid times 2^-e, from harmonics low..K only.

    One inverse real FFT over all rows: the one home of uniform-grid samples
    of h.  It runs on the least multiple of size above 2K and keeps every
    m-th sample, so no harmonic aliases, whatever the size.  A row's
    spectrum is the exact factor (n/2) s(k) times a_k - i b_k (2 h_0 for
    the constant), rounded once, from the coefficients scaled by 2^-e; the
    harmonics below low are never scaled, so they cannot overflow.
    """
    degree = curve._ik.size
    n = size * (2 * degree // size + 1)
    k = np.arange(low, degree + 1.0)
    c = np.concatenate(([2.0 * curve.h.constant], curve._coeffs[:, 0]))[low:]
    c = np.ldexp(c.view(float), -e).view(complex)
    spectrum = np.zeros((len(symbols), n // 2 + 1), dtype=complex)
    for row, symbol in zip(spectrum, symbols):
        row[low:degree + 1] = 0.5 * n * symbol(k) * c
    return np.fft.irfft(spectrum, n)[:, ::n // size]


def _width_exponent(curve: SupportCurve) -> int:
    """e with 2 h_bound = f 2^e, 1/2 <= f < 1: the scale of the table's
    width (frexp leaves an infinite width unscaled, e = 0)."""
    return math.frexp(2.0 * curve.h_bound)[1]


def curvature_radius(curve: SupportCurve, phi):
    h, _, hpp, _ = eval_support(curve, phi)
    return hpp + h


def boundary_point(curve: SupportCurve, phi):
    """Boundary point whose outward normal has angle phi: x = h*e + h'*e_perp."""
    h, hp, _, _ = eval_support(curve, phi)
    c, s = np.cos(phi), np.sin(phi)
    return np.stack([h * c - hp * s, h * s + hp * c], axis=-1)


def _convex(curve: SupportCurve) -> SupportCurve:
    """curve, unless its width 2 h_bound overflows the float range, which
    every sample of it would need, or one of its derivative columns (i k)^j
    c_k does, which eval_support would need (OverflowError), or its least
    curvature radius is not positive (NonConvex)."""
    if not math.isfinite(2.0 * curve.h_bound):
        raise OverflowError("the table's width 2 h_bound overflows the float range")
    if not np.isfinite(curve._coeffs).all():
        raise OverflowError("the table's derivative columns (i k)^j c_k overflow "
                            "the float range")
    if not curve.rho_min > 0:
        raise NonConvex(f"min curvature radius {curve.rho_min:g} is not positive")
    return curve


def support_from_radius(rho: TrigPolynomial) -> SupportCurve:
    """Invert h'' + h = rho harmonic by harmonic: h_k = rho_k / (1 - k^2).

    The first harmonic of rho must vanish (closure), to CLOSURE_TOL times
    the mean curvature radius; the first harmonic of h is set to zero,
    pinning the Steiner point at the origin.
    """
    a1, b1 = (rho.cos_coeffs[0], rho.sin_coeffs[0]) if rho.cos_coeffs.size else (0.0, 0.0)
    if max(abs(a1), abs(b1)) > CLOSURE_TOL * abs(rho.constant):
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
    root there, where the phase function u(d) = n d - j pi - arctan(n tan d)
    vanishes.  u increases, with u' = n (n^2-1) sin^2 d / (1 + (n^2-1) sin^2 d),
    and u < 0 at the branch centre j pi/n, so the root lies in
    [j pi/n, (2j+1) pi/2n).  Newton on u runs on all branches in lock-step
    from their centres.  A point freezes once its Newton step is at most one
    ulp; only then is a step that leaves the bracket, narrowed by the sign of
    u, replaced by the bracket's midpoint, so a point one ulp from the root
    whose step rounds onto a bracket end stops there.  Newton takes at most 7
    passes for n = 4..1000.  Last, the sign of g is bisected down to adjacent
    floats on [x - 8 ulp, x + 8 ulp] around each Newton root.  The result is
    bit-identical to bisecting g over the whole branch for n = 4..200; for
    n <= 500 it differs only at n = 329, j = 1, by 2 ulps, both values
    within 2 ulps of the 40-digit sign change.  The branch j = 0 holds only
    the trivial root 0.
    """
    if not isinstance(n, (int, np.integer)) or n < 4:
        raise InvalidHarmonic(f"need integer n >= 4, got {n!r}")
    j = np.arange(1, n // 2)
    lo = j * (math.pi / n)
    hi = (2 * j + 1) * (math.pi / (2 * n))
    x, live, m = lo, np.ones(j.size, dtype=bool), n * n - 1.0
    while live.any():
        u = n * x - j * math.pi - np.arctan(n * np.tan(x))
        s2 = np.sin(x) ** 2
        x_new = x - u * (1.0 + m * s2) / (n * m * s2)
        live &= np.abs(x_new - x) > np.spacing(x)
        lo = np.where(u < 0, x, lo)
        hi = np.where(u > 0, x, hi)
        inside = (lo < x_new) & (x_new < hi)
        x = np.where(live, np.where(inside, x_new, 0.5 * (lo + hi)), x)
    lo, hi = x - 8 * np.spacing(x), x + 8 * np.spacing(x)
    while True:
        mid = 0.5 * (lo + hi)
        live = (lo < mid) & (mid < hi)
        if not live.any():
            return [float(d) for d in mid]
        above = np.tan(n * mid) > n * np.tan(mid)
        hi = np.where(live & above, mid, hi)
        lo = np.where(live & ~above, mid, lo)


def build_gutkin_table(n: int, root_index: int, a0: float,
                       an: float) -> tuple[SupportCurve, dict]:
    """Table with curvature radius a0 + an*cos(n*phi) at the chosen root, as
    the (curve, {"n": n, "delta": delta}) pair that load_table returns."""
    if not (math.isfinite(a0) and math.isfinite(an)):
        raise ValueError(f"a0 and an must be finite, got a0={a0}, an={an}")
    if not (a0 > abs(an) > 0):
        raise NonConvex(f"need a0 > |an| > 0, got a0={a0}, an={an}")
    roots = solve_gutkin_angles(n)
    if not 0 <= root_index < len(roots):
        raise ValueError(f"root_index {root_index} out of range for n={n} "
                         f"({len(roots)} roots)")
    cos_coeffs = np.zeros(n)
    cos_coeffs[n - 1] = an
    curve = support_from_radius(TrigPolynomial(a0, cos_coeffs, np.zeros(n)))
    return curve, {"n": n, "delta": roots[root_index]}


def check_constant_width(curve: SupportCurve):
    """Is the width h(phi) + h(phi+pi) constant?  Returns (is_constant, width).
    The width is 2 a0 plus twice the even harmonics of h, so it is constant
    when every even-harmonic amplitude is at most WIDTH_TOL a0."""
    h = curve.h
    even = np.hypot(h.cos_coeffs[1::2], h.sin_coeffs[1::2])
    return bool((even <= WIDTH_TOL * h.constant).all()), 2.0 * h.constant


# --- table JSON interchange ---------------------------------------------


def table_to_dict(curve: SupportCurve, gutkin: dict | None = None) -> dict:
    """The document of a curve and its 'gutkin' metadata, as table_from_dict returns it."""
    h = curve.h
    harmonics = [
        {"k": k, "cos": float(h.cos_coeffs[k - 1]), "sin": float(h.sin_coeffs[k - 1])}
        for k in range(1, h.cos_coeffs.size + 1)
        if h.cos_coeffs[k - 1] != 0.0 or h.sin_coeffs[k - 1] != 0.0
    ]
    return {"a0": float(h.constant), "harmonics": harmonics,
            "gutkin": _gutkin_metadata(gutkin)}


def _number(value, key: str) -> float:
    """A JSON number as a float; anything else, a bool too, raises ValueError
    naming key.  An integer beyond the float range reads as inf."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{key} must be a number, got {value!r}")
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
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise ValueError(f"table gutkin 'n' must be an integer, got {n!r}")
    delta = _number(meta["delta"], "table gutkin 'delta'")
    if not math.isfinite(delta):
        raise ValueError(f"table gutkin 'delta' must be finite, got {meta['delta']!r}")
    return {"n": int(n), "delta": delta}


def table_from_dict(doc: dict) -> tuple[SupportCurve, dict | None]:
    """Inverse of table_to_dict: the curve and the 'gutkin' metadata, with
    delta as a float.  A malformed document raises ValueError naming the key
    at fault: 'a0' must be a number, each harmonic's 'k' an integer >= 1
    given once, its 'cos' and 'sin' (default 0) numbers, and every
    coefficient finite.  A non-convex table (rho_min <= 0) raises NonConvex."""
    if not isinstance(doc, dict) or "a0" not in doc:
        raise ValueError("table needs the key 'a0'")
    a0 = _number(doc["a0"], "table 'a0'")
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
        coeffs[k] = (_number(e.get("cos", 0.0), f"table harmonic {k} 'cos'"),
                     _number(e.get("sin", 0.0), f"table harmonic {k} 'sin'"))
    a = np.zeros(max(coeffs, default=0))
    b = np.zeros(a.size)
    for k, (c, s) in coeffs.items():
        a[k - 1], b[k - 1] = c, s
    if not np.isfinite([a0, *a, *b]).all():
        raise ValueError("table coefficients must be finite")
    return _convex(SupportCurve(TrigPolynomial(a0, a, b))), meta


def save_table(path, curve: SupportCurve, gutkin: dict | None = None):
    """Write table_to_dict(curve, gutkin), built first so bad metadata writes nothing."""
    text = json.dumps(table_to_dict(curve, gutkin), indent=2) + "\n"
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def _read_json(path, what: str):
    """The JSON document in the file at path, for the table and spec loaders;
    a file that is not UTF-8 JSON raises ValueError naming ``what`` and the
    path."""
    with open(path, encoding="utf-8") as f:
        try:
            return json.load(f)
        except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError both
            raise ValueError(f"{what} {path} is not UTF-8 JSON: {exc}") from None


def load_table(path) -> tuple[SupportCurve, dict | None]:
    return table_from_dict(_read_json(path, "table"))
