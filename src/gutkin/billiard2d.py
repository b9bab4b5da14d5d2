"""Planar Birkhoff billiard map in oriented-line coordinates (p, phi).

A line is stored as its normal angle phi and signed distance p; it meets
the table iff -h(phi+pi) < p < h(phi).  Its chord ends where

    f(psi) = <x(psi), e_phi> - p = h cos(psi-phi) - h' sin(psi-phi) - p

vanishes, x(psi) being the boundary point with outward normal angle psi.
Since f'(psi) = rho(psi) sin(phi - psi), f decreases on [phi, phi+pi],
which holds the forward endpoint, from h(phi) - p to -h(phi+pi) - p.  The
backward endpoint is the forward endpoint of the reversed line
(-p, phi+pi), so one solver finds both.  It takes Halley steps, which need
f'' and so h''', inside the exact bracket, falling back to bisection when a
step would leave the bracket or stalls.  A line that a bounce returns
carries the boundary point it leaves, which is its backward endpoint; its
solve needs neither bracket values nor a backward solve, and starts the
forward endpoint at that point's mirror image across phi.  The departure
lines of verify_constant_angle carry their departure points the same way.

The map has two readings: geometric (locate the chord, reflect across
the tangent, which sends the normal angle phi to 2 psi_fwd - phi) and
variational, through the generating function

    S(phi1, phi2) = 2 h((phi1+phi2)/2) sin((phi2-phi1)/2),

whose mixed derivative S12 = rho(mid)*sin(alpha)/2 > 0 is the twist.  The
next line solves p1 = -dS/dphi1, whose residual p1 + S1 is -f at psi =
mid = phi1 + alpha, so one chord solve serves both maps.  The variational
map reads its forward end in phi2 = 2 psi - phi, with p2 =
h cos(psi-phi) + h' sin(psi-phi) = S2, and both maps refuse a line by one
rule: the lesser incidence of its two chord ends below MIN_CHORD_ANGLE.
The maps agree bit for bit on every line, so their agreement checks
nothing; the independent oracles are the 50-digit mpmath roots of
TestMpmathOracle, the benchmark's bisection, oracles.planar_bounce, and
the generating relation p1 = -S1, p2 = S2 of acceptance criterion 3.
orbits is the one batched entry of the map; one bounce is steps = 1.
The strip functional integral of (S11+2*S12+S22) against the invariant
measure S12 dphi1 dphi2 collapses, after reduction, to a weighted sum of
squares of Fourier coefficients of h; both routes are provided.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (MIN_CHORD_ANGLE, ConvergenceFailure, DegenerateChord,
                     NoIntersection, TangentLine)
from .support_geometry import SupportCurve, eval_support, support_grid, support_grid_scaled

TWO_PI = 2 * math.pi
PSI_TOL = 1e-14
NEWTON_CAP = 100
# a residual below NOISE_REL (h_bound + |p|) is at its rounding floor: the
# size of its terms h cos b, h' sin b and p is at most h_bound + |p|
NOISE_REL = 2 * np.finfo(float).eps

# numeric literals of the solvers' loops as 0-d arrays: on arrays of one or
# two lines, numpy takes about twice as long with a float operand
_ZERO, _HALF, _ONE, _PI, _TWO_PI = (np.array(x) for x in (0.0, 0.5, 1.0, math.pi, TWO_PI))
_MINUS_ONE = np.array(-1.0)

# per-line status of a batched solve; each failure maps to the error the
# scalar wrappers raise
SOLVED, MISSES, NEAR_TANGENT, NOT_CONVERGED = range(4)


@dataclass(frozen=True)
class OrientedLine2D:
    """A line (p, phi).  A line that a bounce returns also carries ``source``,
    the Gauss parameter of the boundary point it leaves, from which the next
    solve starts; a line built by a caller has none, and ``source`` takes no
    part in equality."""

    p: float
    phi: float
    source: float | None = field(default=None, init=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "phi", _mod_two_pi(float(self.phi)))
        object.__setattr__(self, "p", float(self.p))


class Chords(NamedTuple):
    """Chords of a batch of lines, one entry per line; valid where status == SOLVED.

    Endpoints are Gauss parameters in [0, 2*pi); the incidence angle at an
    endpoint psi is the angle between the line and the tangent there,
    min(b, pi - b) for b = psi - phi reduced mod pi.  Incidence at least
    MIN_CHORD_ANGLE puts both ends strictly inside their disjoint brackets,
    so a SOLVED chord has positive length on a table of any size.
    """

    psi_back: np.ndarray
    psi_fwd: np.ndarray
    angle_back: np.ndarray
    angle_fwd: np.ndarray
    status: np.ndarray


@dataclass(frozen=True)
class Strip:
    """Angle strip 0 < delta1 < delta2 <= pi/2 on the phase cylinder."""

    delta1: float
    delta2: float

    def __post_init__(self):
        if not 0 < self.delta1 < self.delta2 <= math.pi / 2 + 1e-15:
            raise ValueError(f"need 0 < delta1 < delta2 <= pi/2, "
                             f"got ({self.delta1}, {self.delta2})")


def _raise_first_failure(chords: Chords, p, phi, bounces=False):
    """Raise the error of the first line, in flat order, whose chord solve
    failed, naming the line (p, phi) and, unless it missed, its incidence:
    the lesser of its two chord ends.  p, phi and every field of ``chords``
    are in one order; with ``bounces`` their entries are the bounces of one
    orbit, and the message also names the bounce."""
    if not np.count_nonzero(chords.status):  # SOLVED is 0
        return
    i = np.flatnonzero(chords.status)[0]
    status = np.ravel(chords.status)[i]
    line = OrientedLine2D(np.ravel(p)[i], np.ravel(phi)[i])
    at = f" at bounce {i}" if bounces else ""
    if status == MISSES:
        raise NoIntersection(f"line (p={line.p:g}, phi={line.phi:g}) misses the table{at}")
    incidence = min(np.ravel(chords.angle_back)[i], np.ravel(chords.angle_fwd)[i])
    failure = f"line (p={line.p:g}, phi={line.phi:g}), incidence {incidence:g}{at}"
    if status == NEAR_TANGENT:
        raise TangentLine(f"near-tangent chord: {failure}")
    if status == NOT_CONVERGED:
        raise ConvergenceFailure(f"safeguarded Newton did not converge: {failure}")


def generating_function(curve: SupportCurve, phi1, phi2):
    """S and its second derivatives (S, S11, S12, S22) at (phi1, phi2), scalars
    or equal-shape arrays; a pair gets the same bits in any array.  Raises
    DegenerateChord unless every phi2 - phi1 lies in (0, 2*pi)."""
    phi1, phi2 = np.asarray(phi1, dtype=float), np.asarray(phi2, dtype=float)
    d = phi2 - phi1
    bad = ~((0.0 < d) & (d < TWO_PI))
    if bad.any():
        raise DegenerateChord(f"phi2 - phi1 = {np.extract(bad, d)[0]:g} outside (0, 2*pi)")
    h, hp, hpp, _ = eval_support(curve, 0.5 * (phi1 + phi2))
    sa, ca = np.sin(0.5 * d), np.cos(0.5 * d)
    even = 0.5 * (hpp - h) * sa
    return 2.0 * h * sa, even - hp * ca, 0.5 * (hpp + h) * sa, even + hp * ca


def _mod_two_pi(phi):
    """phi, a float or an array, reduced to [0, 2*pi); a float stays a
    float.  The mod of a tiny negative angle rounds up to exactly 2*pi,
    which is moved to 0; NaN stays NaN."""
    two_pi = _TWO_PI if isinstance(phi, np.ndarray) else TWO_PI
    phi = phi % two_pi
    return phi - (phi == two_pi) * two_pi


def _lines(p, phi):
    """Lines as flat float arrays, phi reduced to [0, 2*pi)."""
    return _flat(p), _mod_two_pi(_flat(phi))


def _flat(x):
    return np.asarray(x, dtype=float).ravel()


def _starts(curve: SupportCurve, p, phi, source):
    """The starting offset of the forward endpoint from phi, which the chord
    solve of both maps takes as is, and the lines that miss; exact when the
    table is a circle.

    Lines that leave the boundary points ``source`` start at the mirror image
    of the source across phi, offset (phi - source) mod 2 pi, with no
    evaluation; min(offset, pi - offset) is the incidence at the source, and
    a line misses only when its source is NaN.  Other lines take f at both
    bracket ends, (h(phi) - p, -h(phi+pi) - p), and fit the circle
    c + r cos(psi - phi) to them.
    """
    if source is not None:
        offset = np.mod(phi - source, _TWO_PI)
        return offset, np.isnan(offset)
    h, _, _, _ = eval_support(curve, np.concatenate((phi, phi + _PI)))
    f_lo, f_hi = h[:p.size] - p, -h[p.size:] - p
    misses = ~((f_lo > _ZERO) & (f_hi < _ZERO))
    with np.errstate(invalid="ignore", divide="ignore"):
        cos_start = np.minimum(np.maximum((f_lo + f_hi) / (f_hi - f_lo), _MINUS_ONE), _ONE)
    return np.arccos(np.where(misses, _ZERO, cos_start)), misses


def _newton(evaluate, lo, hi, x, done):
    """Root of a decreasing g with g(lo) > 0 > g(hi), elementwise over arrays.

    ``evaluate(x)`` returns (g, g', g'', noise, state): a point counts as
    solved when |g| is at its rounding floor ``noise``, a bound per line
    that the caller sets once per solve, or when its Newton step u = g/g'
    or its bracket is below PSI_TOL.  Each step is Halley's,
    u / (u g''/(2 g') - 1), which converges cubically; a step that would
    leave the bracket, or is longer than half the step before last, is
    replaced by bisection.  Points in ``done`` stay where they are, so their
    brackets need no upkeep.  Returns (x, state at x, solved); state is what
    the caller wants back.
    """
    lo, hi, done = np.array(lo), np.array(hi), np.array(done)
    tol = np.array(PSI_TOL)
    step_old = step = hi - lo
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        for _ in range(NEWTON_CAP):
            g, dg, ddg, noise, state = evaluate(x)
            u = g / dg
            done |= (np.abs(g) <= noise) | (np.fmin(np.abs(u), hi - lo) < tol)
            n_done = np.count_nonzero(done)
            if n_done == done.size:
                break
            right = g > _ZERO
            np.copyto(lo, x, where=right)
            np.copyto(hi, x, where=~right)
            dx = u / (_HALF * u * ddg / dg - _ONE)
            nxt = x + dx
            bisect = ~((lo < nxt) & (nxt < hi)) | (np.abs(dx) > _HALF * np.abs(step_old))
            if np.count_nonzero(bisect):
                np.copyto(nxt, _HALF * (lo + hi), where=bisect)
            if n_done:
                np.copyto(nxt, x, where=done)
            step_old, step = step, nxt - x
            x = nxt
    return x, state, done


def _solve_chords(curve: SupportCurve, p, phi, source=None):
    """The ``Chords`` of the lines (p, phi), and the lines (p2, phi2) that
    the mirror law reflects at the forward endpoints, valid where SOLVED: phi2 =
    2 psi_fwd - phi, and p2 = h cos(b) + h' sin(b), b = psi_fwd - phi, from
    the solver's last evaluation.  The one chord solve of both maps.  Lines
    given a ``source`` (see ``_starts``) take it as their backward endpoint
    and solve only the forward one."""
    p, phi = _lines(p, phi)
    n = p.size
    source = None if source is None else _flat(source)
    start, misses = _starts(curve, p, phi, source)
    done = misses
    if source is None:
        # the first n entries solve the forward endpoints in [phi, phi+pi]; the
        # last n the backward ones, as the forward endpoints of the reversed
        # lines (-p, phi+pi), whose bracket values are those of the lines
        # negated and swapped, so their start is pi - start.  One flat array
        # of 2n keeps every numpy call on the fast 1-d path.
        p, phi = np.concatenate((p, -p)), np.concatenate((phi, phi + _PI))
        start, done = np.concatenate((start, _PI - start)), np.concatenate((misses, misses))
    noise = NOISE_REL * (curve.h_bound + np.abs(p))

    def evaluate(psi):
        h, hp, hpp, hppp = eval_support(curve, psi)
        b = psi - phi
        cb, sb = np.cos(b), np.sin(b)
        rho = h + hpp
        nsb = -sb
        return (h * cb - hp * sb - p, rho * nsb, (hp + hppp) * nsb - rho * cb,
                noise, (h, hp, cb, sb))

    psi, (h, hp, cb, sb), solved = _newton(evaluate, phi, phi + _PI, phi + start, done)
    b = psi - phi
    angle = np.minimum(b, _PI - b)
    psi = np.mod(psi, _TWO_PI)
    psi_fwd, angle_fwd = psi[:n], angle[:n]
    if source is None:
        psi_back, angle_back, solved = psi[n:], angle[n:], solved[:n] & solved[n:]
    else:
        psi_back, angle_back = source, np.minimum(start, _PI - start)
    status = (np.minimum(angle_back, angle_fwd) < MIN_CHORD_ANGLE) * NEAR_TANGENT
    status[~solved] = NOT_CONVERGED
    status[misses] = MISSES
    return (Chords(psi_back, psi_fwd, angle_back, angle_fwd, status),
            (h * cb + hp * sb)[:n], _mod_two_pi(psi_fwd + psi_fwd - phi[:n]))


class _Bounce(Chords):
    """A one-line ``Chords`` that also holds ``outgoing``, the line reflected
    at its forward endpoint, from the same solve."""


def _bounce(curve: SupportCurve, line: OrientedLine2D) -> _Bounce:
    """The one-line path of both maps: the chord of ``line``, solved from the
    boundary point it leaves if a bounce returned it, and the line reflected
    at its forward endpoint, which leaves that endpoint.  Raises the error
    of a line that the chord solve refuses."""
    c, p2, phi2 = _solve_chords(curve, line.p, line.phi, line.source)
    _raise_first_failure(c, line.p, line.phi)
    chord = _Bounce(*c)
    chord.outgoing = OrientedLine2D(p2[0], phi2[0])
    object.__setattr__(chord.outgoing, "source", float(c.psi_fwd[0]))
    return chord


def chord_incidence_angles(curve: SupportCurve, line: OrientedLine2D) -> Chords:
    """The chord of one line and its incidence angles at both endpoints, as a
    one-line ``Chords``.  A line that a bounce returned is solved from the
    boundary point it leaves."""
    return _bounce(curve, line)


def reflect_geometric(curve: SupportCurve, line: OrientedLine2D):
    """One bounce by reflection at the forward endpoint; returns (next line, chord)."""
    chord = chord_incidence_angles(curve, line)
    return chord.outgoing, Chords(*chord)


def reflect_variational(curve: SupportCurve, line: OrientedLine2D) -> OrientedLine2D:
    """One bounce by solving p1 = -dS/dphi1 for phi2; twist makes it unique.
    It takes the one-line path of ``reflect_geometric``, whose solve is in
    mid = phi + alpha, the forward chord end, so the next line, which leaves
    mid, equals ``reflect_geometric``'s bit for bit, source included, and a
    line is refused by the same rule with the same message."""
    return _bounce(curve, line).outgoing


def constant_angle_line(curve: SupportCurve, delta: float, psi: float) -> OrientedLine2D:
    """Line leaving the boundary point x(psi) at angle delta with the tangent."""
    h, hp, _, _ = eval_support(curve, psi)
    return OrientedLine2D(h * math.cos(delta) + hp * math.sin(delta), psi + delta)


def verify_constant_angle(curve: SupportCurve, delta: float, grid_size: int = 360) -> float:
    """Max |arrival angle - delta| over a grid of constant-angle departures.

    Each line leaves x(psi) at angle delta and carries psi as its source, as
    a bounced line does: its backward end is x(psi) bit for bit, its
    departure incidence is its offset (phi - psi) mod 2 pi, and its forward
    end starts at psi + 2 delta, where invariance of the curve puts it.  On a
    constant-angle curve and on every circle that start is at the rounding
    floor, so the grid takes one boundary evaluation on grid_size lanes; off
    the curve, about 3, also on grid_size lanes.  The stop test resolves the
    forward end, and so the residual, to about
    2 eps (h_bound + |p|) / (rho_min sin delta).

    A delta below MIN_CHORD_ANGLE raises TangentLine before any line is
    built, since every chord at that incidence is refused.  At delta =
    MIN_CHORD_ANGLE a line is refused where psi + delta rounds down."""
    if not 0.0 < delta <= math.pi / 2:
        raise ValueError("delta must be in (0, pi/2]")
    if delta < MIN_CHORD_ANGLE:
        raise TangentLine(f"delta {delta:g} is below the incidence floor {MIN_CHORD_ANGLE:g}")
    if grid_size < 8:
        raise ValueError("grid_size must be >= 8")
    psi = np.linspace(0.0, TWO_PI, grid_size, endpoint=False)
    h, hp = support_grid(curve, grid_size, lambda k: 1, lambda k: 1j * k)
    p = h * math.cos(delta) + hp * math.sin(delta)
    c, _, _ = _solve_chords(curve, p, psi + delta, psi)
    _raise_first_failure(c, p, psi + delta)
    return float(np.max(np.abs(c.angle_fwd - delta)))


def orbits(curve: SupportCurve, p0, phi0, steps: int):
    """Iterate the geometric map on many lines in lock-step: the one batched
    entry of the map, whose one bounce is steps = 1.

    Returns (p, phi, chords): p and phi of shape (steps+1, lines), and the
    chord of every bounce as ``Chords`` fields of shape (steps, lines).  From
    the second bounce on, a line is solved from the boundary point it leaves,
    as ``reflect_geometric`` solves a line it returned.  A line whose chord
    solve fails carries NaN from then on, which later solves report as
    MISSES, so (chords.status == SOLVED).all(axis=0) marks the orbits that
    completed every bounce.
    """
    p, phi = _lines(p0, phi0)
    ps = np.empty((steps + 1, p.size))
    phis = np.empty_like(ps)
    ps[0], phis[0] = p, phi
    chords = Chords(*(np.empty((steps, p.size)) for _ in range(4)),
                    np.empty((steps, p.size), dtype=int))
    source = None
    for step in range(steps):
        c, p2, phi2 = _solve_chords(curve, ps[step], phis[step], source)
        for rows, value in zip(chords, c):
            rows[step] = value
        ps[step + 1], phis[step + 1], source = p2, phi2, c.psi_fwd
        if np.count_nonzero(c.status):  # SOLVED is 0; a failed line carries NaN
            failed = c.status != SOLVED
            for row in (ps[step + 1], phis[step + 1], source):
                row[failed] = np.nan
    return ps, phis, chords


def orbit(curve: SupportCurve, line0: OrientedLine2D, steps: int):
    """``orbits`` from one line, with the line axis dropped: p and phi of
    length steps+1 and chords of length steps.  Raises the error of the
    first bounce that failed, naming the bounce.  Like ``orbits``, it starts
    from (p, phi) alone: a source that line0 carries is not used."""
    ps, phis, chords = orbits(curve, line0.p, line0.phi, steps)
    chords = Chords._make(rows[:, 0] for rows in chords)
    _raise_first_failure(chords, ps[:-1], phis[:-1], bounces=True)
    return ps[:, 0], phis[:, 0], chords


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """32-point Gauss-Legendre nodes and weights on [-1, 1], built on first
    use: importing numpy.polynomial would add to every import of the module."""
    return np.polynomial.legendre.leggauss(32)


def rigidity_integral(curve: SupportCurve, strip: Strip) -> float:
    """Strip integral of (S11+2*S12+S22)*S12 in (phi, alpha) variables.

    The (phi1, phi2) -> (phi, alpha) change of variables carries Jacobian 2;
    the integrand reduces to 2*h''*(h''+h)*sin^2(alpha).  Gauss-Legendre in
    alpha, periodic trapezoid in phi on 2K + 1 points for a table of degree
    K, the fewest on which it integrates the degree-2K phi integrand
    exactly.  Harmonics 0 and 1 add exactly 0 to the integral, so they are
    left out of both factors: a circle, translated or not, gives 0, and a
    table near one keeps the bits of its small integral.  The phi sum runs
    on the samples at the scale 2^-e of harmonics 2..K (_harmonic_exponent),
    and the integral is scaled back by 2^(2e); one that overflows raises
    OverflowError.
    """
    nodes, weights = _gauss_legendre()
    a = 0.5 * (strip.delta2 - strip.delta1) * nodes + 0.5 * (strip.delta1 + strip.delta2)
    wa = 0.5 * (strip.delta2 - strip.delta1) * weights
    phi_points = 2 * curve.h.cos_coeffs.size + 1
    e = _harmonic_exponent(curve)
    hpp, rho = support_grid_scaled(curve, phi_points, e, lambda k: -k * k,
                                   lambda k: 1 - k * k, low=2)
    with np.errstate(over="ignore", invalid="ignore"):
        phi_part = float(np.sum(hpp * rho)) * (TWO_PI / phi_points)
    alpha_part = float(np.sum(np.sin(a) ** 2 * wa))
    return _finite_integral(2.0 * alpha_part * phi_part, e)


def _harmonic_exponent(curve: SupportCurve) -> int:
    """e with sum_{k>=2} (1 + k) |a_k - i b_k| = f 2^e, 1/2 <= f < 1 (e = 0
    for a circle, or where the sum overflows): the scale of the harmonics
    of the strip integral.  At it every term of the phi sums is at most K^2,
    and the largest one does not underflow, whatever the size of harmonics
    0 and 1."""
    k = curve._ik.imag[1:]
    with np.errstate(over="ignore"):
        bound = float(np.add.reduce((k + 1.0) * np.abs(curve._coeffs[1:, 0])))
    return math.frexp(bound)[1]


def _finite_integral(value: float, e: int) -> float:
    """value 2^(2e), a strip integral formed at the scale 2^-e, unless it or
    a sum on the way to it left the float range: then OverflowError."""
    try:
        value = math.ldexp(value, 2 * e)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise OverflowError("the strip integral overflows the float range")
    return value


def _sin2_integral(delta1: float, delta2: float) -> float:
    """int sin^2 over (delta1, delta2), as D sin^2(S/2) + cos(S) (D - sin D)/2
    with D = delta2 - delta1 and S = delta1 + delta2: each term keeps its
    relative accuracy on small and thin strips, where the antiderivative
    difference cancels.  Below D = 0.25, where D - sin(D) would lose up to
    1e-14 of itself, it is its Taylor series to D^13, whose remainder is
    below 1e-18 of it."""
    D, S = delta2 - delta1, delta1 + delta2
    if D < 0.25:
        D2 = D * D
        d_minus_sin = D * D2 / 6.0 * (1.0 - D2 / 20.0 * (1.0 - D2 / 42.0 * (
            1.0 - D2 / 72.0 * (1.0 - D2 / 110.0 * (1.0 - D2 / 156.0)))))
    else:
        d_minus_sin = D - math.sin(D)
    return D * math.sin(0.5 * S) ** 2 + math.cos(S) * d_minus_sin / 2.0


def rigidity_integral_closed(curve: SupportCurve, strip: Strip) -> float:
    """Closed form: 2*int sin^2 da * pi*sum k^2(k^2-1)(a_k^2+b_k^2) over
    k >= 2, the sum formed at the scale 2^-e of those harmonics
    (_harmonic_exponent) and scaled back by 2^(2e).  An integral that
    overflows raises OverflowError."""
    e = _harmonic_exponent(curve)
    k2 = np.arange(2, curve.h.cos_coeffs.size + 1, dtype=float) ** 2
    a, b = np.ldexp(curve.h.cos_coeffs[1:], -e), np.ldexp(curve.h.sin_coeffs[1:], -e)
    with np.errstate(over="ignore", invalid="ignore"):
        harmonic_sum = float(np.sum(k2 * (k2 - 1.0) * (a ** 2 + b ** 2)))
    return _finite_integral(2.0 * _sin2_integral(strip.delta1, strip.delta2) * math.pi
                            * harmonic_sum, e)
