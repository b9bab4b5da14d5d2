"""Planar Birkhoff billiard map in oriented-line coordinates (p, phi).

A line is stored as its normal angle phi and signed distance p; it meets
the table iff -h(phi+pi) < p < h(phi).  Its chord ends where

    f(psi) = <x(psi), e_phi> - p = h cos(psi-phi) - h' sin(psi-phi) - p

vanishes, x(psi) being the boundary point with outward normal angle psi.
Since f'(psi) = rho(psi) sin(phi - psi), f is monotone on [phi, phi+pi],
which holds the forward endpoint, and on [phi+pi, phi+2pi], which holds the
backward one, and its values at the ends are h(phi) - p and -h(phi+pi) - p.
Each endpoint is found by Newton steps inside its exact bracket, falling
back to bisection when a step would leave the bracket or stalls.

The map is implemented twice: geometrically (locate the chord, reflect
across the tangent, which sends the normal angle phi to 2 psi_fwd - phi)
and variationally through the generating function

    S(phi1, phi2) = 2 h((phi1+phi2)/2) sin((phi2-phi1)/2),

whose mixed derivative S12 = rho(mid)*sin(alpha)/2 > 0 is the twist; the
next line solves p1 = -dS/dphi1, a residual decreasing in phi2 over
(phi1, phi1+2pi) with derivative -S12, by the same safeguarded Newton.
Both solvers take arrays of lines and advance them in lock-step; the
scalar functions are wrappers around a batch of one.  The strip functional
integral of (S11+2*S12+S22) against the invariant measure S12 dphi1 dphi2
collapses, after reduction, to a weighted sum of squares of Fourier
coefficients of h; both routes are provided.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (ConvergenceFailure, DegenerateChord, NoIntersection,
                     TangentLine)
from .support_geometry import GutkinTable, SupportCurve, eval_support

TWO_PI = 2 * math.pi
PSI_TOL = 1e-14
NEWTON_CAP = 100
MIN_CHORD_ANGLE = 1e-6
HALF_TURNS = np.array([[0.0], [math.pi]])
# a residual below this fraction of the size of its terms is at the rounding floor
NOISE_REL = 8 * np.finfo(float).eps

# per-line status of a batched solve; each failure maps to the error the
# scalar wrappers raise
SOLVED, MISSES, ZERO_LENGTH, NEAR_TANGENT, NOT_CONVERGED = range(5)


@dataclass(frozen=True)
class OrientedLine2D:
    p: float
    phi: float

    def __post_init__(self):
        object.__setattr__(self, "phi", float(self.phi) % TWO_PI)
        object.__setattr__(self, "p", float(self.p))


@dataclass(frozen=True)
class ChordData:
    line: OrientedLine2D
    psi_back: float
    psi_fwd: float
    angle_back: float
    angle_fwd: float


class Chords(NamedTuple):
    """Chords of a batch of lines, one entry per line; valid where status == SOLVED."""

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


def _raise_for_status(status: int, line: OrientedLine2D):
    """Raise the error a batched solve reported for one line, if any."""
    if status == MISSES:
        raise NoIntersection(f"line (p={line.p:g}, phi={line.phi:g}) "
                             "misses the table")
    if status == ZERO_LENGTH:
        raise TangentLine("zero-length chord")
    if status == NEAR_TANGENT:
        raise TangentLine("near-tangent chord")
    if status == NOT_CONVERGED:
        raise ConvergenceFailure("safeguarded Newton did not converge")


def generating_value(curve: SupportCurve, phi1: float, phi2: float) -> float:
    d = phi2 - phi1
    if not 0.0 < d < TWO_PI:
        raise DegenerateChord(f"phi2 - phi1 = {d:g} outside (0, 2*pi)")
    h, _, _ = eval_support(curve, 0.5 * (phi1 + phi2))
    return 2.0 * h * math.sin(0.5 * d)


def generating_second_derivs(curve: SupportCurve, phi1: float, phi2: float):
    d = phi2 - phi1
    if not 0.0 < d < TWO_PI:
        raise DegenerateChord(f"phi2 - phi1 = {d:g} outside (0, 2*pi)")
    mid, alpha = 0.5 * (phi1 + phi2), 0.5 * d
    h, hp, hpp = eval_support(curve, mid)
    sa, ca = math.sin(alpha), math.cos(alpha)
    s11 = 0.5 * (hpp - h) * sa - hp * ca
    s22 = 0.5 * (hpp - h) * sa + hp * ca
    s12 = 0.5 * (hpp + h) * sa
    return float(s11), float(s12), float(s22)


def _lines(p, phi):
    """Lines as flat float arrays, phi reduced to [0, 2*pi)."""
    phi = np.ravel(np.asarray(phi, dtype=float))
    return np.ravel(np.asarray(p, dtype=float)), np.mod(phi, TWO_PI)


def _brackets(curve: SupportCurve, p, phi):
    """f at both bracket ends, (h(phi) - p, -h(phi+pi) - p), the starting
    offset of the forward endpoint from phi, and the lines that miss.

    The start fits the circle c + r cos(psi - phi) to the two end values,
    which is exact when the table is a circle.
    """
    h, _, _ = eval_support(curve, phi + HALF_TURNS)
    f_lo, f_hi = h[0] - p, -h[1] - p
    misses = ~((f_lo > 0) & (f_hi < 0))
    with np.errstate(invalid="ignore", divide="ignore"):
        cos_start = np.clip((f_lo + f_hi) / (f_hi - f_lo), -1.0, 1.0)
    return np.arccos(np.where(misses, 0.0, cos_start)), misses


def _newton(evaluate, lo, hi, x, done):
    """Root of a decreasing g with g(lo) > 0 > g(hi), elementwise over arrays.

    ``evaluate(x)`` returns (g, g', noise, state): a point counts as solved
    when |g| is at its rounding floor ``noise`` or the Newton step from it is
    below PSI_TOL, or when its bracket is narrower than PSI_TOL.  A step that
    would leave the bracket, or is longer than half the step before last,
    is replaced by bisection.  Points in ``done`` stay where they are.
    Returns (x, state at x, solved).
    """
    lo, hi, x = np.array(lo), np.array(hi), np.array(x)
    done = np.array(done)
    step_old = step = hi - lo
    with np.errstate(invalid="ignore", divide="ignore"):
        for _ in range(NEWTON_CAP):
            g, dg, noise, state = evaluate(x)
            size = np.abs(g)
            done |= (size <= noise) | (size < PSI_TOL * np.abs(dg)) | (hi - lo < PSI_TOL)
            if done.all():
                break
            live = ~done
            right = g > 0
            np.copyto(lo, x, where=live & right)
            np.copyto(hi, x, where=live & ~right)
            newton = x - g / dg
            bisect = (~((lo < newton) & (newton < hi))
                      | (np.abs(newton - x) > 0.5 * np.abs(step_old)))
            nxt = np.where(bisect, 0.5 * (lo + hi), newton)
            np.copyto(nxt, x, where=done)
            step_old, step = step, nxt - x
            x = nxt
    return x, state, done


def solve_chords(curve: SupportCurve, p, phi) -> Chords:
    """Chords of the lines (p, phi), equal-size arrays or scalars, solved in lock-step.

    Endpoints are Gauss parameters in [0, 2*pi); the incidence angle at an
    endpoint psi is the angle between the line and the tangent there,
    min(b, pi - b) for b = psi - phi reduced mod pi.
    """
    p, phi = _lines(p, phi)
    start, misses = _brackets(curve, p, phi)
    # row 0: forward endpoint in [phi, phi+pi], where f decreases; row 1:
    # backward endpoint in [phi+pi, phi+2pi], where f increases, solved as -f
    sign = np.array([[1.0], [-1.0]])

    def evaluate(psi):
        h, hp, hpp = eval_support(curve, psi)
        b = psi - phi
        cb, sb = np.cos(b), np.sin(b)
        noise = NOISE_REL * (np.abs(h) + np.abs(hp) + np.abs(p))
        # state: position of the endpoint along the travel direction
        return sign * (h * cb - hp * sb - p), -sign * (h + hpp) * sb, noise, h * sb + hp * cb

    lo = phi + HALF_TURNS
    psi, along, solved = _newton(evaluate, lo, lo + math.pi,
                                 np.array([phi + start, phi + TWO_PI - start]),
                                 np.array([misses, misses]))
    b_fwd, b_back = psi[0] - phi, psi[1] - phi
    angle_fwd = np.minimum(b_fwd, math.pi - b_fwd)
    angle_back = np.minimum(b_back - math.pi, TWO_PI - b_back)
    # later assignments take precedence
    status = np.full(p.shape, SOLVED)
    status[np.minimum(angle_back, angle_fwd) < MIN_CHORD_ANGLE] = NEAR_TANGENT
    status[along[0] - along[1] < 1e-12] = ZERO_LENGTH
    status[~(solved[0] & solved[1])] = NOT_CONVERGED
    status[misses] = MISSES
    return Chords(np.mod(psi[1], TWO_PI), np.mod(psi[0], TWO_PI),
                  angle_back, angle_fwd, status)


def _outgoing(curve: SupportCurve, phi, psi_fwd):
    """(p, phi) after reflecting lines of normal angle phi at the boundary
    points psi_fwd: the mirror law sends phi to 2 psi_fwd - phi."""
    h, hp, _ = eval_support(curve, psi_fwd)
    b = psi_fwd - phi
    return h * np.cos(b) + hp * np.sin(b), np.mod(2.0 * psi_fwd - phi, TWO_PI)


def chord_incidence_angles(curve: SupportCurve, line: OrientedLine2D) -> ChordData:
    """Locate the chord of a line and its incidence angles at both endpoints."""
    c = solve_chords(curve, line.p, line.phi)
    _raise_for_status(c.status[0], line)
    return ChordData(line=line, psi_back=float(c.psi_back[0]), psi_fwd=float(c.psi_fwd[0]),
                     angle_back=float(c.angle_back[0]), angle_fwd=float(c.angle_fwd[0]))


def reflect_geometric(curve: SupportCurve, line: OrientedLine2D):
    """One bounce by reflection at the forward endpoint; returns (next line, chord data)."""
    chord = chord_incidence_angles(curve, line)
    p2, phi2 = _outgoing(curve, np.array([line.phi]), np.array([chord.psi_fwd]))
    return OrientedLine2D(p2[0], phi2[0]), chord


def solve_variational(curve: SupportCurve, p, phi):
    """Next lines (p2, phi2, status) of the lines (p, phi) by the generating
    function: phi2 solves p = h(mid) cos(alpha) - h'(mid) sin(alpha), with
    mid = (phi+phi2)/2 and alpha = (phi2-phi)/2, and p2 = +dS/dphi2."""
    p, phi = _lines(p, phi)
    start, misses = _brackets(curve, p, phi)

    def evaluate(phi2):
        alpha = 0.5 * (phi2 - phi)
        h, hp, hpp = eval_support(curve, phi + alpha)
        ca, sa = np.cos(alpha), np.sin(alpha)
        r = h * ca - hp * sa - p
        noise = NOISE_REL * (np.abs(h) + np.abs(hp) + np.abs(p))
        return r, -0.5 * (h + hpp) * sa, noise, h * ca + hp * sa

    phi2, p2, solved = _newton(evaluate, phi, phi + TWO_PI, phi + 2.0 * start, misses)
    status = np.where(misses, MISSES, np.where(solved, SOLVED, NOT_CONVERGED))
    return p2, np.mod(phi2, TWO_PI), status


def reflect_variational(curve: SupportCurve, line: OrientedLine2D) -> OrientedLine2D:
    """One bounce by solving p1 = -dS/dphi1 for phi2; twist makes it unique."""
    p2, phi2, status = solve_variational(curve, line.p, line.phi)
    _raise_for_status(status[0], line)
    return OrientedLine2D(p2[0], phi2[0])


def constant_angle_line(curve: SupportCurve, delta: float, psi: float) -> OrientedLine2D:
    """Line leaving the boundary point x(psi) at angle delta with the tangent."""
    h, hp, _ = eval_support(curve, psi)
    return OrientedLine2D(h * math.cos(delta) + hp * math.sin(delta), psi + delta)


def verify_constant_angle(table_or_curve, delta: float, grid_size: int = 360) -> float:
    """Max |arrival angle - delta| over a grid of constant-angle departures."""
    if grid_size < 8:
        raise ValueError("grid_size must be >= 8")
    curve = (table_or_curve.curve if isinstance(table_or_curve, GutkinTable)
             else table_or_curve)
    psi = np.linspace(0.0, TWO_PI, grid_size, endpoint=False)
    h, hp, _ = eval_support(curve, psi)
    p = h * math.cos(delta) + hp * math.sin(delta)
    c = solve_chords(curve, p, psi + delta)
    failed = np.flatnonzero(c.status != SOLVED)
    if failed.size:
        i = failed[0]
        _raise_for_status(c.status[i], OrientedLine2D(p[i], psi[i] + delta))
    return float(np.max(np.abs(c.angle_fwd - delta)))


def orbit(curve: SupportCurve, line0: OrientedLine2D, steps: int):
    """Iterate the geometric map; returns (lines, chords) with len(lines) = steps+1."""
    lines = [line0]
    chords = []
    for _ in range(steps):
        nxt, chord = reflect_geometric(curve, lines[-1])
        lines.append(nxt)
        chords.append(chord)
    return lines, chords


def orbits(curve: SupportCurve, p0, phi0, steps: int):
    """Iterate the geometric map on many lines in lock-step.

    Returns (p, phi, ok): arrays of shape (steps+1, lines) and the mask of
    orbits that completed every bounce.  A line whose chord solve fails
    stops there, as ``orbit`` would raise; its later rows are not defined.
    """
    p, phi = _lines(p0, phi0)
    ps = np.full((steps + 1, p.size), np.nan)
    phis = np.full((steps + 1, p.size), np.nan)
    ps[0], phis[0] = p, phi
    ok = np.ones(p.size, dtype=bool)
    for step in range(steps):
        live = np.flatnonzero(ok)
        c = solve_chords(curve, ps[step, live], phis[step, live])
        good = c.status == SOLVED
        ok[live[~good]] = False
        live = live[good]
        ps[step + 1, live], phis[step + 1, live] = _outgoing(curve, phis[step, live],
                                                             c.psi_fwd[good])
    return ps, phis, ok


def rigidity_integral(curve: SupportCurve, strip: Strip, quad_order: int = 32,
                      phi_points: int = 512) -> float:
    """Strip integral of (S11+2*S12+S22)*S12 in (phi, alpha) variables.

    The (phi1, phi2) -> (phi, alpha) change of variables carries Jacobian 2;
    the integrand reduces to 2*h''*(h''+h)*sin^2(alpha).  Gauss-Legendre in
    alpha, periodic trapezoid in phi (spectrally accurate).
    """
    if quad_order < 8:
        raise ValueError("quad_order must be >= 8")
    nodes, weights = np.polynomial.legendre.leggauss(quad_order)
    a = 0.5 * (strip.delta2 - strip.delta1) * nodes + 0.5 * (strip.delta1 + strip.delta2)
    wa = 0.5 * (strip.delta2 - strip.delta1) * weights
    phi = np.linspace(0.0, TWO_PI, phi_points, endpoint=False)
    h, _, hpp = eval_support(curve, phi)
    phi_part = float(np.sum(hpp * (hpp + h))) * (TWO_PI / phi_points)
    alpha_part = float(np.sum(np.sin(a) ** 2 * wa))
    return 2.0 * alpha_part * phi_part


def rigidity_integral_closed(curve: SupportCurve, strip: Strip) -> float:
    """Closed form: 2*int sin^2 da * pi*sum k^2(k^2-1)(a_k^2+b_k^2)."""
    def F(x):
        return 0.5 * (x - math.sin(x) * math.cos(x))

    k = np.arange(1, curve.h.cos_coeffs.size + 1, dtype=float)
    coeff_sum = float(np.sum(k ** 2 * (k ** 2 - 1)
                             * (curve.h.cos_coeffs ** 2 + curve.h.sin_coeffs ** 2)))
    return 2.0 * (F(strip.delta2) - F(strip.delta1)) * math.pi * coeff_sum
