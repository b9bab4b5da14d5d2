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
step would leave the bracket or stalls.

The map is implemented twice: geometrically (locate the chord, reflect
across the tangent, which sends the normal angle phi to 2 psi_fwd - phi)
and variationally through the generating function

    S(phi1, phi2) = 2 h((phi1+phi2)/2) sin((phi2-phi1)/2),

whose mixed derivative S12 = rho(mid)*sin(alpha)/2 > 0 is the twist; the
next line solves p1 = -dS/dphi1, a residual decreasing in phi2 over
(phi1, phi1+2pi) with derivative -S12, by the same safeguarded Halley
iteration.  Both solvers take arrays of lines and advance them in
lock-step; the scalar functions are wrappers around a batch of one.  The
strip functional integral of (S11+2*S12+S22) against the invariant measure
S12 dphi1 dphi2 collapses, after reduction, to a weighted sum of squares
of Fourier coefficients of h; both routes are provided.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (ConvergenceFailure, DegenerateChord, NoIntersection,
                     TangentLine)
from .support_geometry import SupportCurve, eval_support

TWO_PI = 2 * math.pi
PSI_TOL = 1e-14
NEWTON_CAP = 100
MIN_CHORD_ANGLE = 1e-6
# a residual below this fraction of the size of its terms is at the rounding floor
NOISE_REL = 2 * np.finfo(float).eps
# fewest trapezoid points in phi for the rigidity integral
RIGIDITY_PHI_GRID = 512

# per-line status of a batched solve; each failure maps to the error the
# scalar wrappers raise
SOLVED, MISSES, NEAR_TANGENT, NOT_CONVERGED = range(4)


@dataclass(frozen=True)
class OrientedLine2D:
    p: float
    phi: float

    def __post_init__(self):
        object.__setattr__(self, "phi", _mod_two_pi(float(self.phi)))
        object.__setattr__(self, "p", float(self.p))


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


def _raise_first_failure(status, p, phi):
    """Raise the error of the first line, in flat order, whose batched solve
    failed; the lines (p, phi) are given in the order of ``status``."""
    failed = np.flatnonzero(status != SOLVED)
    if not failed.size:
        return
    i = failed[0]
    status = np.ravel(status)[i]
    line = OrientedLine2D(np.ravel(p)[i], np.ravel(phi)[i])
    if status == MISSES:
        raise NoIntersection(f"line (p={line.p:g}, phi={line.phi:g}) "
                             "misses the table")
    if status == NEAR_TANGENT:
        raise TangentLine("near-tangent chord")
    if status == NOT_CONVERGED:
        raise ConvergenceFailure("safeguarded Newton did not converge")


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
    """phi, a float or an array, reduced to [0, 2*pi).  The mod of a tiny
    negative angle rounds up to exactly 2*pi, which is moved to 0; NaN
    stays NaN."""
    phi = phi % TWO_PI
    return phi - (phi == TWO_PI) * TWO_PI


def _lines(p, phi):
    """Lines as flat float arrays, phi reduced to [0, 2*pi)."""
    phi = np.ravel(np.asarray(phi, dtype=float))
    return np.ravel(np.asarray(p, dtype=float)), _mod_two_pi(phi)


def _brackets(curve: SupportCurve, p, phi):
    """f at both bracket ends, (h(phi) - p, -h(phi+pi) - p), the starting
    offset of the forward endpoint from phi, and the lines that miss.

    The start fits the circle c + r cos(psi - phi) to the two end values,
    which is exact when the table is a circle.
    """
    h, _, _, _ = eval_support(curve, np.concatenate((phi, phi + math.pi)))
    f_lo, f_hi = h[:p.size] - p, -h[p.size:] - p
    misses = ~((f_lo > 0) & (f_hi < 0))
    with np.errstate(invalid="ignore", divide="ignore"):
        cos_start = np.minimum(np.maximum((f_lo + f_hi) / (f_hi - f_lo), -1.0), 1.0)
    return np.arccos(np.where(misses, 0.0, cos_start)), misses


def _newton(evaluate, lo, hi, x, done):
    """Root of a decreasing g with g(lo) > 0 > g(hi), elementwise over arrays.

    ``evaluate(x)`` returns (g, g', g'', noise, state): a point counts as
    solved when |g| is at its rounding floor ``noise`` or the Newton step
    from it is below PSI_TOL, or when its bracket is narrower than PSI_TOL.
    Each step is Halley's, u / (u g''/(2 g') - 1) with u = g/g', which
    converges cubically; a step that would leave the bracket, or is longer
    than half the step before last, is replaced by bisection.  Points in
    ``done`` stay where they are, so their brackets need no upkeep.
    Returns (x, state at x, solved); state is what the caller wants back.
    """
    lo, hi, done = np.array(lo), np.array(hi), np.array(done)
    step_old = step = hi - lo
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        for _ in range(NEWTON_CAP):
            g, dg, ddg, noise, state = evaluate(x)
            size = np.abs(g)
            done |= (size <= noise) | (size < PSI_TOL * np.abs(dg)) | (hi - lo < PSI_TOL)
            if np.count_nonzero(done) == done.size:
                break
            right = g > 0
            np.copyto(lo, x, where=right)
            np.copyto(hi, x, where=~right)
            u = g / dg
            dx = u / (0.5 * u * ddg / dg - 1.0)
            nxt = x + dx
            bisect = ~((lo < nxt) & (nxt < hi)) | (np.abs(dx) > 0.5 * np.abs(step_old))
            np.copyto(nxt, 0.5 * (lo + hi), where=bisect)
            np.copyto(nxt, x, where=done)
            step_old, step = step, nxt - x
            x = nxt
    return x, state, done


def solve_chords(curve: SupportCurve, p, phi) -> Chords:
    """Chords of the lines (p, phi), equal-size arrays or scalars, solved in lock-step.

    Endpoints are Gauss parameters in [0, 2*pi); the incidence angle at an
    endpoint psi is the angle between the line and the tangent there,
    min(b, pi - b) for b = psi - phi reduced mod pi.  Incidence at least
    MIN_CHORD_ANGLE puts both ends strictly inside their disjoint brackets,
    so a SOLVED chord has positive length on a table of any size.
    """
    p, phi = _lines(p, phi)
    start, misses = _brackets(curve, p, phi)
    # the first n entries solve the forward endpoints in [phi, phi+pi]; the
    # last n the backward ones, as the forward endpoints of the reversed
    # lines (-p, phi+pi), whose bracket values are those of the lines negated
    # and swapped, so their start is pi - start.  One flat array of 2n keeps
    # every numpy call on the fast 1-d path.
    n = p.size
    p_ends, phi_ends = np.concatenate((p, -p)), np.concatenate((phi, phi + math.pi))
    size_p = np.abs(p_ends)

    def evaluate(psi):
        h, hp, hpp, hppp = eval_support(curve, psi)
        b = psi - phi_ends
        cb, sb = np.cos(b), np.sin(b)
        rho = h + hpp
        noise = NOISE_REL * (np.abs(h) + np.abs(hp) + size_p)
        return (h * cb - hp * sb - p_ends, -rho * sb, -(hp + hppp) * sb - rho * cb,
                noise, None)

    psi, _, solved = _newton(evaluate, phi_ends, phi_ends + math.pi,
                             phi_ends + np.concatenate((start, math.pi - start)),
                             np.concatenate((misses, misses)))
    b = psi - phi_ends
    angle = np.minimum(b, math.pi - b)
    angle_fwd, angle_back = angle[:n], angle[n:]
    # later assignments take precedence
    status = np.full(n, SOLVED)
    status[np.minimum(angle_back, angle_fwd) < MIN_CHORD_ANGLE] = NEAR_TANGENT
    status[~(solved[:n] & solved[n:])] = NOT_CONVERGED
    status[misses] = MISSES
    return Chords(np.mod(psi[n:], TWO_PI), np.mod(psi[:n], TWO_PI),
                  angle_back, angle_fwd, status)


def _outgoing(curve: SupportCurve, phi, psi_fwd):
    """(p, phi) after reflecting lines of normal angle phi at the boundary
    points psi_fwd: the mirror law sends phi to 2 psi_fwd - phi."""
    h, hp, _, _ = eval_support(curve, psi_fwd)
    b = psi_fwd - phi
    return h * np.cos(b) + hp * np.sin(b), _mod_two_pi(2.0 * psi_fwd - phi)


def chord_incidence_angles(curve: SupportCurve, line: OrientedLine2D) -> Chords:
    """The chord of one line and its incidence angles at both endpoints, as a
    one-line ``Chords``."""
    c = solve_chords(curve, line.p, line.phi)
    _raise_first_failure(c.status, line.p, line.phi)
    return c


def reflect_geometric(curve: SupportCurve, line: OrientedLine2D):
    """One bounce by reflection at the forward endpoint; returns (next line, chord)."""
    chord = chord_incidence_angles(curve, line)
    p2, phi2 = _outgoing(curve, np.array([line.phi]), chord.psi_fwd)
    return OrientedLine2D(p2[0], phi2[0]), chord


def solve_variational(curve: SupportCurve, p, phi):
    """Next lines (p2, phi2, status) of the lines (p, phi) by the generating
    function: phi2 solves p = h(mid) cos(alpha) - h'(mid) sin(alpha), with
    mid = (phi+phi2)/2 and alpha = (phi2-phi)/2, and p2 = +dS/dphi2."""
    p, phi = _lines(p, phi)
    start, misses = _brackets(curve, p, phi)
    size_p = np.abs(p)

    def evaluate(phi2):
        alpha = 0.5 * (phi2 - phi)
        h, hp, hpp, hppp = eval_support(curve, phi + alpha)
        ca, sa = np.cos(alpha), np.sin(alpha)
        rho = h + hpp
        noise = NOISE_REL * (np.abs(h) + np.abs(hp) + size_p)
        return (h * ca - hp * sa - p, -0.5 * rho * sa,
                -0.25 * ((hp + hppp) * sa + rho * ca), noise, h * ca + hp * sa)

    phi2, p2, solved = _newton(evaluate, phi, phi + TWO_PI, phi + 2.0 * start, misses)
    status = np.where(misses, MISSES, np.where(solved, SOLVED, NOT_CONVERGED))
    return p2, _mod_two_pi(phi2), status


def reflect_variational(curve: SupportCurve, line: OrientedLine2D) -> OrientedLine2D:
    """One bounce by solving p1 = -dS/dphi1 for phi2; twist makes it unique."""
    p2, phi2, status = solve_variational(curve, line.p, line.phi)
    _raise_first_failure(status, line.p, line.phi)
    return OrientedLine2D(p2[0], phi2[0])


def constant_angle_line(curve: SupportCurve, delta: float, psi: float) -> OrientedLine2D:
    """Line leaving the boundary point x(psi) at angle delta with the tangent."""
    h, hp, _, _ = eval_support(curve, psi)
    return OrientedLine2D(h * math.cos(delta) + hp * math.sin(delta), psi + delta)


def verify_constant_angle(curve: SupportCurve, delta: float, grid_size: int = 360) -> float:
    """Max |arrival angle - delta| over a grid of constant-angle departures."""
    if not 0.0 < delta <= math.pi / 2:
        raise ValueError("delta must be in (0, pi/2]")
    if grid_size < 8:
        raise ValueError("grid_size must be >= 8")
    psi = np.linspace(0.0, TWO_PI, grid_size, endpoint=False)
    h, hp, _, _ = eval_support(curve, psi)
    p = h * math.cos(delta) + hp * math.sin(delta)
    c = solve_chords(curve, p, psi + delta)
    _raise_first_failure(c.status, p, psi + delta)
    return float(np.max(np.abs(c.angle_fwd - delta)))


def orbits(curve: SupportCurve, p0, phi0, steps: int):
    """Iterate the geometric map on many lines in lock-step.

    Returns (p, phi, chords): p and phi of shape (steps+1, lines), and the
    chord of every bounce as ``Chords`` fields of shape (steps, lines).  A
    line whose chord solve fails carries NaN from then on, which later
    solves report as MISSES, so (chords.status == SOLVED).all(axis=0) marks
    the orbits that completed every bounce.
    """
    p, phi = _lines(p0, phi0)
    ps = np.empty((steps + 1, p.size))
    phis = np.empty_like(ps)
    ps[0], phis[0] = p, phi
    chords = Chords(*(np.empty((steps, p.size)) for _ in range(4)),
                    np.empty((steps, p.size), dtype=int))
    for step in range(steps):
        c = solve_chords(curve, ps[step], phis[step])
        for field, value in zip(chords, c):
            field[step] = value
        psi_fwd = np.where(c.status == SOLVED, c.psi_fwd, np.nan)
        ps[step + 1], phis[step + 1] = _outgoing(curve, phis[step], psi_fwd)
    return ps, phis, chords


def orbit(curve: SupportCurve, line0: OrientedLine2D, steps: int):
    """``orbits`` from one line, with the line axis dropped: p and phi of
    length steps+1 and chords of length steps.  Raises the error of the
    first bounce that failed."""
    ps, phis, chords = orbits(curve, line0.p, line0.phi, steps)
    chords = Chords._make(field[:, 0] for field in chords)
    _raise_first_failure(chords.status, ps[:-1], phis[:-1])
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
    alpha, periodic trapezoid in phi on RIGIDITY_PHI_GRID points, or 2K + 1
    for a table of degree K past that, which integrates the degree-2K phi
    integrand exactly.
    """
    nodes, weights = _gauss_legendre()
    a = 0.5 * (strip.delta2 - strip.delta1) * nodes + 0.5 * (strip.delta1 + strip.delta2)
    wa = 0.5 * (strip.delta2 - strip.delta1) * weights
    phi_points = max(RIGIDITY_PHI_GRID, 2 * curve.h.cos_coeffs.size + 1)
    phi = np.linspace(0.0, TWO_PI, phi_points, endpoint=False)
    h, _, hpp, _ = eval_support(curve, phi)
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
