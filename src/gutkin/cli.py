"""Command-line front end: reproducible experiments emitting CSV/JSON/SVG.

Exit codes: 0 success, 1 verification failure, 2 invalid input (a bad
flag value, an unreadable or malformed table or spec, an output path that
is a directory, a line the map cannot follow, a phase portrait that keeps
no orbit, a geodesic that would take too many series steps or whose step
ends leave the surface, a result that overflows the float range, or a run
too large for the memory available).
All angles are radians.
The environment variable GUTKIN_SEED, a non-negative integer, overrides
the default seed 0 for randomized sweeps.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys

import numpy as np

from . import billiard2d as b2
from . import billiard_nd as bnd
from . import geodesic_chords as gc
from . import support_geometry as sg
from .csvtext import write_csv as _write_csv
from .errors import GutkinError

FMT = "{:.17g}"
SVG_SIZE, SVG_MARGIN = 640, 20
# gradient-check evaluates its pairs in blocks of this many d*d entries (1024
# pairs at d = 16); a block's stencils hold 4 d (d-1) floats a pair, so peak
# memory does not grow with --pairs
GRADIENT_BLOCK_ENTRIES = 1 << 18
# the semi-axes a for which a^2 and 1/a^2, the entries of the quadric
# diag(a^2) and of its inverse, are finite normal floats: exactly [2^-511, 2^511]
AXIS_RANGE = (2.0 ** -511, 2.0 ** 511)


def _emit(args, payload: dict):
    if getattr(args, "json", False):
        print(json.dumps(payload))
    else:
        for key, val in payload.items():
            if isinstance(val, list):
                for v in val:
                    print(FMT.format(v) if isinstance(v, float) else v)
            elif isinstance(val, float):
                print(f"{key} = " + FMT.format(val))
            else:
                print(f"{key} = {val}")


def _write_svg(path, xs, ys):
    """Deterministic scatter SVG of (phi, p) points, SVG_SIZE pixels square."""
    x0, x1 = 0.0, 2 * math.pi
    # 5% of the range, or of max |y| where it is 0: the same at every scale
    pad = 0.05 * ((ys.max() - ys.min()) or np.abs(ys).max() or 1.0)
    y0, y1 = ys.min() - pad, ys.max() + pad
    size, inner = SVG_SIZE, SVG_SIZE - 2 * SVG_MARGIN
    px = SVG_MARGIN + inner * (xs - x0) / (x1 - x0)
    py = SVG_MARGIN + inner * (1.0 - (ys - y0) / (y1 - y0))
    with open(path, "w", encoding="utf-8") as f:
        f.write(f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
                f'height="{size}" viewBox="0 0 {size} {size}">\n'
                f'<rect width="{size}" height="{size}" fill="white"/>\n')
        f.writelines('<circle cx="%.2f" cy="%.2f" r="0.8" fill="black"/>\n' % xy
                     for xy in zip(px.tolist(), py.tolist()))
        f.write("</svg>\n")


def _seed() -> int:
    """GUTKIN_SEED, default 0; anything but a non-negative integer raises
    ValueError naming the variable and its value."""
    text = os.environ.get("GUTKIN_SEED", "0")
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise ValueError(f"GUTKIN_SEED must be a non-negative integer, got {text!r}")
    return seed


def cmd_roots(args) -> dict:
    return {"roots": [float(r) for r in sg.solve_gutkin_angles(args.n)]}


def cmd_table(args) -> dict:
    curve, meta = sg.build_gutkin_table(args.n, args.root_index, args.a0, args.an)
    sg.save_table(args.out, curve, meta)
    return {"out": args.out, "delta": meta["delta"]}


def cmd_verify(args) -> dict:
    curve, meta = sg.load_table(args.table)
    delta = args.delta
    if delta is None:
        if not meta:
            raise ValueError("no delta given and table carries no constant-angle metadata")
        delta = meta["delta"]
    residual = b2.verify_constant_angle(curve, delta, args.grid)
    return {"delta": delta, "residual": residual, "pass": residual < args.tol}


def cmd_orbit(args) -> dict:
    curve, _ = sg.load_table(args.table)
    p, phi, chords = b2.orbit(curve, b2.OrientedLine2D(args.p, args.phi), args.steps)
    _write_csv(args.out, ["step", "p", "phi", "psi_back", "psi_fwd",
                          "angle_back", "angle_fwd"],
               [np.arange(args.steps), p[:-1], phi[:-1], *chords[:4]])
    return {"out": args.out, "bounces": args.steps}


def cmd_phase_portrait(args) -> dict:
    curve, _ = sg.load_table(args.table)
    h_min = sg.support_grid(curve, 1024, lambda k: 1).min()
    pf, phi0 = np.meshgrid(np.linspace(-0.9, 0.9, args.p_grid),
                           np.linspace(0.0, 2 * math.pi, args.phi_grid, endpoint=False),
                           indexing="ij")
    # all starting lines advance together; an orbit that fails is dropped
    ps, phis, chords = b2.orbits(curve, (pf * h_min).ravel(), phi0.ravel(), args.steps)
    ok = (chords.status == b2.SOLVED).all(axis=0)
    kept, per_orbit = int(ok.sum()), ps.shape[0]
    if not kept:
        raise ValueError(f"all {ok.size} orbits were dropped: none was followed "
                         f"for {args.steps} bounces")
    p, phi = ps[:, ok].T.ravel(), phis[:, ok].T.ravel()
    if args.out:
        _write_csv(args.out, ["orbit", "step", "p", "phi"],
                   [np.repeat(np.arange(kept), per_orbit), np.tile(np.arange(per_orbit), kept),
                    p, phi])
    if args.svg:
        _write_svg(args.svg, phi, p)
    return {"orbits": kept, "points": p.size}


def cmd_rigidity(args) -> dict:
    curve, _ = sg.load_table(args.table)
    strip = b2.Strip(args.delta1, args.delta2)
    quad = b2.rigidity_integral(curve, strip)
    closed = b2.rigidity_integral_closed(curve, strip)
    # the closed form is at least 3/5 of the integrand's magnitude; the max
    # with |quad| keeps the divisor nonzero where the closed form underflows
    gap = 0.0 if quad == closed else abs(quad - closed) / max(closed, abs(quad))
    return {"quadrature": quad, "closed_form": closed, "relative_gap": gap}


def _parse_vec(text: str) -> np.ndarray:
    return np.array([float(t) for t in text.split(",")])


def _load_spec(path) -> tuple[int, np.ndarray]:
    """(d, A) from an ellipsoid spec; a malformed spec raises ValueError."""
    doc = sg._read_json(path, "spec")
    if not isinstance(doc, dict) or "d" not in doc or "A" not in doc:
        raise ValueError(f"spec {path} needs the keys 'd' and 'A'")
    d = doc["d"]
    if isinstance(d, bool) or not isinstance(d, int) or d < 2:
        raise ValueError(f"spec 'd' must be an integer >= 2, got {d!r}")
    # each entry by the table loader's number rule; nested lists give their entries
    A = np.array([sg._number(x, f"spec 'A' entry {i}")
                  for i, x in enumerate(np.asarray(doc["A"], dtype=object).flat)])
    if A.size != d * d:
        raise ValueError(f"spec 'A' must hold d*d = {d * d} entries, got {A.size}")
    return d, A.reshape(d, d)


def cmd_ellipsoid(args) -> dict:
    d, A = _load_spec(args.spec)
    if d > 16:
        raise ValueError("dimension capped at 16 for the CLI")
    if (args.n is None) != (args.m is None):
        raise ValueError("--n and --m must be given together")
    q = bnd.Quadric(A)
    if args.n is not None:
        n, x = _parse_vec(args.n), _parse_vec(args.m)
        if n.size != d or x.size != d:
            raise ValueError(f"--n and --m need d = {d} entries")
        n = bnd.unit_vector(n)
        if n is None:
            raise ValueError(f"--n must be a nonzero finite vector, got {args.n}")
        # --m is the moment, so it is finite and orthogonal to n
        bnd._check_lines(n, x, q.half_width)
    else:
        n, x = bnd.launch_line(q, np.ones(d) / math.sqrt(d), args.delta)
    n, _, P, incidence = bnd.orbit_nd(q, n, x, args.steps)
    header = (["step"] + [f"P_{i + 1}" for i in range(d)]
              + [f"n_{i + 1}" for i in range(d)] + ["incidence_angle"])
    _write_csv(args.out, header, [np.arange(args.steps), *P.T, *n[1:].T, incidence])
    return {"out": args.out, "bounces": args.steps}


def _draw_pairs(rng, d: int, count: int) -> np.ndarray:
    """``count`` pairs of random unit directions in R^d at least 0.1 apart,
    shape (count, 2, d); a closer pair is drawn again.  Each round draws as
    many pairs as are still missing, which a loop drawing one pair at a time
    would draw too, so the stream and the pairs are that loop's.  The norms
    are dot products by matmul, the bits of np.linalg.norm of one vector."""
    kept = []
    while count:
        x = rng.normal(size=(count, 2, d))
        x /= np.sqrt(x[..., None, :] @ x[..., :, None])[..., 0]
        w = x[:, 0] - x[:, 1]
        far = np.sqrt((w[:, None, :] @ w[:, :, None])[:, 0, 0]) >= 0.1
        kept.append(x[far])
        count -= int(far.sum())
    return np.concatenate(kept)


def cmd_gradient_check(args) -> dict:
    d, A = _load_spec(args.spec)
    q = bnd.Quadric(A)
    rng = np.random.default_rng(_seed())
    block = max(1, GRADIENT_BLOCK_ENTRIES // (d * d))
    worst = 0.0
    for start in range(0, args.pairs, block):
        pairs = _draw_pairs(rng, d, min(block, args.pairs - start))
        r1, r2 = bnd.gradient_contract_residual(q, pairs[:, 0], pairs[:, 1])
        # np.max keeps a NaN residual, which then fails the check
        worst = float(np.max((worst, np.max(r1), np.max(r2))))
    # the residuals are lengths, so --tol is relative to the body's size
    return {"pairs": args.pairs, "max_residual": worst, "pass": worst < args.tol * q.half_width}


def cmd_chords(args) -> dict:
    if args.surface == "sphere":
        axes = np.full(3, args.radius)
    else:
        axes = _parse_vec(args.axes)
        if axes.size != 3 or not ((AXIS_RANGE[0] <= axes) & (axes <= AXIS_RANGE[1])).all():
            raise ValueError(f"--axes needs 3 semi-axes in [2^-511, 2^511], got {args.axes}")
    q = bnd.Quadric(np.diag(axes ** 2))
    traj = gc.integrate_geodesic(q, [axes[0], 0.0, 0.0], [0.0, 1.0, 0.0],
                                 args.length, args.step)
    frenet = gc.frenet_apparatus(q, traj)
    cc = gc.chord_correspondence(q, traj, frenet, args.delta)
    _write_csv(args.out, ["s", "k", "tau", "l", "ldot", "R5", "R6", "R9",
                          "D_numeric", "D_analytic", "A_coeff"],
               [traj.s, frenet.k, frenet.tau, cc.l, cc.l_dot,
                *gc.angle_condition_residuals(cc, frenet),
                *gc.planarity_residuals(cc, frenet)])
    return {"out": args.out, "samples": traj.s.size, "series_steps": traj.series_steps,
            "max_drift": traj.max_drift}


class _Parser(argparse.ArgumentParser):
    """Reads a flag value such as -1e-3, -inf or -1,0,0 as a value: argparse
    takes a token that starts with '-' for an option unless its matcher,
    which differs between Python versions, reads it as a negative number.
    Subparsers are built from the class of their parent."""

    NUMBER = r"(?:(?:\d+\.?\d*|\.\d+)(?:e[+-]?\d+)?|inf(?:inity)?|nan)"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            rf"^-{self.NUMBER}(?:,[+-]?{self.NUMBER})*$", re.IGNORECASE)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command grammar.  It is built on the first call, with the ``cmd_*``
    handlers bound at that time, and shared by every later ``main`` call in
    the process.  ``parse_args`` returns a fresh namespace and leaves the
    parser as it was; nothing may change the parser once it is built."""
    parser = _Parser(
        prog="gutkin",
        description="constant-angle convex billiards laboratory")
    parser.add_argument("--json", action="store_true",
                        help="one-line JSON summary on stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("roots", help="roots of tan(n*delta) = n*tan(delta)")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_roots)

    p = sub.add_parser("table", help="write a constant-angle table JSON")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--root-index", type=int, default=0)
    p.add_argument("--a0", type=float, required=True)
    p.add_argument("--an", type=float, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("verify", help="constant-angle invariance residual")
    p.add_argument("--table", required=True)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--grid", type=int, default=360)
    p.add_argument("--tol", type=float, default=1e-6)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("orbit", help="iterate the planar billiard map")
    p.add_argument("--table", required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--phi", type=float, required=True)
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("phase-portrait", help="orbit cloud on the (phi, p) cylinder")
    p.add_argument("--table", required=True)
    p.add_argument("--p-grid", type=int, default=12)
    p.add_argument("--phi-grid", type=int, default=4)
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--out", default=None)
    p.add_argument("--svg", default=None)
    p.set_defaults(func=cmd_phase_portrait)

    p = sub.add_parser("rigidity", help="strip integral, quadrature vs closed form")
    p.add_argument("--table", required=True)
    p.add_argument("--delta1", type=float, required=True)
    p.add_argument("--delta2", type=float, required=True)
    p.set_defaults(func=cmd_rigidity)

    p = sub.add_parser("ellipsoid", help="orbit inside an ellipsoid in R^d")
    p.add_argument("--spec", required=True)
    p.add_argument("--n", default=None, help="direction, comma separated")
    p.add_argument("--m", default=None,
                   help="moment, comma separated: the point of the line nearest the centre")
    p.add_argument("--delta", type=float, default=0.5,
                   help="departure angle when no line is given")
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ellipsoid)

    p = sub.add_parser("gradient-check", help="moment/gradient contract residuals")
    p.add_argument("--spec", required=True)
    p.add_argument("--pairs", type=int, default=100)
    p.add_argument("--tol", type=float, default=1e-6)
    p.set_defaults(func=cmd_gradient_check)

    p = sub.add_parser("chords", help="constant-angle chord report on a surface")
    p.add_argument("--surface", choices=["sphere", "ellipsoid"], required=True)
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--axes", default="2,1,1", help="semi-axes, comma separated")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--length", type=float, default=6.283185307179586)
    p.add_argument("--step", type=float, default=1e-3)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_chords)

    return parser


def _flag_error(args) -> str | None:
    """One-line message for the first flag value out of range, else None."""
    for flag, least in (("steps", 1), ("pairs", 1), ("p_grid", 1), ("phi_grid", 1),
                        ("grid", 8)):
        if getattr(args, flag, least) < least:
            return f"--{flag.replace('_', '-')} must be at least {least}"
    for flag in ("step", "length", "tol"):
        if not 0 < getattr(args, flag, 1.0) < math.inf:
            return f"--{flag} must be positive and finite"
    if not AXIS_RANGE[0] <= getattr(args, "radius", 1.0) <= AXIS_RANGE[1]:
        return "--radius must be in [2^-511, 2^511]"
    # the library refuses it too, but only after the whole geodesic is integrated
    if args.command == "chords" and not 0.0 < args.delta <= math.pi / 2:
        return "--delta must be in (0, pi/2]"
    for flag in ("p", "phi"):
        if not math.isfinite(getattr(args, flag, 0.0)):
            return f"--{flag} must be finite"
    for flag in ("out", "svg"):
        path = getattr(args, flag, None)
        if path is not None and os.path.isdir(path):
            return f"--{flag} {path} is a directory"
    return None


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    problem = _flag_error(args)
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    try:
        payload = args.func(args)
        _emit(args, payload)
    except (GutkinError, IndexError, ValueError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: the run needs more memory than is available", file=sys.stderr)
        return 2
    return 0 if payload.get("pass", True) else 1


if __name__ == "__main__":
    sys.exit(main())
