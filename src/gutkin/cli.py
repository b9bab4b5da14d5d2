"""Command-line front end: reproducible experiments emitting CSV/JSON/SVG.

Exit codes: 0 success, 1 verification failure, 2 invalid input (a bad
flag value, an unreadable or malformed table or spec, an output path that
is a directory, a line the map cannot follow, or a run too large for the
memory available).  All angles are radians.
The environment variable GUTKIN_SEED overrides the default seed 0 for
randomized sweeps.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import billiard2d as b2
from . import billiard_nd as bnd
from . import geodesic_chords as gc
from . import support_geometry as sg
from .errors import GutkinError

FMT = "{:.17g}"
SVG_SIZE, SVG_MARGIN = 640, 20


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


def _write_csv(path, header: list[str], columns):
    """CSV of equal-length columns: integer columns as %d, float columns with
    17 significant digits, the same bytes as ``FMT.format`` per value."""
    columns = [np.asarray(c) for c in columns]
    row = ",".join("%d" if c.dtype.kind in "iu" else "%.17g" for c in columns) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(",".join(header) + "\n")
        f.writelines(row % values for values in zip(*(c.tolist() for c in columns)))


def _write_svg(path, xs, ys):
    """Deterministic scatter SVG of (phi, p) points, SVG_SIZE pixels square."""
    x0, x1 = 0.0, 2 * math.pi
    pad = 0.05 * (ys.max() - ys.min() + 1e-30)
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
    return int(os.environ.get("GUTKIN_SEED", "0"))


def cmd_roots(args) -> dict:
    return {"roots": [float(r) for r in sg.solve_gutkin_angles(args.n)]}


def cmd_table(args) -> dict:
    table = sg.build_gutkin_table(args.n, args.root_index, args.a0, args.an)
    sg.save_table(args.out, table.curve, table)
    return {"out": args.out, "delta": table.delta}


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
    h, _, _, _ = sg.eval_support(curve, np.linspace(0, 2 * math.pi, 1024, endpoint=False))
    h_min = min(h)
    pf, phi0 = np.meshgrid(np.linspace(-0.9, 0.9, args.p_grid),
                           np.linspace(0.0, 2 * math.pi, args.phi_grid, endpoint=False),
                           indexing="ij")
    # all starting lines advance together; an orbit that fails is dropped
    ps, phis, chords = b2.orbits(curve, (pf * h_min).ravel(), phi0.ravel(), args.steps)
    ok = (chords.status == b2.SOLVED).all(axis=0)
    kept, per_orbit = int(ok.sum()), ps.shape[0]
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
    gap = abs(quad - closed) / max(abs(closed), 1e-30)
    return {"quadrature": quad, "closed_form": closed, "relative_gap": gap}


def _parse_vec(text: str) -> np.ndarray:
    return np.array([float(t) for t in text.split(",")])


def _load_spec(path) -> tuple[int, np.ndarray]:
    """(d, A) from an ellipsoid spec; a malformed spec raises ValueError."""
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    if not isinstance(doc, dict) or "d" not in doc or "A" not in doc:
        raise ValueError(f"spec {path} needs the keys 'd' and 'A'")
    d = doc["d"]
    if isinstance(d, bool) or not isinstance(d, int) or d < 2:
        raise ValueError(f"spec 'd' must be an integer >= 2, got {d!r}")
    A = np.asarray(doc["A"], dtype=float)
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
        n, m = _parse_vec(args.n), _parse_vec(args.m)
        if n.size != d or m.size != d:
            raise ValueError(f"--n and --m need d = {d} entries")
        n = bnd.unit_vector(n)
        if n is None:
            raise ValueError(f"--n must be a nonzero finite vector, got {args.n}")
        line = bnd.OrientedLineND(n, m)
    else:
        nu = np.ones(d) / math.sqrt(d)
        line = bnd.launch_line(q, nu, args.delta)
    n, _, P, incidence = bnd.orbit_nd(q, line, args.steps)
    header = (["step"] + [f"P_{i + 1}" for i in range(d)]
              + [f"n_{i + 1}" for i in range(d)] + ["incidence_angle"])
    _write_csv(args.out, header, [np.arange(args.steps), *P.T, *n[1:].T, incidence])
    return {"out": args.out, "bounces": args.steps}


def cmd_gradient_check(args) -> dict:
    d, A = _load_spec(args.spec)
    q = bnd.Quadric(A)
    rng = np.random.default_rng(_seed())
    worst = 0.0
    done = 0
    while done < args.pairs:
        n1 = rng.normal(size=d)
        n1 /= np.linalg.norm(n1)
        n2 = rng.normal(size=d)
        n2 /= np.linalg.norm(n2)
        if np.linalg.norm(n1 - n2) < 0.1:
            continue
        r1, r2 = bnd.gradient_contract_residual(q, n1, n2)
        worst = max(worst, r1, r2)
        done += 1
    return {"pairs": done, "max_residual": worst, "pass": worst < args.tol}


def cmd_chords(args) -> dict:
    if args.surface == "sphere":
        q = bnd.sphere_quadric(args.radius)
        x0 = np.array([args.radius, 0.0, 0.0])
    else:
        axes = _parse_vec(args.axes)
        if axes.size != 3 or not (axes > 0).all():
            raise ValueError(f"--axes needs 3 positive semi-axes, got {args.axes}")
        q = bnd.Quadric(np.diag(axes ** 2))
        x0 = np.array([axes[0], 0.0, 0.0])
    v0 = np.array([0.0, 1.0, 0.0])
    traj = gc.integrate_geodesic(q, x0, v0, args.length, args.step)
    frenet = gc.frenet_apparatus(traj)
    cc = gc.chord_correspondence(q, traj, args.delta)
    _write_csv(args.out, ["s", "k", "tau", "l", "ldot", "R5", "R6", "R9",
                          "D_numeric", "D_analytic", "A_coeff"],
               [traj.s, frenet.k, frenet.tau, cc.l, cc.l_dot,
                *gc.angle_condition_residuals(cc, frenet),
                *gc.planarity_residuals(cc, frenet)])
    return {"out": args.out, "samples": traj.s.size}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command grammar.  It is built on the first call, with the ``cmd_*``
    handlers bound at that time, and shared by every later ``main`` call in
    the process.  ``parse_args`` returns a fresh namespace and leaves the
    parser as it was; nothing may change the parser once it is built."""
    parser = argparse.ArgumentParser(
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
    p.add_argument("--m", default=None, help="moment, comma separated")
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
    for flag in ("step", "length", "radius", "tol"):
        if not 0 < getattr(args, flag, 1.0) < math.inf:
            return f"--{flag} must be positive and finite"
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
    except (GutkinError, IndexError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: the run needs more memory than is available", file=sys.stderr)
        return 2
    return 0 if payload.get("pass", True) else 1


if __name__ == "__main__":
    sys.exit(main())
