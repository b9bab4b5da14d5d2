"""Command-line front end: reproducible experiments emitting CSV/JSON/SVG.

Exit codes: 0 success, 1 verification failure, 2 invalid input (a bad
flag value, an unreadable or malformed table or spec, an output path that
is a directory, or a line the map cannot follow).  All angles are radians.
The environment variable GUTKIN_SEED overrides the default seed 0 for
randomized sweeps.
"""

from __future__ import annotations

import argparse
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


def _write_csv(path, header: list[str], rows):
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(FMT.format(v) if isinstance(v, float) else str(v)
                             for v in row) + "\n")


def _write_svg(path, xs, ys, size=640, margin=20):
    """Deterministic scatter SVG of (phi, p) points."""
    xs = np.asarray(xs)
    ys = np.asarray(ys)
    x0, x1 = 0.0, 2 * math.pi
    pad = 0.05 * (ys.max() - ys.min() + 1e-30)
    y0, y1 = ys.min() - pad, ys.max() + pad
    inner = size - 2 * margin
    lines = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
             f'height="{size}" viewBox="0 0 {size} {size}">',
             f'<rect width="{size}" height="{size}" fill="white"/>']
    for x, y in zip(xs, ys):
        px = margin + inner * (x - x0) / (x1 - x0)
        py = margin + inner * (1.0 - (y - y0) / (y1 - y0))
        lines.append(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="0.8" fill="black"/>')
    lines.append("</svg>")
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


def _seed() -> int:
    return int(os.environ.get("GUTKIN_SEED", "0"))


def cmd_roots(args) -> int:
    roots = sg.solve_gutkin_angles(args.n)
    _emit(args, {"roots": [float(r) for r in roots]})
    return 0


def cmd_table(args) -> int:
    table = sg.build_gutkin_table(args.n, args.root_index, args.a0, args.an)
    sg.save_table(args.out, table.curve, table)
    _emit(args, {"out": args.out, "delta": table.delta})
    return 0


def cmd_verify(args) -> int:
    curve, meta = sg.load_table(args.table)
    delta = args.delta
    if delta is None:
        if not meta:
            raise ValueError("no delta given and table carries no constant-angle metadata")
        delta = float(meta["delta"])
    residual = b2.verify_constant_angle(curve, delta, args.grid)
    ok = residual < args.tol
    _emit(args, {"delta": delta, "residual": residual, "pass": ok})
    return 0 if ok else 1


def cmd_orbit(args) -> int:
    curve, _ = sg.load_table(args.table)
    p, phi, chords = b2.orbit(curve, b2.OrientedLine2D(args.p, args.phi), args.steps)
    rows = zip(range(args.steps), p.tolist(), phi.tolist(),
               *(field.tolist() for field in chords[:4]))
    _write_csv(args.out, ["step", "p", "phi", "psi_back", "psi_fwd",
                          "angle_back", "angle_fwd"], rows)
    _emit(args, {"out": args.out, "bounces": args.steps})
    return 0


def cmd_phase_portrait(args) -> int:
    curve, _ = sg.load_table(args.table)
    h_min = min(curve.h(np.linspace(0, 2 * math.pi, 1024, endpoint=False)))
    pf, phi0 = np.meshgrid(np.linspace(-0.9, 0.9, args.p_grid),
                           np.linspace(0.0, 2 * math.pi, args.phi_grid, endpoint=False),
                           indexing="ij")
    # all starting lines advance together; an orbit that fails is dropped
    ps, phis, chords = b2.orbits(curve, (pf * h_min).ravel(), phi0.ravel(), args.steps)
    ok = (chords.status == b2.SOLVED).all(axis=0)
    rows = [[orbit_id, step, p, phi]
            for orbit_id, i in enumerate(np.flatnonzero(ok))
            for step, (p, phi) in enumerate(zip(ps[:, i], phis[:, i]))]
    if args.out:
        _write_csv(args.out, ["orbit", "step", "p", "phi"], rows)
    if args.svg:
        arr = np.array([[r[3], r[2]] for r in rows])
        _write_svg(args.svg, arr[:, 0], arr[:, 1])
    _emit(args, {"orbits": int(ok.sum()), "points": len(rows)})
    return 0


def cmd_rigidity(args) -> int:
    curve, _ = sg.load_table(args.table)
    strip = b2.Strip(args.delta1, args.delta2)
    quad = b2.rigidity_integral(curve, strip)
    closed = b2.rigidity_integral_closed(curve, strip)
    gap = abs(quad - closed) / max(abs(closed), 1e-30)
    _emit(args, {"quadrature": quad, "closed_form": closed, "relative_gap": gap})
    return 0


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


def cmd_ellipsoid(args) -> int:
    d, A = _load_spec(args.spec)
    if d > 16:
        raise ValueError("dimension capped at 16 for the CLI")
    if (args.n is None) != (args.m is None):
        raise ValueError("--n and --m must be given together")
    q = bnd.Quadric(A)
    if args.n is not None:
        line = bnd.OrientedLineND(_parse_vec(args.n) / np.linalg.norm(_parse_vec(args.n)),
                                  _parse_vec(args.m))
    else:
        nu = np.ones(d) / math.sqrt(d)
        line = bnd.launch_line(q, nu, args.delta)
    n, _, P, incidence = bnd.orbit_nd(q, line, args.steps)
    rows = [[step] + p + n2 + [angle] for step, (p, n2, angle)
            in enumerate(zip(P.tolist(), n[1:].tolist(), incidence.tolist()))]
    header = (["step"] + [f"P_{i + 1}" for i in range(d)]
              + [f"n_{i + 1}" for i in range(d)] + ["incidence_angle"])
    _write_csv(args.out, header, rows)
    _emit(args, {"out": args.out, "bounces": len(rows)})
    return 0


def cmd_gradient_check(args) -> int:
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
    ok = worst < args.tol
    _emit(args, {"pairs": done, "max_residual": worst, "pass": ok})
    return 0 if ok else 1


def cmd_chords(args) -> int:
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
    r5, r6, r9 = gc.angle_condition_residuals(cc, frenet)
    d_num, d_ana, a_coeff = gc.planarity_residuals(cc, frenet)
    rows = []
    for i in range(traj.s.size):
        rows.append([float(traj.s[i]), float(frenet.k[i]), float(frenet.tau[i]),
                     float(cc.l[i]), float(cc.l_dot[i]), float(r5[i]), float(r6[i]),
                     float(r9[i]), float(d_num[i]), float(d_ana[i]),
                     float(a_coeff[i])])
    _write_csv(args.out, ["s", "k", "tau", "l", "ldot", "R5", "R6", "R9",
                          "D_numeric", "D_analytic", "A_coeff"], rows)
    _emit(args, {"out": args.out, "samples": len(rows)})
    return 0


def build_parser() -> argparse.ArgumentParser:
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
    for flag in ("steps", "pairs", "p_grid", "phi_grid"):
        if getattr(args, flag, 1) < 1:
            return f"--{flag.replace('_', '-')} must be at least 1"
    for flag in ("step", "length", "radius"):
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
        return args.func(args)
    except (GutkinError, IndexError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
