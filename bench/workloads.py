"""The benchmark's workloads: seeded job lists and the oracle check of each job.

A workload is a closed loop of jobs in one process.  Its job list is built
once from the seed and replayed in rounds, so every round runs the same jobs.
The list's shape (job kinds, sizes, tables used, ``roots`` orders) is the same
for every seed; the seed draws the tables' and lines' parameters.  Each job
is an in-process
``gutkin.cli.main(["--json", ...])`` call or a library call the CLI cannot
reach, and ``Job.check`` compares its output with ``oracles``.

An op is one unit of checked output: a chord located (a ``verify`` grid point
or a cross-check line), a bounce, an expected root, a gradient or twist
pair, a geodesic sample, or a rigidity evaluation.  A failed op is one the
program refused, dropped or missed (counted by error class); an op whose
output is outside the oracle's tolerance also fails and marks the run
incorrect.  The near-tangent probe lines of ``planar-fan`` are fixed inputs,
the same for every seed, so the refusals they meet depend on the program
alone.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import inputs
import oracles

PLANAR_TOL = 1e-9
ND_TOL = 1e-9
TWIST_TOL = 1e-6
CHORD_TOL = 1e-8
RIGIDITY_RTOL = 1e-9
VERIFY_TOL = 1e-6       # the CLI's default --tol
GRADIENT_TOL = 1e-6     # the CLI's default --tol
TANGENT_DELTA = math.pi / 64  # circle verify below this hits the 64-cell bracket grid

# error classes that mean a wrong answer, not a refusal
WRONG = frozenset({"wrong_verdict", "out_of_tolerance", "malformed_output",
                   "spurious_root"})


@dataclass
class Verdict:
    ok: int = 0
    failed: Counter = field(default_factory=Counter)

    @property
    def failed_ops(self) -> int:
        return sum(self.failed.values())

    @property
    def wrong(self) -> bool:
        return any(self.failed[c] for c in WRONG)


@dataclass
class Job:
    """``call`` returns (wall seconds of the program's work, raw output)."""

    kind: str
    ops: int
    call: Callable[[], tuple]
    check: Callable[[object], Verdict]
    artifacts: tuple = ()


@dataclass
class CliRun:
    rc: int | None
    stdout: str
    error: BaseException | None


def call_cli(gutkin, argv, env=None):
    """One in-process CLI call with --json; stdout is captured, stderr dropped.

    Only ``cli.main`` is timed, not the capture around it.
    """
    if env:
        os.environ.update(env)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        t0 = time.perf_counter()
        try:
            rc = gutkin.cli.main(["--json", *argv])
        except SystemExit as exc:  # argparse rejected the arguments
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a traceback the CLI let through
            return time.perf_counter() - t0, CliRun(None, out.getvalue(), exc)
        wall = time.perf_counter() - t0
    return wall, CliRun(rc, out.getvalue(), None)


def timed(fn):
    """A library job's call: the whole loop over the program is timed."""
    def call():
        t0 = time.perf_counter()
        result = fn()
        return time.perf_counter() - t0, result
    return call


def _all_failed(ops: int, cls: str) -> Verdict:
    return Verdict(0, Counter({cls: ops}))


def _cli_doc(res: CliRun, expected_rc: int, ops: int):
    """The JSON summary of a CLI run, or the verdict that fails every op."""
    if res.error is not None:
        return None, _all_failed(ops, f"raised:{type(res.error).__name__}")
    if res.rc != expected_rc:
        if res.rc in (0, 1) and expected_rc in (0, 1):
            return None, _all_failed(ops, "wrong_verdict")
        return None, _all_failed(ops, f"exit_{res.rc}")
    try:
        return json.loads(res.stdout.strip().splitlines()[-1]), None
    except (ValueError, IndexError):
        return None, _all_failed(ops, "malformed_output")


def _read_csv(path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _score(ops: int, good: np.ndarray, missing: int = 0, missing_cls: str = "") -> Verdict:
    good = np.asarray(good, dtype=bool)
    v = Verdict(int(good.sum()), Counter())
    if (~good).any():
        v.failed["out_of_tolerance"] += int((~good).sum())
    if missing:
        v.failed[missing_cls] += missing
    unaccounted = ops - v.ok - v.failed_ops
    if unaccounted > 0:
        v.failed["malformed_output"] += unaccounted
    return v


def _planar_steps_ok(table, p, phi, p_next, phi_next) -> np.ndarray:
    ref = oracles.planar_bounce(table, p, phi)
    return ((np.abs(ref["p2"] - p_next) < PLANAR_TOL)
            & (oracles.angle_gap(ref["phi2"], phi_next) < PLANAR_TOL))


# --- job kinds --------------------------------------------------------------


def roots_job(ctx, n: int) -> Job:
    ops = n // 2 - 1

    def check(res):
        doc, bad = _cli_doc(res, 0, ops)
        if bad:
            return bad
        got = np.array(doc["roots"], dtype=float)
        want = np.array(oracles.gutkin_roots(n))
        if got.size == 0:
            return _all_failed(ops, "missing_root")
        gap = np.abs(want[:, None] - got[None, :])
        matched = int((gap.min(axis=1) < PLANAR_TOL).sum())
        spurious = int((gap.min(axis=0) >= PLANAR_TOL).sum())
        v = Verdict(matched, Counter())
        if ops - matched:
            v.failed["missing_root"] += ops - matched
        if spurious:
            moved = min(spurious, v.ok)
            v.ok -= moved
            v.failed["spurious_root"] += max(moved, 1)
        return v

    return Job("roots", ops, lambda: call_cli(ctx.gutkin, ["roots", "--n", str(n)]), check)


def verify_job(ctx, kind: str, table_path, delta: float, grid: int,
               expected_rc: int) -> Job:
    delta = float(delta)
    argv = ["verify", "--table", str(table_path), "--delta", repr(delta),
            "--grid", str(grid)]

    def check(res):
        doc, bad = _cli_doc(res, expected_rc, grid)
        if bad:
            return bad
        passed = doc["residual"] < VERIFY_TOL
        if doc["pass"] != passed or passed != (expected_rc == 0) or doc["delta"] != delta:
            return _all_failed(grid, "wrong_verdict")
        return Verdict(grid)

    return Job(kind, grid, lambda: call_cli(ctx.gutkin, argv), check)


def rigidity_job(ctx, table, table_path, delta1: float, delta2: float) -> Job:
    delta1, delta2 = float(delta1), float(delta2)
    argv = ["rigidity", "--table", str(table_path), "--delta1", repr(delta1),
            "--delta2", repr(delta2)]
    want = oracles.rigidity_closed(table, delta1, delta2)

    def check(res):
        doc, bad = _cli_doc(res, 0, 1)
        if bad:
            return bad
        scale = max(abs(want), 1e-300)
        gap = max(abs(doc["quadrature"] - want), abs(doc["closed_form"] - want))
        good = gap <= RIGIDITY_RTOL * scale
        return _score(1, [good])

    return Job("rigidity", 1, lambda: call_cli(ctx.gutkin, argv), check)


def phase_portrait_job(ctx, table, table_path, p_grid: int, phi_grid: int,
                       steps: int) -> Job:
    out, svg = ctx.artifact("pp.csv"), ctx.artifact("pp.svg")
    argv = ["phase-portrait", "--table", str(table_path), "--p-grid", str(p_grid),
            "--phi-grid", str(phi_grid), "--steps", str(steps),
            "--out", str(out), "--svg", str(svg)]
    attempted = p_grid * phi_grid
    ops = attempted * steps

    def check(res):
        doc, bad = _cli_doc(res, 0, ops)
        if bad:
            return bad
        rows = _read_csv(out)
        orbits = doc["orbits"]
        if doc["points"] != rows.shape[0] or rows.shape[0] != orbits * (steps + 1):
            return _all_failed(ops, "malformed_output")
        same = rows[1:, 0] == rows[:-1, 0]
        good = _planar_steps_ok(table, rows[:-1, 2][same], rows[:-1, 3][same],
                                rows[1:, 2][same], rows[1:, 3][same])
        return _score(ops, good, (attempted - orbits) * steps, "dropped_orbit")

    return Job("phase-portrait", ops, lambda: call_cli(ctx.gutkin, argv), check, (out, svg))


def orbit_job(ctx, kind: str, table, table_path, p: float, phi: float, steps: int) -> Job:
    out = ctx.artifact("orbit.csv")
    argv = ["orbit", "--table", str(table_path), "--p", repr(p), "--phi", repr(phi),
            "--steps", str(steps), "--out", str(out)]

    def check(res):
        doc, bad = _cli_doc(res, 0, steps)
        if bad:
            return bad
        rows = _read_csv(out)
        if doc["bounces"] != steps or rows.shape[0] != steps:
            return _all_failed(steps, "malformed_output")
        ref = oracles.planar_bounce(table, rows[:, 1], rows[:, 2])
        good = ((oracles.angle_gap(ref["psi_back"], rows[:, 3]) < PLANAR_TOL)
                & (oracles.angle_gap(ref["psi_fwd"], rows[:, 4]) < PLANAR_TOL)
                & (np.abs(ref["angle_back"] - rows[:, 5]) < PLANAR_TOL)
                & (np.abs(ref["angle_fwd"] - rows[:, 6]) < PLANAR_TOL))
        good[:-1] &= ((np.abs(ref["p2"][:-1] - rows[1:, 1]) < PLANAR_TOL)
                      & (oracles.angle_gap(ref["phi2"][:-1], rows[1:, 2]) < PLANAR_TOL))
        return _score(steps, good)

    return Job(kind, steps, lambda: call_cli(ctx.gutkin, argv), check, (out,))


def cross_check_job(ctx, kind: str, table, curve, lines) -> Job:
    """reflect_geometric against reflect_variational and the oracle, per line."""
    b2 = ctx.gutkin.billiard2d
    p = np.array([ln[0] for ln in lines])
    phi = np.array([ln[1] for ln in lines])

    def call():
        results = []
        for pi, phii in lines:
            line = b2.OrientedLine2D(pi, phii)
            try:
                geo, chord = b2.reflect_geometric(curve, line)
                var = b2.reflect_variational(curve, line)
            except Exception as exc:  # refusals are counted by class
                results.append(exc)
                continue
            results.append((geo.p, geo.phi, var.p, var.phi, chord.angle_back,
                            chord.angle_fwd))
        return results

    def check(results):
        v = Verdict()
        ref = oracles.planar_bounce(table, p, phi)
        for i, r in enumerate(results):
            if isinstance(r, BaseException):
                v.failed[f"raised:{type(r).__name__}"] += 1
                continue
            geo_p, geo_phi, var_p, var_phi, ang_b, ang_f = r
            good = (abs(geo_p - ref["p2"][i]) < PLANAR_TOL
                    and abs(var_p - ref["p2"][i]) < PLANAR_TOL
                    and oracles.angle_gap(geo_phi, ref["phi2"][i]) < PLANAR_TOL
                    and oracles.angle_gap(var_phi, ref["phi2"][i]) < PLANAR_TOL
                    and abs(ang_b - ref["angle_back"][i]) < PLANAR_TOL
                    and abs(ang_f - ref["angle_fwd"][i]) < PLANAR_TOL)
            if table.cos_k.size == 0:  # circle: incidence is arccos(p / R)
                want = math.acos(min(1.0, abs(p[i]) / table.a0))
                good = good and abs(ang_b - want) < PLANAR_TOL and abs(ang_f - want) < PLANAR_TOL
            if good:
                v.ok += 1
            else:
                v.failed["out_of_tolerance"] += 1
        return v

    return Job(kind, len(lines), timed(call), check)


def variational_job(ctx, table, curve, p0: float, phi0: float, steps: int) -> Job:
    """reflect_variational iterated: each bounce waits on the previous one."""
    b2 = ctx.gutkin.billiard2d

    def call():
        line = b2.OrientedLine2D(p0, phi0)
        lines = [(line.p, line.phi)]
        try:
            for _ in range(steps):
                line = b2.reflect_variational(curve, line)
                lines.append((line.p, line.phi))
        except Exception as exc:
            return lines, exc
        return lines, None

    def check(result):
        lines, exc = result
        arr = np.array(lines)
        good = _planar_steps_ok(table, arr[:-1, 0], arr[:-1, 1], arr[1:, 0], arr[1:, 1])
        cls = f"raised:{type(exc).__name__}" if exc else ""
        return _score(steps, good, steps - good.size, cls)

    return Job("variational", steps, timed(call), check)


def ellipsoid_job(ctx, A, spec_path, delta: float, steps: int) -> Job:
    delta = float(delta)
    out = ctx.artifact("ellipsoid.csv")
    d = A.shape[0]
    argv = ["ellipsoid", "--spec", str(spec_path), "--delta", repr(delta),
            "--steps", str(steps), "--out", str(out)]

    def check(res):
        doc, bad = _cli_doc(res, 0, steps)
        if bad:
            return bad
        rows = _read_csv(out)
        if doc["bounces"] != steps or rows.shape != (steps, 2 * d + 2):
            return _all_failed(steps, "malformed_output")
        err = oracles.ellipsoid_orbit_errors(A, delta, rows[:, 1:1 + d],
                                             rows[:, 1 + d:1 + 2 * d], rows[:, -1])
        return _score(steps, err < ND_TOL)

    return Job(f"ellipsoid-d{d}", steps, lambda: call_cli(ctx.gutkin, argv), check, (out,))


def gradient_job(ctx, spec_path, d: int, pairs: int, program_seed: int) -> Job:
    argv = ["gradient-check", "--spec", str(spec_path), "--pairs", str(pairs)]
    env = {"GUTKIN_SEED": str(program_seed)}

    def check(res):
        doc, bad = _cli_doc(res, 0, pairs)
        if bad:
            return bad
        if doc["pairs"] != pairs or not doc["pass"]:
            return _all_failed(pairs, "wrong_verdict")
        return _score(pairs, np.full(pairs, doc["max_residual"] < GRADIENT_TOL))

    return Job(f"gradient-d{d}", pairs, lambda: call_cli(ctx.gutkin, argv, env), check)


def twist_job(ctx, A, quadric, pairs) -> Job:
    bnd = ctx.gutkin.billiard_nd

    def call():
        out = []
        for n1, n2 in pairs:
            try:
                out.append(bnd.twist_jacobian_min_sv(quadric, n1, n2))
            except Exception as exc:
                out.append(exc)
        return out

    def check(values):
        v = Verdict()
        for (n1, n2), got in zip(pairs, values):
            if isinstance(got, BaseException):
                v.failed[f"raised:{type(got).__name__}"] += 1
                continue
            want = oracles.twist_min_sv(A, n1, n2)
            if abs(got - want) <= TWIST_TOL * max(1.0, want):
                v.ok += 1
            else:
                v.failed["out_of_tolerance"] += 1
        return v

    return Job(f"twist-d{A.shape[0]}", len(pairs), timed(call), check)


def chords_job(ctx, surface: str, shape, delta: float, length: float, step: float) -> Job:
    delta = float(delta)
    out = ctx.artifact("chords.csv")
    samples = max(1, round(length / step)) + 1
    argv = ["chords", "--surface", surface, "--delta", repr(delta),
            "--length", repr(length), "--step", repr(step), "--out", str(out)]
    if surface == "sphere":
        argv += ["--radius", repr(shape)]
    else:
        argv += ["--axes", ",".join(repr(float(a)) for a in shape)]

    def check(res):
        doc, bad = _cli_doc(res, 0, samples)
        if bad:
            return bad
        rows = _read_csv(out)
        if doc["samples"] != samples or rows.shape[0] != samples:
            return _all_failed(samples, "malformed_output")
        if surface == "sphere":
            want = np.full(samples, oracles.sphere_chord_length(shape, delta))
        else:
            want = oracles.ellipse_chord_lengths(shape[0], shape[1], rows[:, 0], delta)
        return _score(samples, np.abs(rows[:, 3] - want) < CHORD_TOL)

    return Job(f"chords-{surface}", samples, lambda: call_cli(ctx.gutkin, argv), check, (out,))


# --- workloads ----------------------------------------------------------------


class Context:
    """Imported package, work directory and the seeded assets of a workload."""

    def __init__(self, gutkin, workdir: Path, seed: int):
        self.gutkin = gutkin
        self.workdir = workdir
        self.seed = seed
        self.tables = {}
        self.curves = {}
        self.specs = {}
        self.quadrics = {}
        self._artifacts = 0

    def artifact(self, name: str) -> Path:
        self._artifacts += 1
        return self.workdir / f"{self._artifacts:06d}-{name}"

    def table_path(self, name: str) -> Path:
        return self.workdir / f"table-{name}.json"

    def add_table(self, table):
        self.tables[table.name] = table
        self.table_path(table.name).write_text(table.to_json(), encoding="utf-8")
        # loading is part of set-up: the program parses and checks the file
        self.curves[table.name] = self.gutkin.support_geometry.load_table(
            self.table_path(table.name))[0]

    def add_spec(self, d: int, A: np.ndarray):
        self.specs[d] = A
        (self.workdir / f"spec-d{d}.json").write_text(inputs.spec_json(A), encoding="utf-8")
        self.quadrics[d] = self.gutkin.billiard_nd.Quadric(A)

    def spec_path(self, d: int) -> Path:
        return self.workdir / f"spec-d{d}.json"


def _rng(seed: int, *stream) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


# the near-tangent probe's stream: fixed, not drawn from --seed
PROBE_RNG = (0, 2)


@dataclass(frozen=True)
class Workload:
    """Sizes for a real run and for the smoke test; why each workload exists
    is in BENCHMARK.json."""

    name: str
    sizes: dict
    tiny: dict
    tail_pct: float
    setup: Callable
    jobs: Callable
    warmup: Callable


def _cycle(names, i):
    return names[i % len(names)]


# planar-fan ----------------------------------------------------------------

def _fan_setup(ctx, sz):
    rng = _rng(ctx.seed, 0)
    for i, n in enumerate(sz["table_orders"]):
        ctx.add_table(inputs.gutkin_table(rng, f"g{i}", n))
    for i in range(2):
        ctx.add_table(inputs.circle_table(rng, f"c{i}"))
    ctx.add_table(inputs.circle_table(_rng(*PROBE_RNG), "probe"))


def _fan_lines(table, rng, count, near_tangent=0, probe_rng=None):
    """Seeded lines at incidence 0.2..1.4; the first ``near_tangent`` are
    drawn from ``probe_rng`` instead, at incidence 2e-3..0.045."""
    psi = rng.uniform(0.0, 2 * math.pi, count)
    alpha = rng.uniform(0.2, 1.4, count)
    if near_tangent:
        psi[:near_tangent] = probe_rng.uniform(0.0, 2 * math.pi, near_tangent)
        alpha[:near_tangent] = probe_rng.uniform(2e-3, 0.045, near_tangent)
    p, phi = inputs.departure_line(table, psi, alpha)
    return list(zip(p.tolist(), phi.tolist()))


def _fan_jobs(ctx, sz):
    rng = _rng(ctx.seed, 1)
    gutkin = [n for n in ctx.tables if n.startswith("g")]
    jobs = [roots_job(ctx, n) for n in (*sz["roots_small"], *sz["roots_large"])]
    for i in range(sz["rigidity"]):
        name = _cycle(gutkin, i)
        jobs.append(rigidity_job(ctx, ctx.tables[name], ctx.table_path(name),
                                 rng.uniform(0.05, 0.7), rng.uniform(0.8, math.pi / 2)))
    grid = sz["grid"]
    for i in range(sz["verify_root"] + sz["verify_off"]):
        name = _cycle(gutkin, i)
        off = i >= sz["verify_root"]
        delta = ctx.tables[name].delta + (0.1 if off else 0.0)
        jobs.append(verify_job(ctx, "verify-off" if off else "verify-root",
                               ctx.table_path(name), delta, grid, 1 if off else 0))
    strata = [(0.012, 0.045), (0.06, 0.6), (0.6, 1.5)][:sz["verify_circle"]]
    for i, (lo, hi) in enumerate(strata):
        delta = rng.uniform(lo, hi)
        kind = "verify-circle-small" if delta < TANGENT_DELTA else "verify-circle"
        jobs.append(verify_job(ctx, kind, ctx.table_path(f"c{i % 2}"), delta, grid, 0))
    for i in range(sz["phase_portrait"]):
        name = _cycle(gutkin, 3 + i)
        jobs.append(phase_portrait_job(ctx, ctx.tables[name], ctx.table_path(name),
                                       *sz["pp_shape"]))
    for name in ("c0", _cycle(gutkin, 5)):
        lines = _fan_lines(ctx.tables[name], rng, sz["cross_lines"])
        jobs.append(cross_check_job(ctx, "cross-check", ctx.tables[name],
                                    ctx.curves[name], lines))
    lines = _fan_lines(ctx.tables["probe"], rng, sz["cross_lines"], sz["near_tangent"],
                       _rng(*PROBE_RNG, 1))
    jobs.append(cross_check_job(ctx, "cross-near-tangent", ctx.tables["probe"],
                                ctx.curves["probe"], lines))
    order = rng.permutation(len(jobs))
    return [jobs[i] for i in order]


def _fan_warmup(ctx, sz):
    name = "g0"
    return verify_job(ctx, "warmup", ctx.table_path(name), ctx.tables[name].delta,
                      sz["warmup_grid"], 0)


# planar-orbit ---------------------------------------------------------------

def _orbit_setup(ctx, sz):
    rng = _rng(ctx.seed, 0)
    ctx.add_table(inputs.gutkin_table(rng, "g5", 5))
    ctx.add_table(inputs.convex_table(rng, "deg", sz["degree"]))


def _orbit_jobs(ctx, sz):
    rng = _rng(ctx.seed, 1)
    jobs = []
    for name, count in (("g5", sz["orbit_g5"]), ("deg", sz["orbit_deg"])):
        for _ in range(count):
            p, phi = inputs.departure_line(ctx.tables[name], rng.uniform(0, 2 * math.pi),
                                           rng.uniform(0.3, 1.3))
            jobs.append(orbit_job(ctx, f"orbit-{name}", ctx.tables[name],
                                  ctx.table_path(name), float(p), float(phi), sz["steps"]))
    for name in ("g5", "deg"):
        for _ in range(sz["variational"]):
            p, phi = inputs.departure_line(ctx.tables[name], rng.uniform(0, 2 * math.pi),
                                           rng.uniform(0.3, 1.3))
            jobs.append(variational_job(ctx, ctx.tables[name], ctx.curves[name],
                                        float(p), float(phi), sz["var_steps"]))
    order = rng.permutation(len(jobs))
    return [jobs[i] for i in order]


def _orbit_warmup(ctx, sz):
    p, phi = inputs.departure_line(ctx.tables["deg"], 0.5, 0.8)
    return orbit_job(ctx, "warmup", ctx.tables["deg"], ctx.table_path("deg"),
                     float(p), float(phi), sz["warmup_steps"])


# spatial ---------------------------------------------------------------------

SPATIAL_DIMS = (3, 8, 16)


def _spatial_setup(ctx, sz):
    rng = _rng(ctx.seed, 0)
    for d in SPATIAL_DIMS:
        ctx.add_spec(d, inputs.ellipsoid_spec(rng, d))


def _spatial_jobs(ctx, sz):
    rng = _rng(ctx.seed, 1)
    length, step = sz["chord_length"], sz["chord_step"]
    jobs = [
        chords_job(ctx, "sphere", float(rng.uniform(0.6, 1.6)), rng.uniform(0.3, 1.2),
                   length, step),
        chords_job(ctx, "ellipsoid", (float(rng.uniform(1.3, 2.0)), float(rng.uniform(0.8, 1.2)),
                                      float(rng.uniform(0.5, 0.75))),
                   rng.uniform(0.3, 1.2), length, step),
    ]
    for d in SPATIAL_DIMS:
        jobs.append(ellipsoid_job(ctx, ctx.specs[d], ctx.spec_path(d),
                                  rng.uniform(0.3, 1.2), sz["bounces"]))
        jobs.append(gradient_job(ctx, ctx.spec_path(d), d, sz["gradient_pairs"],
                                 int(rng.integers(2 ** 31))))
    for d in sz["twist_dims"]:
        jobs.append(twist_job(ctx, ctx.specs[d], ctx.quadrics[d],
                              inputs.unit_pairs(rng, d, sz["twist_pairs"])))
    order = rng.permutation(len(jobs))
    return [jobs[i] for i in order]


def _spatial_warmup(ctx, sz):
    return chords_job(ctx, "sphere", 1.0, 0.5, sz["warmup_length"], sz["chord_step"])


WORKLOADS = {w.name: w for w in (
    Workload(
        name="planar-fan",
        sizes=dict(table_orders=(4, 5, 6, 7, 8, 9),
                   roots_small=(4, 5, 6, 7, 8, 10, 12, 14, 16, 18, 20, 23),
                   roots_large=(36, 80), rigidity=8,
                   verify_root=3, verify_off=1, verify_circle=3, grid=120,
                   phase_portrait=1, pp_shape=(3, 2, 30), cross_lines=24,
                   near_tangent=8, warmup_grid=16),
        tiny=dict(table_orders=(4, 5), roots_small=(5,), roots_large=(36,), rigidity=1,
                  verify_root=1, verify_off=1, verify_circle=2, grid=8,
                  phase_portrait=1, pp_shape=(1, 1, 3), cross_lines=3,
                  near_tangent=2, warmup_grid=8),
        tail_pct=80.0,
        setup=_fan_setup, jobs=_fan_jobs, warmup=_fan_warmup),
    Workload(
        name="planar-orbit",
        sizes=dict(degree=32, orbit_g5=3, orbit_deg=3, steps=100, variational=2,
                   var_steps=100, warmup_steps=16),
        tiny=dict(degree=32, orbit_g5=1, orbit_deg=1, steps=3, variational=1,
                  var_steps=3, warmup_steps=2),
        tail_pct=75.0,
        setup=_orbit_setup, jobs=_orbit_jobs, warmup=_orbit_warmup),
    Workload(
        name="spatial",
        sizes=dict(chord_length=math.pi, chord_step=1e-3, bounces=1500,
                   gradient_pairs=100, twist_dims=(3, 8, 16), twist_pairs=15,
                   warmup_length=0.25),
        tiny=dict(chord_length=0.02, chord_step=1e-3, bounces=3, gradient_pairs=2,
                  twist_dims=(8,), twist_pairs=1, warmup_length=0.01),
        tail_pct=85.0,
        setup=_spatial_setup, jobs=_spatial_jobs, warmup=_spatial_warmup),
)}
