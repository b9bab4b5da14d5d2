"""Per-layer tracing installed from outside the program.

The layers are the program's modules.  ``Tracer.install`` wraps every public
function of ``support_geometry``, ``billiard2d``, ``billiard_nd`` and
``geodesic_chords``, and ``cli.main``, in every module that binds the name
(``billiard2d`` imports ``eval_support`` and ``boundary_point`` directly),
and the methods of the public classes of those modules, so that layer work
called straight from the CLI (``Quadric(...)``, ``curve.h(...)``) is charged
to its layer.  Entry points record spans (name, start, end, parent span,
job id); the hot inner calls in ``HOT`` and the methods record counts and
summed times only, and a method is charged only when another layer calls
it.  Self time is a call's duration minus the time of the wrapped calls
inside it, so the self times of all calls made by a job add up to the time
the job spent inside wrapped calls.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("cli", "support_geometry", "billiard2d", "billiard_nd", "geodesic_chords")
HOT = frozenset({
    "support_geometry.eval_support", "support_geometry.boundary_point",
    "support_geometry.curvature_radius", "billiard_nd.generating_value_nd",
})
EVAL_GROUP = frozenset({
    "support_geometry.eval_support", "support_geometry.boundary_point",
    "support_geometry.curvature_radius",
})
# dunder methods that do the program's work; other dunders are generated
METHODS = frozenset({"__call__", "__post_init__"})
# calls whose boundary evaluations are counted per call
EVAL_OWNERS = frozenset({"billiard2d.chord_incidence_angles",
                         "billiard2d.reflect_variational"})


class _Frame:
    __slots__ = ("name", "layer", "child", "span", "evals")

    def __init__(self, name, layer, span):
        self.name = name
        self.layer = layer
        self.child = 0.0
        self.span = span
        self.evals = 0


class Tracer:
    """Counts, summed times and spans of the wrapped calls, kept in memory."""

    def __init__(self, package):
        self.package = package
        self.job = None
        self.spans = []
        self.calls = Counter()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.layer_self = defaultdict(float)
        self.job_self = defaultdict(float)
        self.wrapped_calls = Counter()
        self.errors = Counter()
        self.owner_evals = Counter()
        self.eval_calls = 0
        self.eval_points = 0
        self.roots_found = 0
        self.roots_expected = 0
        self.rk4_steps = 0
        self.chord_samples = 0
        self.exits = Counter()
        self.chord_attempts = []
        self._stack = []
        self._patched = []

    # --- installation ---------------------------------------------------

    def install(self):
        pkg = self.package
        modules = (pkg, pkg.cli, pkg.support_geometry, pkg.billiard2d,
                   pkg.billiard_nd, pkg.geodesic_chords)
        targets = [("cli.main", "cli", pkg.cli.main)]
        for mod in modules[2:]:
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    targets.append((f"{layer}.{attr}", layer, obj))
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if inspect.isfunction(fn) and (meth in METHODS or not meth.startswith("_")):
                            name = f"{layer}.{attr}.{meth}"
                            setattr(obj, meth, self._wrap(name, layer, fn, method=True))
                            self._patched.append((obj, meth, fn))
        for name, layer, fn in targets:
            wrapper = self._wrap(name, layer, fn, hot=name in HOT)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, fn))

    def uninstall(self):
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()

    # --- the wrapper ----------------------------------------------------

    def _wrap(self, name, layer, fn, hot=False, method=False):
        """A method is charged only when called from another layer; inside
        its own layer its time stays with the caller, which keeps the
        wrappers off the innermost loops (``TrigPolynomial.__call__``)."""
        hot = hot or method
        stack = self._stack
        spans = self.spans
        in_eval_group = name in EVAL_GROUP
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if method and parent is not None and parent.layer == layer:
                return fn(*args, **kwargs)
            parent_span = parent.span if parent else None
            if in_eval_group and (parent is None or parent.name not in EVAL_GROUP):
                self._count_eval(args, kwargs)
            if hot:
                frame = _Frame(name, layer, parent_span)
            else:
                frame = _Frame(name, layer, len(spans))
                spans.append([name, 0.0, 0.0, parent_span, self.job])
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.errors[(name, type(exc).__name__)] += 1
                if name == "billiard2d.chord_incidence_angles":
                    self.chord_attempts.append((args[0], args[1], False))
                raise
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                own = dur - frame.child
                if parent is not None:
                    parent.child += dur
                if not hot:
                    spans[frame.span][1] = t0
                    spans[frame.span][2] = t1
                self.calls[name] += 1
                self.total[name] += dur
                self.self_time[name] += own
                self.layer_self[layer] += own
                self.job_self[self.job] += own
                self.wrapped_calls[self.job] += 1
                if name in EVAL_OWNERS:
                    self.owner_evals[name] += frame.evals
            self._observe(name, args, result)
            return result

        return traced

    def _count_eval(self, args, kwargs):
        phi = args[1] if len(args) > 1 else kwargs.get("phi")
        self.eval_calls += 1
        self.eval_points += int(np.size(phi))
        for frame in reversed(self._stack):
            if frame.name in EVAL_OWNERS:
                frame.evals += 1
                break

    def _observe(self, name, args, result):
        if name == "support_geometry.solve_gutkin_angles":
            self.roots_found += len(result)
            self.roots_expected += int(args[0]) // 2 - 1
        elif name == "billiard2d.chord_incidence_angles":
            self.chord_attempts.append((args[0], args[1], True))
        elif name == "geodesic_chords.integrate_geodesic":
            self.rk4_steps += result.s.size - 1
        elif name == "geodesic_chords.chord_correspondence":
            self.chord_samples += result.l.size
        elif name == "cli.main":
            self.exits[result] += 1

    def wrapper_cost(self, calls: int = 20000, jobs: int = 200):
        """(seconds a wrapper adds per call, seconds a job spends outside its
        wrapped calls), from wrapped no-ops; the second is the worst of
        ``jobs`` one-call jobs, each through a freshly made wrapper."""
        def noop():
            return None

        probe = Tracer(self.package)
        per_call = math.inf
        for _ in range(3):
            wrapped = probe._wrap("calibration.noop", "calibration", noop)
            t0 = time.perf_counter()
            for _ in range(calls):
                noop()
            t1 = time.perf_counter()
            for _ in range(calls):
                wrapped()
            t2 = time.perf_counter()
            per_call = min(per_call, ((t2 - t1) - (t1 - t0)) / calls)
        per_job = 0.0
        for job in range(jobs):
            probe.job = job
            wrapped = probe._wrap("calibration.noop", "calibration", noop)
            t0 = time.perf_counter()
            wrapped()
            per_job = max(per_job, time.perf_counter() - t0 - probe.job_self[job])
        return per_call, per_job

    # --- output -----------------------------------------------------------

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as f:
            f.write(json.dumps(["name", "start", "end", "parent", "job"]) + "\n")
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tr: Tracer, chord_eligible: int, bytes_written: int) -> dict:
    """Per-layer metric values; a layer a workload does not run reads 0."""
    c, tot, own = tr.calls, tr.total, tr.self_time
    chord = "billiard2d.chord_incidence_angles"
    var = "billiard2d.reflect_variational"
    solved = sum(1 for *_, ok in tr.chord_attempts if ok)
    m = {
        "support_geometry.eval_calls": tr.eval_calls,
        "support_geometry.eval_points": tr.eval_points,
        "support_geometry.eval_self_s": sum(own[n] for n in EVAL_GROUP),
        "support_geometry.roots_calls": c["support_geometry.solve_gutkin_angles"],
        "support_geometry.roots_self_s": own["support_geometry.solve_gutkin_angles"],
        "support_geometry.roots_found_ratio": _ratio(tr.roots_found, tr.roots_expected),
        "support_geometry.load_self_s": tot["support_geometry.load_table"],
        "billiard2d.chord_solves": solved,
        "billiard2d.chord_self_s": own[chord],
        "billiard2d.evals_per_chord": _ratio(tr.owner_evals[chord], len(tr.chord_attempts)),
        "billiard2d.chord_refused.TangentLine": tr.errors[(chord, "TangentLine")],
        "billiard2d.chord_refused.NoIntersection": tr.errors[(chord, "NoIntersection")],
        "billiard2d.chord_useful_ratio": _ratio(solved, chord_eligible),
        "billiard2d.bounces": c["billiard2d.reflect_geometric"],
        "billiard2d.bounce_self_s": own["billiard2d.reflect_geometric"],
        "billiard2d.variational_calls": c[var],
        "billiard2d.variational_self_s": own[var],
        "billiard2d.evals_per_variational": _ratio(tr.owner_evals[var], c[var]),
        "billiard2d.verify_s": tot["billiard2d.verify_constant_angle"],
        "billiard2d.orbit_s": tot["billiard2d.orbit"],
        "billiard2d.rigidity_s": (tot["billiard2d.rigidity_integral"]
                                  + tot["billiard2d.rigidity_integral_closed"]),
        "billiard_nd.reflect_calls": c["billiard_nd.reflect_nd"],
        "billiard_nd.reflect_self_s": own["billiard_nd.reflect_nd"],
        "billiard_nd.gradient_pairs": c["billiard_nd.gradient_contract_residual"],
        "billiard_nd.gradient_self_s": own["billiard_nd.gradient_contract_residual"],
        "billiard_nd.generating_evals": c["billiard_nd.generating_value_nd"],
        "billiard_nd.twist_calls": c["billiard_nd.twist_jacobian_min_sv"],
        "billiard_nd.twist_self_s": own["billiard_nd.twist_jacobian_min_sv"],
        "billiard_nd.tangent_basis_s": tot["billiard_nd.tangent_basis"],
        "geodesic_chords.rk4_steps": tr.rk4_steps,
        "geodesic_chords.integrate_self_s": own["geodesic_chords.integrate_geodesic"],
        "geodesic_chords.frenet_s": tot["geodesic_chords.frenet_apparatus"],
        "geodesic_chords.chord_samples": tr.chord_samples,
        "geodesic_chords.chord_s": tot["geodesic_chords.chord_correspondence"],
        "geodesic_chords.residuals_s": tot["geodesic_chords.angle_condition_residuals"],
        "geodesic_chords.planarity_s": tot["geodesic_chords.planarity_residuals"],
        "cli.jobs": c["cli.main"],
        "cli.self_s": own["cli.main"],
        "cli.bytes_written": bytes_written,
        "cli.exit_1": tr.exits[1],
        "cli.exit_2": tr.exits[2],
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = tr.layer_self[layer]
    return m
