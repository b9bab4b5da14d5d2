"""Benchmark of the gutkin package: closed-loop job workloads with oracle checks.

Run from the root of a checkout:

    python3 bench/run.py --workload planar-fan --seed 1 --seconds 30 --trace 0

The program is imported from ``src/`` of the checkout, never from an installed
copy.  With ``--trace 0`` the run prints the end-to-end metrics; with
``--trace 1`` it runs the workload's job list once untraced and once traced,
job by job, and prints the per-layer metrics.  The last line of stdout is
the result; the line before it is the run record, also written with any
spans under ``.bench_out/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

import numpy as np  # noqa: E402

import inputs  # noqa: E402
import oracles  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Context, Verdict  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 5
READY = "ready"
MIN_CHORD_ANGLE = 1e-6  # the documented lower edge of the valid chord domain

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "ops_verified_frac": "ratio",
    "peak_rss_mb": "MB",
}


class Entry(NamedTuple):
    """One timed job of a run; ``wall`` is in nominal seconds (see speed.py)
    and ``raw`` in wall seconds."""

    kind: str
    ops: int
    wall: float
    verdict: Verdict
    round: int
    raw: float


class ProgramMissing(Exception):
    """The checkout holds no importable program under src/."""


def import_program():
    src = ROOT / "src"
    if not (src / "gutkin" / "__init__.py").is_file():
        raise ProgramMissing(f"no program source at {src / 'gutkin'}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import gutkin
    import gutkin.cli
    if Path(gutkin.__file__).resolve().parent != (src / "gutkin").resolve():
        raise ProgramMissing(f"gutkin imported from {gutkin.__file__}, not from {src}")
    return gutkin


def run_job(job, tracer=None, job_id=None):
    """Time one job, then check it; returns (wall seconds, verdict, bytes written)."""
    if tracer is not None:
        tracer.job = job_id
        tracer.install()
    try:
        wall, result = job.call()
    finally:
        if tracer is not None:
            tracer.uninstall()
    try:
        verdict = job.check(result)
    except Exception:  # output the checker could not read
        verdict = Verdict(0, Counter({"malformed_output": job.ops}))
        print(f"check of {job.kind} failed:\n{traceback.format_exc()}", file=sys.stderr)
    written = 0
    if hasattr(result, "stdout"):
        written += len(result.stdout.encode())
    for path in job.artifacts:
        if path.exists():
            written += path.stat().st_size
            path.unlink()
    return wall, verdict, written


def setup(name: str, seed: int, sizes: dict, workdir: Path) -> Context:
    """Import the program, write and load the inputs, run one warm-up job."""
    gutkin = import_program()
    warnings.simplefilter("ignore")
    workdir.mkdir(parents=True, exist_ok=True)
    ctx = Context(gutkin, workdir, seed)
    workload = WORKLOADS[name]
    workload.setup(ctx, sizes)
    run_job(workload.warmup(ctx, sizes))
    return ctx


def probe_setup(name: str, seed: int, tiny: bool, workdir: Path) -> float:
    """Seconds from starting a fresh interpreter until its set-up is done."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", name, "--seed", str(seed), "--workdir", str(workdir)]
    if tiny:
        cmd.append("--tiny")
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as child:
        line = child.stdout.readline().strip()
        elapsed = time.perf_counter() - t0
        child.stdout.read()
        child.wait(timeout=120)
    if line != READY or child.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {child.returncode})")
    return elapsed


def nearest_rank(jobs, pct: float, sentinel: float) -> float:
    """Job wall time at a percentile by nearest rank; a job with a failed op
    ranks above every job that passed.

    A rank that lands on a failed job has no finite time; it reads as
    ``sentinel``, the whole job time of the jobs ranked.
    """
    ranked = sorted(e.wall for e in jobs if not e.verdict.failed_ops)
    ranked += [math.inf] * (len(jobs) - len(ranked))
    value = ranked[max(0, math.ceil(pct / 100.0 * len(ranked)) - 1)]
    return sentinel if math.isinf(value) else value


# --- measured run ---------------------------------------------------------------


def measure(ctx: Context, name: str, sizes: dict, seconds: float):
    """Replay the job list in rounds until the next round would end after
    ``seconds``; at least one round runs.

    Returns the log, the round times and each job's verdict.  That is its
    verdict in the first round, unless a later round gave another, in which
    case all its ops fail as ``unstable_verdict``.  A reference() call follows
    each job; the median of a round's calls scales that round's job times.
    """
    jobs = WORKLOADS[name].jobs(ctx, sizes)
    log, round_times, verdicts, scales = [], [], [], []
    start = time.perf_counter()
    r = 0
    while True:
        t_round = time.perf_counter()
        done, ref = [], []
        for i, job in enumerate(jobs):
            wall, verdict, _ = run_job(job)
            ref.append(speed.sample())
            done.append((job, wall, verdict))
            if r == 0:
                verdicts.append(verdict)
            elif verdict != verdicts[i] and not verdicts[i].failed["unstable_verdict"]:
                verdicts[i] = Verdict(0, Counter({"unstable_verdict": job.ops}))
        scales.append(speed.scale(ref))
        log += [Entry(job.kind, job.ops, wall * scales[-1], verdict, r, wall)
                for job, wall, verdict in done]
        round_times.append(time.perf_counter() - t_round)
        r += 1
        if time.perf_counter() - start + statistics.mean(round_times) > seconds:
            break
    return log, round_times, verdicts, scales


def end_to_end(log, verdicts, setup_samples, tail_pct):
    """The end-to-end metrics of a measured run.

    ``ops_per_s`` and ``job_p50_s`` are medians over rounds of each round's
    value, so that a slow spell of the machine during a minority of rounds
    does not move them.  The tail needs ten jobs beyond it, more than a round
    holds, so it is taken over the whole run.  ``ops_verified_frac`` counts
    each op of the job list once.
    """
    rounds = {}
    for e in log:
        rounds.setdefault(e.round, []).append(e)
    rate, p50 = [], []
    for jobs in rounds.values():
        busy = sum(e.wall for e in jobs)
        rate.append(sum(e.verdict.ok for e in jobs) / busy)
        p50.append(nearest_rank(jobs, 50.0, busy))
    attempted = sum(e.ops for e in log if e.round == 0)
    values = {
        "setup_s": statistics.median(setup_samples),
        "ops_per_s": statistics.median(rate),
        "job_p50_s": statistics.median(p50),
        "job_tail_s": nearest_rank(log, tail_pct, sum(e.wall for e in log)),
        "ops_verified_frac": sum(v.ok for v in verdicts) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    samples = {
        "setup_s": len(setup_samples), "ops_per_s": len(rounds), "job_p50_s": len(log),
        "job_tail_s": len(log), "ops_verified_frac": attempted, "peak_rss_mb": 1,
    }
    return values, samples


# --- traced run -----------------------------------------------------------------


def _chord_eligible(attempts) -> int:
    """Attempted chords whose true incidence is above MIN_CHORD_ANGLE."""
    by_curve = {}
    for curve, line, _ in attempts:
        by_curve.setdefault(id(curve), (curve, []))[1].append((line.p, line.phi))
    eligible = 0
    for curve, lines in by_curve.values():
        h = curve.h
        table = inputs.Table("traced", float(h.constant), np.array(h.cos_coeffs, dtype=float),
                             np.array(h.sin_coeffs, dtype=float))
        p, phi = np.array(lines).T
        inside = (p < table.derivs(phi)[0]) & (p > -table.derivs(phi + math.pi)[0])
        if not inside.any():
            continue
        ref = oracles.planar_bounce(table, p[inside], phi[inside])
        eligible += int((np.minimum(ref["angle_back"], ref["angle_fwd"]) > MIN_CHORD_ANGLE).sum())
    return eligible


def trace(ctx: Context, name: str, sizes: dict):
    """Run each job of the job list untraced and traced, alternating order."""
    workload = WORKLOADS[name]
    tracer = tracing.Tracer(ctx.gutkin)
    per_call, per_job_floor = tracer.wrapper_cost()
    log, per_job = [], []
    untraced_wrong = False
    bytes_written = 0
    for job_id, job in enumerate(workload.jobs(ctx, sizes)):
        if job_id % 2:
            traced = run_job(job, tracer, job_id)
            plain = run_job(job)
        else:
            plain = run_job(job)
            traced = run_job(job, tracer, job_id)
        wall, verdict, written = traced
        log.append(Entry(job.kind, job.ops, wall, verdict, 0, wall))
        untraced_wrong |= plain[1].wrong
        bytes_written += written
        per_job.append({"job": job_id, "kind": job.kind, "traced_s": wall,
                        "untraced_s": plain[0], "self_sum_s": tracer.job_self[job_id],
                        "wrapped_calls": tracer.wrapped_calls[job_id]})
    metrics = tracing.layer_metrics(tracer, _chord_eligible(tracer.chord_attempts),
                                    bytes_written)
    traced_total = sum(j["traced_s"] for j in per_job)
    metrics["trace.overhead_s"] = traced_total - sum(j["untraced_s"] for j in per_job)
    metrics["trace.unattributed_s"] = traced_total - sum(j["self_sum_s"] for j in per_job)
    metrics["trace.jobs"] = len(per_job)
    metrics["trace.per_call_overhead_s"] = per_call
    # a job's self times add up to its wall time up to the wrappers' own cost
    for j in per_job:
        j["overhead_est_s"] = per_call * j["wrapped_calls"] + per_job_floor
        j["within_overhead"] = j["traced_s"] - j["self_sum_s"] <= j["overhead_est_s"]
    metrics["trace.jobs_within_overhead_ratio"] = (
        sum(j["within_overhead"] for j in per_job) / len(per_job))
    return log, metrics, per_job, tracer, untraced_wrong


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if ".evals_per_" in name:
        return "count/call"
    if name.endswith("bytes_written"):
        return "bytes"
    return "count"


# --- run record -------------------------------------------------------------------


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = ROOT / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def record(args, rounds, log, verdicts, units, samples, extra):
    kinds = {}
    for e in log:
        k = kinds.setdefault(e.kind, {"jobs": 0, "ops": 0, "failed_ops": 0,
                                      "times": [], "walls": []})
        k["jobs"] += 1
        k["ops"] += e.ops
        k["failed_ops"] += e.verdict.failed_ops
        k["times"].append(e.wall)
        k["walls"].append(e.raw)
    for k in kinds.values():
        k["median_s"] = statistics.median(k.pop("times"))
        k["wall_median_s"] = statistics.median(k.pop("walls"))
    failures = Counter()
    for v in verdicts:
        failures.update(v.failed)
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": rounds,
        "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
        "python": platform.python_version(), "numpy": np.__version__,
        "commit": _commit(),
        "metrics": {n: {"unit": units[n], "samples": samples.get(n)} for n in units},
        "failures_by_class": dict(failures), "jobs_by_kind": kinds, **extra,
    }


# --- entry point ----------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest job sizes, for the smoke test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def run(args) -> dict:
    import_program()
    workload = WORKLOADS[args.workload]
    sizes = workload.tiny if args.tiny else workload.sizes
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        # set-up is mostly interpreter start and imports, which the reference
        # does not track, so it stays in wall seconds
        setup_samples = [] if args.trace else [
            probe_setup(args.workload, args.seed, args.tiny, workdir / f"probe{i}")
            for i in range(1 if args.tiny else SETUP_PROBES)]
        ctx = setup(args.workload, args.seed, sizes, workdir / "main")
        if args.trace:
            log, values, per_job, tracer, untraced_wrong = trace(ctx, args.workload, sizes)
            units = {n: per_layer_unit(n) for n in values}
            samples = {n: values["trace.jobs"] for n in values}
            extra = {"trace_jobs": per_job}
            rounds = 1
            verdicts = [e.verdict for e in log]
        else:
            log, round_times, verdicts, scales = measure(ctx, args.workload, sizes,
                                                         args.seconds)
            values, samples = end_to_end(log, verdicts, setup_samples, workload.tail_pct)
            wall_values, _ = end_to_end([e._replace(wall=e.raw) for e in log], verdicts,
                                        setup_samples, workload.tail_pct)
            rounds = len(round_times)
            untraced_wrong = False
            units = dict(END_TO_END_UNITS)
            extra = {"setup_samples_s": setup_samples, "round_s": round_times,
                     "speed_scale_by_round": scales,
                     "wall_metrics": {n: wall_values[n] for n in
                                      ("ops_per_s", "job_p50_s", "job_tail_s")},
                     "tail_pct": workload.tail_pct,
                     "jobs_beyond_tail": len(log) - math.ceil(workload.tail_pct / 100 * len(log))}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    rec = record(args, rounds, log, verdicts, units, samples, extra)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(rec, indent=1) + "\n", encoding="utf-8")
    if args.trace:
        tracer.write_spans(OUT / f"{stem}-spans.jsonl")
    # each op of the job list counts once, however many rounds replayed it
    attempted = sum(e.ops for e in log if e.round == 0)
    return {
        "record": rec,
        "result": {
            "correct": not untraced_wrong and not any(e.verdict.wrong for e in log),
            "attempted": attempted,
            "failed": attempted - sum(v.ok for v in verdicts),
            "metrics": {n: {"value": values[n], "unit": units[n]} for n in units},
        },
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    try:
        if args.setup_probe:
            workload = WORKLOADS[args.workload]
            setup(args.workload, args.seed, workload.tiny if args.tiny else workload.sizes,
                  Path(args.workdir))
            print(READY, flush=True)
            return 0
        out = run(args)
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(out["record"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
