"""binox benchmark: run one workload and print its metrics as JSON.

    python3 perfbench/run.py --workload explore --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 28 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.  Each
run sets up the workload several times (import, catalog build, seeded input
generation, cache warm-up) and reports the median set-up time, then repeats
the workload's fixed job list for ``--seconds`` and reports medians over the
passes, with every time rescaled to a reference machine speed (speed.py).
Outputs are checked after the timed passes.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs untraced
passes for the first half of the time and traced passes (spans.py) for the
second, prints the per-layer metrics of the median traced pass with the
tracing overhead, and writes that pass's spans under ``perfbench/out/``.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``; the
line before it records provenance.  A run whose work differs from the frozen
counts exits 1 without a result.  ``--workload all`` runs every workload in
its own process, so peak memory and caches do not leak between workloads.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import spans
from speed import PlainClock, SpeedProbe
from workloads import OPS, WORKLOADS, WorkMismatch

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 5
BINOX_MODULES = ("catalog", "cli", "complexes", "config", "cover",
                 "enumeration", "errors", "explorer", "graphs", "homotopy",
                 "views")

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "job_ms_p50": "ms",
    "job_ms_p99": "ms",
}


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_us") or name == "explorer.us_per_move":
        return "us"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    return "count"


def purge_binox() -> None:
    for name in [n for n in sys.modules
                 if n == "binox" or n.startswith("binox.")]:
        del sys.modules[name]


def import_binox() -> SimpleNamespace:
    importlib.import_module("binox")
    return SimpleNamespace(**{
        m: importlib.import_module(f"binox.{m}") for m in BINOX_MODULES})


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


@dataclass
class Pass:
    wall: float
    latencies: list[float]  # per job
    summaries: list[tuple]  # per job; equal on every pass
    ops: list[int]  # per job
    speeds: list[float]  # per job: speed factor while it ran (speed.py)
    layer: dict | None = None  # per-layer metrics of a traced pass
    tracer: spans.Tracer | None = None


def run_pass(wl, clock, tracer=None):
    outputs, intervals = [], []
    t_pass = clock.now()
    for i, job in enumerate(wl.jobs):
        t0 = clock.now()
        out = job.run() if tracer is None else tracer.run_job(i, job.name,
                                                              job.run)
        intervals.append((t0, clock.now()))
        outputs.append(out)
    return clock.now() - t_pass, outputs, intervals


def run_passes(wl, clock, seconds: float, started: float, traced: bool):
    """Passes until the next one would end past ``started + seconds``, at
    least one.  Returns the passes and the first pass's outputs; later
    outputs are reduced to their summaries at once, so memory does not grow
    with the number of passes."""
    passes: list[Pass] = []
    first = None
    while (not passes or time.perf_counter() - started
           + statistics.median(p.wall for p in passes) <= seconds):
        tracer = None
        if traced:
            tracer = spans.Tracer()
            tracer.install(spans.binox_modules())
        clock.sample()
        try:
            wall, outputs, intervals = run_pass(wl, clock, tracer)
        finally:
            if tracer is not None:
                tracer.restore()
        clock.sample()
        p = Pass(wall, [t1 - t0 for t0, t1 in intervals],
                 [job.summary(out) for job, out in zip(wl.jobs, outputs)],
                 [job.ops(out) for job, out in zip(wl.jobs, outputs)],
                 [clock.factor(t0, t1) for t0, t1 in intervals])
        if tracer is not None:
            wl.trace_counts(tracer, outputs)
            bad = wl.cross_check(tracer, outputs)
            if bad:
                raise WorkMismatch("; ".join(bad))
            p.layer, p.tracer = spans.layer_metrics(tracer, wall), tracer
        if first is None:
            first = outputs
        del outputs  # not alive while the next pass runs
        passes.append(p)
    return passes, first


def check_outputs(wl, first: list, passes: list[Pass]) -> tuple[int, int]:
    """(attempted, failed) over every job of every pass; WorkMismatch when
    the work differs from the frozen counts or between passes.  Passes have
    equal summaries, so the first pass's outputs are checked for all."""
    verdicts = [job.check(out) for job, out in zip(wl.jobs, first)]
    for p in passes:
        for job, got, ref in zip(wl.jobs, p.summaries, passes[0].summaries):
            if got != ref:
                raise WorkMismatch(f"{job.name}: passes differ ({got})")
            if job.expect is not None and any(
                    e is not None and e != g for e, g in zip(job.expect, got)):
                raise WorkMismatch(f"{job.name}: {got}, frozen {job.expect}")
    return len(passes) * len(wl.jobs), len(passes) * verdicts.count(False)


def end_to_end(setup_s: float, passes: list[Pass]) -> dict:
    """End-to-end values; every job's time is divided by the speed factor
    of the machine while it ran."""
    scaled = [[t / f for t, f in zip(p.latencies, p.speeds)] for p in passes]
    # a job's latency is its median over the passes, which drops a pass
    # that a burst of machine noise slowed
    latency = [statistics.median(ts) for ts in zip(*scaled)]
    ops = passes[0].ops
    rates = [sum(ops) / sum(t for t, n in zip(times, ops) if n)
             for times in scaled]
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(sum(times) for times in scaled),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops_per_s": statistics.median(rates),
        "job_ms_p50": percentile(latency, 50) * 1e3,
        "job_ms_p99": percentile(latency, 99) * 1e3,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 quick: bool = False):
    """Set up, time and check one workload; returns (result, provenance)."""
    # the traced run reports raw times, as its spans do
    with (PlainClock() if trace else SpeedProbe()) as clock:
        setup_times = []
        t_setup = clock.now()
        clock.sample()
        for _ in range(SETUP_REPEATS):
            purge_binox()
            gc.collect()
            t0 = clock.now()
            B = import_binox()
            wl = WORKLOADS[name](B, seed, quick)
            setup_times.append(clock.now() - t0)
        clock.sample()
        setup_speed = clock.factor(t_setup, clock.now())

        started = time.perf_counter()
        passes, first = run_passes(wl, clock,
                                   seconds / 2 if trace else seconds,
                                   started, traced=False)
        traced = []
        if trace:
            traced, _ = run_passes(wl, clock, seconds, started, traced=True)
            left = spans.leftover_wrappers(spans.binox_modules())
            if left:
                raise RuntimeError(f"wrappers left installed: {left}")
    attempted, failed = check_outputs(wl, first, passes + traced)

    if not trace:
        values = end_to_end(statistics.median(setup_times) / setup_speed,
                            passes)
        units = E2E_UNITS
    else:
        median = sorted(traced, key=lambda p: p.wall)[(len(traced) - 1) // 2]
        values = dict(median.layer)
        untraced = statistics.median(p.wall for p in passes)
        values["trace.untraced_wall_s"] = untraced
        values["trace.overhead_ratio"] = median.wall / untraced - 1
        median.tracer.write(HERE / "out" / f"trace-{name}-seed{seed}.json")
        units = {k: layer_unit(k) for k in values}

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]}
                    for k in units},
    }
    provenance = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "commit": git_commit(),
        "raw_setup_s": setup_times,
        "setup_speed": setup_speed,
        "raw_pass_walls_s": [p.wall for p in passes],
        "pass_speeds": [sum(p.latencies) / sum(
            t / f for t, f in zip(p.latencies, p.speeds)) for p in passes],
        "traced_pass_walls_s": [p.wall for p in traced],
        "jobs_per_pass": len(wl.jobs),
        "ops": OPS[name],
        "samples": wl.samples,
    }
    return result, provenance


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    """HEAD's commit id read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_all(args) -> int:
    """Every workload in its own process; a combined result line last."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=900, check=False)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            print(f"error: workload {name} exited {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("explore", "lift", "contract", "cover", "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=28)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "binox" / "__init__.py").is_file():
        print(f"error: no binox package under {SRC}; run from a checkout of "
              "the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    try:
        result, provenance = run_workload(args.workload, args.seed,
                                          args.seconds, bool(args.trace))
    except WorkMismatch as exc:
        print(f"error: the run did different work: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
