#!/usr/bin/env python3
"""Benchmark for syguskit: solve and check workloads, end to end and traced.

Run from the root of a checkout (the package is imported from ./src):

    python3 perfbench/run.py --workload enum-suite --seed 0 --seconds 20 --trace 0

Workloads are defined in workloads.py. A run sets the workload up several
times (fresh import of syguskit plus loading its problems; the median is
setup_s), then runs whole passes over the workload, one after another, until
the next pass would end after --seconds (at least one pass). Times are per
pass, medians over the passes of the run, in reference seconds: wall time
scaled by the interpreter's speed while it was measured (probe.py). The raw
times and the scale of every pass are in the info line.

--trace 0 prints the end-to-end metrics. --trace 1 runs one untraced pass,
then traced passes, and prints the per-module metrics (tracing.py) and
trace.overhead, the traced over the untraced pass wall time; the spans go to
perfbench/out/trace-<workload>-<seed>.json.

Output: a JSON line with the machine, the passes and every op, then, as the
last line, {"correct": ..., "attempted": ..., "failed": ..., "metrics": ...}.
Exit status: 0 when every output matched its expectation, 1 when one did
not, 2 when the syguskit sources or the corpus are missing.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import probe
import tracing
import workloads

SETUP_REPS = 9
MODULES = ("sexpr", "terms", "grammar", "frontend", "checker", "cegis",
           "enumerative", "stochastic", "harness")


def import_syguskit() -> SimpleNamespace:
    """Import syguskit afresh, so that every set-up pays for the import."""
    for name in [m for m in sys.modules
                 if m == "syguskit" or m.startswith("syguskit.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module("syguskit." + m)
                              for m in MODULES})


@dataclass
class Pass:
    start: float
    end: float
    cpu_s: float
    res: workloads.PassResult


def run_passes(wl, seconds: float) -> list[Pass]:
    """Whole passes, closed loop, one client, until the next would end after
    `seconds`; at least one."""
    out = []
    first = time.perf_counter()
    while True:
        t0, c0 = time.perf_counter(), time.process_time()
        res = wl.run_pass()
        t1 = time.perf_counter()
        out.append(Pass(t0, t1, time.process_time() - c0, res))
        if t1 - first + statistics.median(p.end - p.start for p in out) \
                > seconds:
            return out


def end_to_end(setups, passes, parallelism,
               speed: probe.SpeedProbe) -> dict[str, tuple[float, str]]:
    """Medians over the passes, in reference seconds (probe.py)."""
    med = statistics.median
    rows = []
    for p in passes:
        scale = speed.scale(p.start, p.end)
        ops = [op.seconds * speed.scale(*op.window) for op in p.res.ops]
        wall = (p.end - p.start) * scale
        rows.append({
            "wall_s": wall,
            "cpu_s": p.cpu_s * scale,
            # the ops of a pass are different problems, a handful of them;
            # their median jumps from one op to another when two trade places
            "op_s.sum": sum(ops),
            "op_s.max": max(ops),
            # time outside the ops: loading, post-checks, pool and round
            # trips; with a pool of k workers the ops of k lanes overlap
            "outside_solver_s": wall - sum(ops) / parallelism,
            "expr_size.sum": sum(op.size for op in p.res.ops),
        })
    units = {"expr_size.sum": "nodes"}
    out = {"setup_s": (med((t1 - t0) * speed.scale(t0, t1)
                           for t0, t1 in setups), "s")}
    for name in rows[0]:
        out[name] = (med(r[name] for r in rows), units.get(name, "s"))
    out["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    return out


def per_module(tracer, untraced: Pass, passes: list[Pass], parallelism,
               speed: probe.SpeedProbe) -> dict[str, tuple[float, str]]:
    """Per-module metrics, times in reference seconds, and the overhead of
    tracing: the median traced pass over the untraced one."""
    scale = speed.scale(passes[0].start, passes[-1].end)
    out = {}
    for name, value in tracing.per_module(tracer, len(passes),
                                          parallelism).items():
        unit = tracing.unit_of(name)
        factor = {"s": scale, "1/s": 1 / scale}.get(unit, 1.0)
        out[name] = (value * factor, unit)

    def wall(p):
        return (p.end - p.start) * speed.scale(p.start, p.end)

    out["trace.overhead"] = (statistics.median(wall(p) for p in passes)
                             / wall(untraced), "x")
    out["trace.spans"] = (len(tracer.spans) / len(passes), "count")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    missing = [p for p in ("src/syguskit/__init__.py", *workloads.CORPUS_DIRS)
               if not (root / p).exists()]
    if missing:
        print(f"perfbench: {', '.join(missing)} not found under {root}; "
              "run from the root of a syguskit checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    machine = {"nproc": os.cpu_count(), "python": platform.python_version(),
               "loadavg": list(os.getloadavg()),
               "platform": platform.platform()}
    out_dir = root / "perfbench" / "out"
    out_dir.mkdir(exist_ok=True)
    make = workloads.WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(dir=out_dir) as work, \
            probe.SpeedProbe() as speed:
        setups = []
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            sk = import_syguskit()
            wl = make(sk, root, args.seed, Path(work))
            setups.append((t0, time.perf_counter()))
        if not Path(sk.harness.__file__).resolve().is_relative_to(
                (root / "src").resolve()):
            print(f"perfbench: syguskit imported from {sk.harness.__file__}, "
                  f"not from {root / 'src'}", file=sys.stderr)
            return 2

        if args.trace:
            untraced = run_passes(wl, 0)
            tracer = tracing.Tracer()
            tracing.install(tracer, sk)
            try:
                passes = run_passes(wl, args.seconds)
            finally:
                tracer.uninstall()
            metrics = per_module(tracer, untraced[0], passes, wl.parallelism,
                                 speed)
            passes = untraced + passes
        else:
            passes = run_passes(wl, args.seconds)
            metrics = end_to_end(setups, passes, wl.parallelism, speed)
        scales = [speed.scale(p.start, p.end) for p in passes]

    ops = [op for p in passes for op in p.res.ops]
    checks = [c for p in passes for c in p.res.checks]
    failures = ([f"{op.label}: {op.detail}" for op in ops if not op.ok]
                + [label for label, ok in checks if not ok])
    info = {
        "workload": args.workload, "seed": args.seed, "machine": machine,
        "passes": [{"wall_s": p.end - p.start, "cpu_s": p.cpu_s,
                    "scale": scale, **p.res.info,
                    "ops": [[op.label, round(op.seconds, 4), op.size, op.ok]
                            for op in p.res.ops]}
                   for p, scale in zip(passes, scales)],
        "failures": failures,
    }
    if args.trace:
        path = out_dir / f"trace-{args.workload}-{args.seed}.json"
        tracing.dump(tracer, path, info)
        info["trace_file"] = str(path.relative_to(root))
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(ops) + len(checks),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
