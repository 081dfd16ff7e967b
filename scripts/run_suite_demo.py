#!/usr/bin/env python3
"""Run both baseline solvers over the bundled benchmark suite and write
reports in every supported format.

Usage: python scripts/run_suite_demo.py [--timeout 60] [--parallel 4]
"""

import argparse
from pathlib import Path

from syguskit.cli import _positive
from syguskit.harness import RunLimits, render_report, run_suite

ROOT = Path(__file__).parent.parent


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--suite", default=str(ROOT / "benchmarks"))
    ap.add_argument("--solvers", default="enum,stoch")
    ap.add_argument("--timeout", type=_positive(float), default=60.0)
    ap.add_argument("--parallel", type=_positive(int), default=4)
    ap.add_argument("--out", default=str(ROOT / "out"))
    args = ap.parse_args()

    solver_ids = [s for s in args.solvers.split(",") if s]
    report = run_suite(args.suite, solver_ids,
                       RunLimits(wallclock_s=args.timeout),
                       parallelism=args.parallel)
    out = Path(args.out)
    out.mkdir(exist_ok=True)
    for fmt in ("csv", "json", "md"):
        path = out / f"suite.{fmt}"
        path.write_bytes(render_report(report, fmt))
        print(f"wrote {path}")
    for sid in report.solver_ids:
        t = report.totals[sid]
        print(f"{sid}: solved {t.solved}, uniquely solved {t.uniquely_solved}")


if __name__ == "__main__":
    main()
