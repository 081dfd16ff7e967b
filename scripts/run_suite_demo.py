#!/usr/bin/env python3
"""Run both baseline solvers over the bundled benchmark suite and write
reports in every supported format.

Usage: python scripts/run_suite_demo.py [--timeout 60] [--parallel 4]

syguskit is imported from this checkout's src/, so no PYTHONPATH is needed.

A suite with no `.sl` file, an unknown, repeated or empty list of solver
ids or a timeout too long to wait for gives one `error: ...` line and exit
status 2.
"""

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
from syguskit.cli import _positive  # noqa: E402
from syguskit.harness import RunLimits, render_report, run_suite  # noqa: E402
from syguskit.terms import SygusError  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--suite", default=str(ROOT / "benchmarks"))
    ap.add_argument("--solvers", default="enum,stoch")
    ap.add_argument("--timeout", type=_positive(float), default=60.0)
    ap.add_argument("--parallel", type=_positive(int), default=4)
    ap.add_argument("--out", default=str(ROOT / "out"))
    args = ap.parse_args()

    solver_ids = [s.strip() for s in args.solvers.split(",") if s.strip()]
    try:
        report = run_suite(args.suite, solver_ids,
                           RunLimits(wallclock_s=args.timeout),
                           parallelism=args.parallel)
    except (SygusError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    out = Path(args.out)
    out.mkdir(exist_ok=True)
    for fmt in ("csv", "json", "md"):
        path = out / f"suite.{fmt}"
        path.write_bytes(render_report(report, fmt))
        print(f"wrote {path}")
    for sid in report.solver_ids:
        t = report.totals[sid]
        print(f"{sid}: solved {t.solved}, uniquely solved {t.uniquely_solved}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
