#!/usr/bin/env python3
"""Stochastic-solver seed sweep: how sensitive is a benchmark to the RNG?

Usage: python scripts/seed_study.py benchmarks/integers/max2.sl --seeds 10

syguskit is imported from this checkout's src/, so no PYTHONPATH is needed.

A file that does not load, or that the stochastic solver does not take,
gives one `error: ...` line and exit status 2.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from syguskit.cegis import Solved  # noqa: E402
from syguskit.cli import _positive  # noqa: E402
from syguskit.frontend import load_problem, print_solution  # noqa: E402
from syguskit.stochastic import StochConfig, solve_stochastic  # noqa: E402
from syguskit.terms import SygusError  # noqa: E402


def run_seed(problem, seed: int, args) -> bool:
    """Solve with one seed, print one line, and say whether it solved."""
    out = solve_stochastic(problem, StochConfig(
        seed=seed, budget_s=args.budget, beta=args.beta))
    if not isinstance(out, Solved):
        print(f"seed {seed:3d}: {type(out).__name__}")
        return False
    body = print_solution(out.solution).strip()
    print(f"seed {seed:3d}: solved in {out.elapsed_s:6.2f}s "
          f"size {out.total_size:3d}  {body}")
    return True


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("file")
    ap.add_argument("--seeds", type=_positive(int), default=10)
    ap.add_argument("--budget", type=_positive(float), default=60.0)
    ap.add_argument("--beta", type=_positive(float), default=0.5)
    args = ap.parse_args()

    try:
        problem = load_problem(args.file)
        solved = sum(run_seed(problem, seed, args)
                     for seed in range(args.seeds))
    except (SygusError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(f"\n{solved}/{args.seeds} seeds solved")
    return 0


if __name__ == "__main__":
    sys.exit(main())
