#!/usr/bin/env python3
"""Print what the solvers and checkers decide, one JSON line per problem, so
that two versions of the code can be compared by diffing their outputs.

Usage: python scripts/identity.py [PROBLEM ...]

With no PROBLEM every problem below is run (a few minutes). Per problem:
- "enum": every verifier call of the enumerative solver (max_size 16), as
  the bodies checked and the verdict, then the outcome;
- "stoch": the same for the stochastic solver with seed 1, on the four
  single-unknown problems;
- "check": each check-corpus candidate's verdict on the problem
  (perfbench/workloads.py) under ExhaustiveSmall, unless its grid is past
  default_strategy's bound, and under both of default_strategy's
  RandomSample stages.
No time is printed. syguskit is imported from this checkout's src/, never
from an installed copy: exit status 2 names the path it came from instead.
An unknown PROBLEM also gives exit status 2.
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
import syguskit.checker as checker  # noqa: E402
from syguskit.cegis import Solved  # noqa: E402
from syguskit.checker import ExhaustiveSmall, RandomSample  # noqa: E402
from syguskit.enumerative import EnumConfig, solve_enumerative  # noqa: E402
from syguskit.frontend import (load_problem, parse_solution,  # noqa: E402
                               print_solution, term_to_sexpr)
from syguskit.sexpr import print_sexpr  # noqa: E402
from syguskit.stochastic import StochConfig, solve_stochastic  # noqa: E402
from workloads import CANDIDATES  # noqa: E402

# name: (file, solvers); a solve that outlasts the budget reads TimedOut
PROBLEMS = {
    "max2": ("benchmarks/integers/max2.sl", ("enum", "stoch")),
    "s8": ("benchmarks/integers/s8.sl", ("enum",)),
    "hd17_w8": ("benchmarks/bitvectors/hd17_w8.sl", ("enum", "stoch")),
    "lsz_w8": ("benchmarks/bitvectors/lsz_w8.sl", ("enum", "stoch")),
    "lsz_w8-original": ("tests/data/lsz_w8.sl", ("enum",)),
    "lsz_w8_fixed": ("tests/data/lsz_w8_fixed.sl", ("enum",)),
    "qm_loop_1": ("benchmarks/compileropts/qm_loop_1.sl", ("enum", "stoch")),
    "hd-17-d0": ("tests/data/hd-17-d0.sl", ("enum",)),
    "hd-17-d1": ("tests/data/hd-17-d1.sl", ("enum",)),
    "hd-17-d5": ("tests/data/hd-17-d5.sl", ("enum",)),
    "loop_sum": ("benchmarks/invariants/loop_sum.sl", ()),
}
BUDGET_S = 600.0
SOLVERS = {
    "enum": lambda p: solve_enumerative(
        p, EnumConfig(max_size=16, budget_s=BUDGET_S)),
    "stoch": lambda p: solve_stochastic(
        p, StochConfig(seed=1, budget_s=BUDGET_S)),
}
STAGES = (ExhaustiveSmall(),
          RandomSample(checker.DEFAULT_SAMPLES, 0, int_lo=-2, int_hi=2),
          RandomSample(checker.DEFAULT_SAMPLES, 1))


def solve(solver: str, problem) -> dict:
    """The solver's verifier calls, as (bodies, verdict), and its outcome."""
    calls = []
    check = checker.check_semantic

    def recording(p, sol, strat):
        verdict = check(p, sol, strat)
        calls.append([{n: print_sexpr(term_to_sexpr(f.body))
                       for n, f in sol.funcs.items()}, repr(verdict)])
        return verdict

    checker.check_semantic = recording
    try:
        out = SOLVERS[solver](problem)
    finally:
        checker.check_semantic = check
    outcome = (print_solution(out.solution) if isinstance(out, Solved)
               else repr(out))
    return {"calls": calls, "outcome": outcome}


def digest(name: str) -> dict:
    path, solvers = PROBLEMS[name]
    problem = load_problem(ROOT / path)
    out = {"problem": name}
    for solver in solvers:
        out[solver] = solve(solver, problem)
    # a grid past default_strategy's bound (loop_sum's has 17**8 points)
    # would take hours
    grid = checker.grid_points(problem.universals, STAGES[0])
    stages = STAGES[grid is not None and grid > checker.DEFAULT_MAX_GRID:]
    out["check"] = {
        c.label: [repr(checker.check_semantic(
            problem, parse_solution(c.solution, problem), stage))
            for stage in stages]
        for c in CANDIDATES if c.problem == path}
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("problems", nargs="*", metavar="PROBLEM",
                    help=f"one of {', '.join(PROBLEMS)}")
    args = ap.parse_args()
    src = Path(checker.__file__).resolve().parent.parent
    if src != ROOT / "src":
        print(f"identity.py: syguskit imported from {src}, not from "
              f"{ROOT / 'src'}", file=sys.stderr)
        return 2
    unknown = [n for n in args.problems if n not in PROBLEMS]
    if unknown:
        ap.error(f"unknown problem: {', '.join(unknown)}")
    for name in args.problems or PROBLEMS:
        print(json.dumps(digest(name), sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
