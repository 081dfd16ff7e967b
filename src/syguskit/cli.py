"""Command line interface.

Exit codes are part of the contract: 0 success/solved, 1 check failed, not
solved or stdout closed early (`| head`), 2 usage or input error. Solutions
go to stdout as `define-fun` lines, diagnostics to stderr. SYGUSKIT_SMT
provides the default external SMT solver command for `check` and `solve`.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path
from typing import Callable

from .cegis import Exhausted, Solved, describe_point
from .checker import (CheckStrategy, CounterExample, ExhaustiveSmall,
                      ExternalSMT, Layered, RandomSample, Valid,
                      check_semantic, check_syntactic, default_strategy)
from .enumerative import EnumConfig, solve_enumerative
from .frontend import (load_problem, parse_solution, print_problem,
                       print_solution)
from .harness import (REPORT_FORMATS, RunLimits, classify_suite, render_report,
                      run_suite)
from .stochastic import StochConfig, solve_stochastic
from .terms import SygusError

SMT_ENV = "SYGUSKIT_SMT"


def _positive(kind: type) -> Callable[[str], float]:
    """An argparse type: a finite kind above 0, else a usage error."""
    def parse(text: str) -> float:
        if not (math.isfinite(value := kind(text)) and value > 0):
            raise ValueError(text)
        return value
    parse.__name__ = f"positive {kind.__name__}"  # argparse's error names it
    return parse


def _smt_command(arg: str | None) -> str | None:
    return arg if arg else os.environ.get(SMT_ENV)


def _build_strategy(args, problem) -> CheckStrategy:
    stages: list[CheckStrategy] = []
    if args.exhaustive_bound is not None:
        stages.append(ExhaustiveSmall(-args.exhaustive_bound,
                                      args.exhaustive_bound))
    if args.samples is not None:
        stages.append(RandomSample(args.samples, args.seed))
    smt = _smt_command(args.smt)
    if smt:
        stages.append(ExternalSMT(smt))
    if not stages:
        return default_strategy(problem, smt)
    return stages[0] if len(stages) == 1 else Layered(tuple(stages))


def _cmd_parse(args) -> int:
    problem = load_problem(args.file)
    sys.stdout.write(print_problem(problem))
    return 0


def _cmd_check(args) -> int:
    problem = load_problem(args.file)
    with open(args.solution, "r", encoding="utf-8") as fh:
        solution = parse_solution(fh.read(), problem)
    syn = check_syntactic(problem, solution)
    for name, ok in syn.items():
        print(f"syntactic {name}: {'ok' if ok else 'VIOLATES GRAMMAR'}")
    if not all(syn.values()):
        return 1
    verdict = check_semantic(problem, solution, _build_strategy(args, problem))
    if isinstance(verdict, Valid):
        print("semantic: valid" + ("" if verdict.certified else " (on budget)"))
        return 0
    if isinstance(verdict, CounterExample):
        print(f"semantic: counterexample {describe_point(verdict.valuation)} "
              f"violates constraint {verdict.constraint_index}")
        return 1
    print(f"semantic: unknown ({verdict.reason.value})")
    return 1


def _cmd_solve(args) -> int:
    problem = load_problem(args.file)
    verifier = default_strategy(problem, _smt_command(args.smt))
    if args.strategy == "enum":
        out = solve_enumerative(problem, EnumConfig(
            max_size=args.max_size, budget_s=args.timeout, verifier=verifier))
    else:
        out = solve_stochastic(problem, StochConfig(
            seed=args.seed, budget_s=args.timeout, verifier=verifier))
    if isinstance(out, Solved):
        sys.stdout.write(print_solution(out.solution))
        print(f"solved in {out.elapsed_s:.2f}s, total size "
              f"{out.total_size}", file=sys.stderr)
        return 0
    if isinstance(out, Exhausted):
        print(f"not solved: search space exhausted at size {out.max_size}",
              file=sys.stderr)
    else:
        print(f"not solved: timed out after {out.budget_s:.0f}s",
              file=sys.stderr)
    return 1


def _cmd_bench(args) -> int:
    limits = RunLimits(wallclock_s=args.timeout)
    solver_ids = [s.strip() for s in args.solvers.split(",") if s.strip()]
    fmt = Path(args.report).suffix.lstrip(".").lower() if args.report else None
    if fmt is not None and fmt not in REPORT_FORMATS:
        raise ValueError(f"unknown report format {fmt!r}")
    if fmt is not None and not Path(args.report).parent.is_dir():
        raise ValueError(f"no directory for report {args.report}")
    report = run_suite(args.dir, solver_ids, limits,
                       parallelism=args.parallel)
    for sid in report.solver_ids:
        t = report.totals[sid]
        print(f"{sid}: solved {t.solved}, uniquely {t.uniquely_solved}")
    if fmt is not None:
        data = render_report(report, fmt)
        Path(args.report).write_bytes(data)
        print(f"report written to {args.report}", file=sys.stderr)
    return 0


def _cmd_classify(args) -> int:
    rows = classify_suite(args.dir)
    print(f"{'benchmark':40} {'category':18} {'invocation':10} "
          f"{'unknowns':8} track")
    for path, category, fs in rows:
        what = fs if isinstance(fs, str) else (
            f"{fs.invocation.value:10} {fs.unknown_count:<8} {fs.track.value}")
        print(f"{Path(path).name:40} {category:18} {what}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="syguskit",
        description="SyGuS-IF toolkit: parse, check, solve, benchmark")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="echo the canonical form of a problem")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_parse)

    p = sub.add_parser("check", help="run both post-processors on a solution")
    p.add_argument("file")
    p.add_argument("--solution", required=True)
    p.add_argument("--smt", default=None, help="external SMT solver command")
    p.add_argument("--exhaustive-bound", type=int, default=None,
                   help="exhaustive check with Int in [-N, N]")
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("solve", help="synthesize; solution on stdout")
    p.add_argument("file")
    p.add_argument("--strategy", choices=["enum", "stoch"], default="enum")
    p.add_argument("--max-size", type=_positive(int), default=16)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--timeout", type=_positive(float), default=60.0)
    p.add_argument("--smt", default=None)
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("bench", help="run solvers over a benchmark directory")
    p.add_argument("dir")
    p.add_argument("--solvers", default="enum,stoch")
    p.add_argument("--timeout", type=_positive(float), default=60.0)
    p.add_argument("--parallel", type=_positive(int), default=1)
    p.add_argument("--report", default=None,
                   help="write a report (.csv, .json, or .md)")
    p.set_defaults(fn=_cmd_bench)

    p = sub.add_parser("classify", help="feature table for a benchmark directory")
    p.add_argument("dir")
    p.set_defaults(fn=_cmd_classify)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # stdout's reader went away (`| head`): the rest goes to os.devnull,
        # so that the flush at exit does not fail as well
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (SygusError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
