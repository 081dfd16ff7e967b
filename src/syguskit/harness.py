"""Benchmark harness: run solvers over corpora, post-check, aggregate.

A record counts as SOLVED only when the solver reported a solution AND both
post-processors agree: grammar adherence first, then the semantic check (the
semantic check is skipped when the syntactic gate fails). Elapsed time is the
solver's own measurement (solver-only, checking excluded); the harness clock
is the fallback. "Fastest" and "smallest" are bucketed pseudo-logarithmically:
every solver in the same bucket as the best one shares the title.

Timeouts are watchdog-style: each solve runs on a daemon thread that is
abandoned once wallclock + grace passes (built-in solvers poll their budgets
and return on their own). The problem loads before the watchdog starts.
"""

from __future__ import annotations

import csv
import io
import json
import math
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Sequence

from .cegis import Solved, SolveOutcome, TimedOut, positive_finite
from .checker import (CheckStrategy, FeatureSet, Valid, VerificationResult,
                      check_semantic, check_syntactic, classify_features,
                      default_strategy)
from .enumerative import EnumConfig, solve_enumerative
from .frontend import SynthProblem, load_problem
from .stochastic import StochConfig, solve_stochastic
from .terms import SygusError


class EmptySuite(SygusError):
    pass


class UnknownSolver(SygusError):
    pass


@dataclass(frozen=True)
class RunLimits:
    wallclock_s: float = 3600.0
    grace_s: float = 5.0

    def __post_init__(self):
        if not positive_finite(self.wallclock_s):
            raise ValueError("wallclock_s must be positive and finite, "
                             f"got {self.wallclock_s}")
        if not (self.grace_s == 0 or positive_finite(self.grace_s)):
            raise ValueError("grace_s must be nonnegative and finite, "
                             f"got {self.grace_s}")
        if self.wallclock_s + self.grace_s > threading.TIMEOUT_MAX:
            raise ValueError("wallclock_s + grace_s must be at most "
                             f"{threading.TIMEOUT_MAX:.0f}, got "
                             f"{self.wallclock_s + self.grace_s:g}")


SolverFn = Callable[[SynthProblem, float], SolveOutcome]


def _enum_solver(p: SynthProblem, budget_s: float) -> SolveOutcome:
    return solve_enumerative(p, EnumConfig(max_size=16, budget_s=budget_s))


def _stoch_solver(p: SynthProblem, budget_s: float) -> SolveOutcome:
    return solve_stochastic(p, StochConfig(seed=1, budget_s=budget_s))


SOLVERS: dict[str, SolverFn] = {
    "enum": _enum_solver,
    "stoch": _stoch_solver,
}


def register_solver(solver_id: str, fn: SolverFn):
    SOLVERS[solver_id] = fn


@dataclass
class RunRecord:
    benchmark: str
    category: str
    solver_id: str
    outcome: SolveOutcome | None
    syntactic_ok: bool | None
    semantic: VerificationResult | None
    elapsed_s: float
    solution_size: int | None
    error: str | None = None

    @property
    def solved(self) -> bool:
        return (isinstance(self.outcome, Solved)
                and self.syntactic_ok is True
                and isinstance(self.semantic, Valid))


def _category_of(path: Path, root: Path | None) -> str:
    if root is not None:
        # the path as found under root: a symlink may point anywhere
        rel = path.absolute().relative_to(root.absolute())
        if len(rel.parts) > 1:
            return rel.parts[0]
        return "(root)"
    return path.parent.name or "(root)"


def run_benchmark(path, solver_id: str, limits: RunLimits,
                  check: CheckStrategy | None = None,
                  suite_root: Path | None = None) -> RunRecord:
    path = Path(path)
    category = _category_of(path, suite_root)
    try:
        problem = load_problem(path)
    except (SygusError, OSError) as e:
        return RunRecord(str(path), category, solver_id, None, None, None,
                         0.0, None, error=f"parse failure: {e}")
    solver = SOLVERS[solver_id]

    box: list = []

    def work():
        t0 = time.monotonic()
        try:
            box.append(solver(problem, limits.wallclock_s))
        except BaseException as e:  # solver bug or exit: recorded
            box.append(e)
        box.append(time.monotonic() - t0)

    thread = threading.Thread(target=work, daemon=True)
    thread.start()
    thread.join(limits.wallclock_s + limits.grace_s)
    if thread.is_alive():
        return RunRecord(str(path), category, solver_id,
                         TimedOut(limits.wallclock_s), None, None,
                         limits.wallclock_s, None)
    result, measured = box
    if isinstance(result, BaseException):
        return RunRecord(str(path), category, solver_id, None, None, None,
                         measured, None, error=f"solver error: {result}")

    elapsed = (result.elapsed_s if isinstance(result, Solved)
               else result.budget_s if isinstance(result, TimedOut)
               else measured)
    if not isinstance(result, Solved):
        return RunRecord(str(path), category, solver_id, result, None, None,
                         elapsed, None)

    # both post-processors, grammar gate first
    syn = all(check_syntactic(problem, result.solution).values())
    sem = None
    if syn:
        strat = check if check is not None else default_strategy(problem)
        sem = check_semantic(problem, result.solution, strat)
    return RunRecord(str(path), category, solver_id, result, syn, sem,
                     elapsed, result.total_size)


# ---------------------------------------------------------------------------
# Aggregation

TIME_BUCKETS = (1.0, 3.0, 10.0, 30.0, 100.0, 300.0, 1000.0, 3600.0)
SIZE_BUCKETS = (1, 3, 10, 30, 100, 300, 1000, math.inf)


def bucket(x, bounds=TIME_BUCKETS) -> int:
    for i, b in enumerate(bounds):
        if x <= b:
            return i
    return len(bounds)


@dataclass
class BenchmarkSummary:
    benchmark: str
    category: str
    solver_count: int
    min_time: float | None
    max_time: float | None
    min_size: int | None
    max_size: int | None
    fastest: tuple[str, ...]
    smallest: tuple[str, ...]
    solved_by: tuple[str, ...]


@dataclass
class SolverTotals:
    solved: int = 0
    uniquely_solved: int = 0


@dataclass
class SuiteReport:
    solver_ids: tuple[str, ...]
    benchmarks: list[BenchmarkSummary]
    totals: dict[str, SolverTotals]
    category_totals: dict[str, dict[str, SolverTotals]]


def aggregate(records: Sequence[RunRecord],
              solver_ids: Sequence[str]) -> SuiteReport:
    by_bench: dict[str, list[RunRecord]] = {}
    for r in records:
        by_bench.setdefault(r.benchmark, []).append(r)

    summaries = []
    totals = {sid: SolverTotals() for sid in solver_ids}
    category_totals: dict[str, dict[str, SolverTotals]] = {}
    for bench in sorted(by_bench):
        recs = by_bench[bench]
        category = recs[0].category
        cat = category_totals.setdefault(
            category, {sid: SolverTotals() for sid in solver_ids})
        solved = [r for r in recs if r.solved]
        solved_by = tuple(sid for sid in solver_ids
                          if any(r.solver_id == sid for r in solved))
        for sid in solved_by:
            totals[sid].solved += 1
            cat[sid].solved += 1
        if len(solved_by) == 1:
            totals[solved_by[0]].uniquely_solved += 1
            cat[solved_by[0]].uniquely_solved += 1
        if solved:
            times = {r.solver_id: r.elapsed_s for r in solved}
            sizes = {r.solver_id: r.solution_size for r in solved}
            tmin, tmax = min(times.values()), max(times.values())
            smin, smax = min(sizes.values()), max(sizes.values())
            fastest = tuple(sid for sid in solver_ids if sid in times
                            and bucket(times[sid]) == bucket(tmin))
            smallest = tuple(sid for sid in solver_ids if sid in sizes
                             and bucket(sizes[sid], SIZE_BUCKETS)
                             == bucket(smin, SIZE_BUCKETS))
        else:
            tmin = tmax = smin = smax = None
            fastest = smallest = ()
        summaries.append(BenchmarkSummary(bench, category, len(solved_by),
                                          tmin, tmax, smin, smax,
                                          fastest, smallest, solved_by))
    return SuiteReport(tuple(solver_ids), summaries, totals, category_totals)


def run_suite(directory, solver_ids: Sequence[str], limits: RunLimits,
              parallelism: int = 1,
              check: CheckStrategy | None = None) -> SuiteReport:
    unknown = [sid for sid in solver_ids if sid not in SOLVERS]
    if unknown:
        raise UnknownSolver(f"unknown solver id: {', '.join(unknown)}")
    if not solver_ids:
        raise SygusError("no solver id given")
    repeated = [sid for sid, n in Counter(solver_ids).items() if n > 1]
    if repeated:
        raise SygusError(f"solver id given twice: {', '.join(repeated)}")
    root, paths = _suite(directory)
    tasks = [(path, sid) for path in paths for sid in solver_ids]
    with ThreadPoolExecutor(max_workers=max(1, parallelism)) as pool:
        records = list(pool.map(
            lambda t: run_benchmark(t[0], t[1], limits, check=check,
                                    suite_root=root), tasks))
    return aggregate(records, solver_ids)


def classify_suite(directory) -> list[tuple[str, str, FeatureSet | str]]:
    """(path, category, features) per .sl file under directory; a file that
    does not load has its "parse failure: ..." message for features."""
    root, paths = _suite(directory)
    out = []
    for path in paths:
        try:
            problem = load_problem(path)
        except (SygusError, OSError) as e:
            features = f"parse failure: {e}"
        else:
            features = classify_features(problem)
        out.append((str(path), _category_of(path, root), features))
    return out


def _suite(directory) -> tuple[Path, list[Path]]:
    """The suite's root and its .sl files, in order; EmptySuite if none."""
    root = Path(directory)
    paths = sorted(root.rglob("*.sl"))
    if not paths:
        raise EmptySuite(f"no .sl files under {root}")
    return root, paths


# ---------------------------------------------------------------------------
# Rendering

_CSV_COLUMNS = ["category", "benchmark", "solver_count", "min_time_s",
                "max_time_s", "fastest", "min_size", "max_size", "smallest",
                "solved_by"]


def _fmt_time(x: float | None) -> str:
    return "inf" if x is None else f"{x:.3f}"


def _fmt_size(x: int | None) -> str:
    return "inf" if x is None else str(x)


REPORT_FORMATS = ("csv", "json", "md")


def render_report(report: SuiteReport, fmt: str) -> bytes:
    """Deterministic serialization; fmt is one of REPORT_FORMATS."""
    if fmt == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(_CSV_COLUMNS)
        for b in report.benchmarks:
            w.writerow([b.category, b.benchmark, b.solver_count,
                        _fmt_time(b.min_time), _fmt_time(b.max_time),
                        ";".join(b.fastest), _fmt_size(b.min_size),
                        _fmt_size(b.max_size), ";".join(b.smallest),
                        ";".join(b.solved_by)])
        return buf.getvalue().encode()
    if fmt == "json":
        return (json.dumps(asdict(report), indent=2) + "\n").encode()
    if fmt == "md":
        lines = ["# Suite report", ""]
        lines.append("| solver | solved | uniquely solved |")
        lines.append("|---|---|---|")
        for sid in report.solver_ids:
            t = report.totals[sid]
            lines.append(f"| {sid} | {t.solved} | {t.uniquely_solved} |")
        for cat in sorted({b.category for b in report.benchmarks}):
            lines += ["", f"## {cat}", ""]
            lines.append("| benchmark | solvers | time (min..max s) | fastest "
                         "| size (min..max) | smallest |")
            lines.append("|---|---|---|---|---|---|")
            for b in report.benchmarks:
                if b.category != cat:
                    continue
                name = Path(b.benchmark).name
                lines.append(
                    f"| {name} | {b.solver_count} "
                    f"| {_fmt_time(b.min_time)}..{_fmt_time(b.max_time)} "
                    f"| {' '.join(b.fastest)} "
                    f"| {_fmt_size(b.min_size)}..{_fmt_size(b.max_size)} "
                    f"| {' '.join(b.smallest)} |")
        return ("\n".join(lines) + "\n").encode()
    raise ValueError(f"unknown report format {fmt!r}")


def report_from_json(data: bytes | str) -> SuiteReport:
    raw = json.loads(data)
    benches = [BenchmarkSummary(
        b["benchmark"], b["category"], b["solver_count"],
        b["min_time"], b["max_time"], b["min_size"], b["max_size"],
        tuple(b["fastest"]), tuple(b["smallest"]), tuple(b["solved_by"]))
        for b in raw["benchmarks"]]
    totals = {sid: SolverTotals(t["solved"], t["uniquely_solved"])
              for sid, t in raw["totals"].items()}
    cats = {cat: {sid: SolverTotals(t["solved"], t["uniquely_solved"])
                  for sid, t in per.items()}
            for cat, per in raw["category_totals"].items()}
    return SuiteReport(tuple(raw["solver_ids"]), benches, totals, cats)
