"""The benchmark's workloads, their inputs and hand-written expectations.

An op is one solver x problem record of the harness (solver workloads) or one
candidate check (check-corpus). Every op is judged against the expectations
written in this file, never against another solver's output. Each workload
drives syguskit's public API from one client, one op after another; only
matrix-par2 runs two ops at a time, through the harness's own pool.

Inputs excluded on purpose:

- ``benchmarks/invariants/loop_sum.sl`` (= ``tests/data/inv_loop_fixed.sl``),
  ``tests/data/max4.sl`` and ``tests/data/icfp_7_10.sl`` time out at 30 s
  under ``enum``; they would measure the budget, not the solver. loop_sum
  still appears in check-corpus, as a candidate invariant to check.
- ``tests/data/lsz_bv32.sl``: ``enum`` returns a size-2 answer that seeded
  sampling cannot refute; it is valid on budget only, so no expectation can
  be written for it.
- ``s8`` has three unknowns and the stochastic solver takes one, so the
  stochastic workloads use the four single-unknown problems.
"""

from __future__ import annotations

import functools
import hashlib
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# Size (parse-tree nodes) of the smallest solution of each problem, worked
# out by hand; the enumerative solver must return exactly this size.
MIN_SIZE = {"max2": 6, "s8": 7, "hd17_w8": 9, "lsz_w8": 6, "qm_loop_1": 5,
            "hd-17-d0": 9}

ENUM_SUITE = ("benchmarks/integers/max2.sl", "benchmarks/integers/s8.sl",
              "benchmarks/bitvectors/hd17_w8.sl",
              "benchmarks/bitvectors/lsz_w8.sl",
              "benchmarks/compileropts/qm_loop_1.sl",
              "tests/data/hd-17-d0.sl")
SINGLE_UNKNOWN = ("benchmarks/integers/max2.sl",
                  "benchmarks/bitvectors/hd17_w8.sl",
                  "benchmarks/bitvectors/lsz_w8.sl",
                  "benchmarks/compileropts/qm_loop_1.sl")
CORPUS_DIRS = ("benchmarks", "tests/data")
# the corpus round trip takes ~20 ms; repeated so that it is not lost in noise
ROUND_TRIPS = 10

# The stochastic solver runs with the seed the harness's own "stoch" entry
# uses, not with the workload seed: one solve takes anywhere from 3 s to
# more than 60 s depending on its seed (max2, seeds 0-7), so runs with
# different seeds would measure different trajectories, and some seeds
# would time out.
STOCH_SEED = 1
RECORD_BUDGET_S = 60.0


@dataclass
class Op:
    label: str
    seconds: float
    size: int
    ok: bool
    detail: str
    window: tuple[float, float]   # perf_counter interval the op ran in


@dataclass
class PassResult:
    ops: list[Op]
    checks: list[tuple[str, bool]]   # untimed correctness checks
    info: dict


def _stage(root: Path, files, dest: Path) -> Path:
    """Copy the workload's .sl files into a suite directory of its own,
    one subdirectory per category, as run_suite expects."""
    shutil.rmtree(dest, ignore_errors=True)
    for rel in files:
        src = root / rel
        (dest / src.parent.name).mkdir(parents=True, exist_ok=True)
        shutil.copyfile(src, dest / src.parent.name / src.name)
    return dest


class SuiteWorkload:
    """Solver x problem records from harness.run_suite."""

    def __init__(self, sk, root: Path, seed: int, work: Path, name: str,
                 files, solver_ids, parallelism: int):
        self.sk = sk
        self.solver_ids = list(solver_ids)
        self.parallelism = parallelism
        self.suite = _stage(root, files, work / name)
        self.expected_records = len(files) * len(self.solver_ids)
        for rel in files:
            sk.frontend.load_problem(root / rel)
        h = sk.harness
        # the workload seed seeds the post-check's sampling verifier
        h.default_strategy = functools.partial(sk.checker.default_strategy,
                                               seed=seed)
        h.register_solver(f"stoch-s{STOCH_SEED}",
                          functools.partial(_stoch, sk, STOCH_SEED))
        self.records: list = []
        run_benchmark = h.run_benchmark

        def recording(*args, **kwargs):
            # the solver runs first, right after the problem is loaded, and
            # the post-checks after it
            t0 = time.perf_counter()
            record = run_benchmark(*args, **kwargs)
            t1 = time.perf_counter()
            self.records.append(
                (record, (t0, min(t1, t0 + record.elapsed_s))))
            return record

        h.run_benchmark = recording

    def run_pass(self) -> PassResult:
        sk = self.sk
        self.records = []
        report = sk.harness.run_suite(
            self.suite, self.solver_ids,
            sk.harness.RunLimits(wallclock_s=RECORD_BUDGET_S),
            parallelism=self.parallelism)
        runs = sorted(self.records, key=lambda rw: (
            rw[0].solver_id, Path(rw[0].benchmark).stem))
        ops = [self._op(r, window) for r, window in runs]
        stoch = [op for op, (r, _) in zip(ops, runs)
                 if r.solver_id.startswith("stoch")]
        info = {
            "fastest": {Path(b.benchmark).stem: list(b.fastest)
                        for b in report.benchmarks},
            "solved": {sid: t.solved for sid, t in report.totals.items()},
        }
        if stoch:
            info["stoch_fingerprint"] = hashlib.sha256("\n".join(
                f"{op.label}\t{op.detail}" for op in stoch).encode()
            ).hexdigest()[:16]
        checks = [(f"{len(runs)} of {self.expected_records} records",
                   len(runs) == self.expected_records)]
        return PassResult(ops, checks, info)

    def _op(self, r, window) -> Op:
        sk = self.sk
        name = Path(r.benchmark).stem
        label = f"{name}/{r.solver_id}"
        if not r.solved:
            what = r.error or type(r.outcome).__name__
            return Op(label, r.elapsed_s, 0, False, f"not solved: {what}",
                      window)
        size = r.solution_size
        if r.solver_id.startswith("stoch"):
            # sizes come from the schedule and cannot beat the minimum
            ok = (size >= MIN_SIZE[name]
                  and size in sk.stochastic.StochConfig().size_schedule)
        else:
            ok = size == MIN_SIZE[name]
        text = sk.frontend.print_solution(r.outcome.solution).strip()
        return Op(label, r.elapsed_s, size, ok, text, window)


def _stoch(sk, seed, problem, budget_s):
    return sk.stochastic.solve_stochastic(
        problem, sk.stochastic.StochConfig(seed=seed, budget_s=budget_s))


# ---------------------------------------------------------------------------
# check-corpus


@dataclass(frozen=True)
class Candidate:
    label: str
    problem: str
    solution: str
    kind: str                        # "valid" or "counterexample"
    index: int | None = None         # violated constraint
    point: Callable | None = None    # property of the counterexample point


MAX2 = "benchmarks/integers/max2.sl"
LSZ = "(bvand (bvnot x) (bvadd x #x01))"

CANDIDATES = (
    Candidate("max2", MAX2,
              "(define-fun max2 ((x Int) (y Int)) Int (ite (>= x y) x y))",
              "valid"),
    # (>= (max2 x y) y) fails wherever y > x
    Candidate("max2-wrong", MAX2,
              "(define-fun max2 ((x Int) (y Int)) Int x)",
              "counterexample", 1, lambda v: v["y"] > v["x"]),
    Candidate("s8", "benchmarks/integers/s8.sl",
              "(define-fun f1 ((x Int) (y Int) (z Int)) Int x)"
              "(define-fun f2 ((x Int) (y Int) (z Int)) Int (- y 1))"
              "(define-fun f3 ((x Int) (y Int) (z Int)) Int (+ z 1))",
              "valid"),
    Candidate("loop_sum", "benchmarks/invariants/loop_sum.sl",
              "(define-fun inv-f ((i Int) (j Int) (i0 Int) (j0 Int)) Bool"
              " (and (= (+ i j) (+ i0 j0)) (>= i 0)))",
              "valid"),
    Candidate("hd17_w8", "benchmarks/bitvectors/hd17_w8.sl",
              "(define-fun f ((x (BitVec 8))) (BitVec 8)"
              " (bvand (bvadd (bvor x (bvsub x #x01)) #x01) x))", "valid"),
    Candidate("hd-17-d0", "tests/data/hd-17-d0.sl",
              "(define-fun f ((x (BitVec 32))) (BitVec 32)"
              " (bvand (bvadd (bvor x (bvsub x #x00000001)) #x00000001) x))",
              "valid"),
    Candidate("lsz_w8", "benchmarks/bitvectors/lsz_w8.sl",
              f"(define-fun f ((x (BitVec 8))) (BitVec 8) {LSZ})", "valid"),
    # the original listing: at x = #xff no bit is zero, so constraint 0
    # rejects every f (see README)
    Candidate("lsz_w8-original", "tests/data/lsz_w8.sl",
              f"(define-fun f ((x (BitVec 8))) (BitVec 8) {LSZ})",
              "counterexample", 0,
              lambda v: v["x"].width == 8 and v["x"].value == 0xFF),
)


class CheckCorpus:
    """Frontend round trip over the corpus, then candidate checks."""

    parallelism = 1

    def __init__(self, sk, root: Path, seed: int, work: Path):
        self.sk = sk
        self.seed = seed
        self.corpus = sorted(p for d in CORPUS_DIRS
                             for p in (root / d).rglob("*.sl"))
        fe = sk.frontend
        problems = {rel: fe.load_problem(root / rel)
                    for rel in dict.fromkeys(c.problem for c in CANDIDATES)}
        self.cases = [(c, problems[c.problem],
                       fe.parse_solution(c.solution, problems[c.problem]))
                      for c in CANDIDATES]

    def run_pass(self) -> PassResult:
        fe, ck = self.sk.frontend, self.sk.checker
        checks = []
        for _ in range(ROUND_TRIPS):
            for path in self.corpus:
                p1 = fe.load_problem(path)
                p2 = fe.read_problem(fe.print_problem(p1))
                checks.append((f"round trip {path.name}", p1 == p2))
        ops = []
        for cand, problem, sol in self.cases:
            t0 = time.perf_counter()
            syn = all(ck.check_syntactic(problem, sol).values())
            verdict = ck.check_semantic(
                problem, sol, ck.default_strategy(problem, seed=self.seed))
            t1 = time.perf_counter()
            ops.append(Op(cand.label, t1 - t0, sol.total_size(),
                          syn and _matches(cand, verdict), repr(verdict),
                          (t0, t1)))
        return PassResult(ops, checks, {})


def _matches(cand: Candidate, verdict) -> bool:
    kind = type(verdict).__name__
    if cand.kind == "valid":
        return kind == "Valid" and not verdict.certified
    return (kind == "CounterExample"
            and verdict.constraint_index == cand.index
            and cand.point(verdict.valuation))


# ---------------------------------------------------------------------------


WORKLOADS = {
    "enum-suite": lambda sk, root, seed, work: SuiteWorkload(
        sk, root, seed, work, "enum-suite", ENUM_SUITE, ["enum"], 1),
    "stoch-suite": lambda sk, root, seed, work: SuiteWorkload(
        sk, root, seed, work, "stoch-suite", SINGLE_UNKNOWN,
        [f"stoch-s{STOCH_SEED}"], 1),
    "check-corpus": CheckCorpus,
    "matrix-par2": lambda sk, root, seed, work: SuiteWorkload(
        sk, root, seed, work, "matrix-par2", SINGLE_UNKNOWN,
        ["enum", f"stoch-s{STOCH_SEED}"], 2),
}
