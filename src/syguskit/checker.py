"""The two solution post-processors: grammar adherence, then semantics.

The semantic check substitutes the candidate into every constraint and either
searches for a counterexample internally (exhaustive over a small grid, or
seeded random sampling) or asks an external SMT solver to refute the negated
conjunction. Internal Valid verdicts are only valid-on-budget and are never
silently upgraded: VerificationResult.Valid carries a `certified` flag that
only an external `unsat` sets.

Every stage of a Layered strategy evaluates the substituted constraints
column-wise (terms.Pointwise, the composition the solvers' signatures use)
over blocks of raw points: tuples with a bit-vector as its int, drawn from
the grid or the seeded sampler a block at a time and transposed into one
column per universal. The first block is small, so an early counterexample
costs few points, and blocks grow to a cap that bounds memory. On a grid, a
constraint that reads fewer than all universals is evaluated once per
distinct projection of a block's points onto the universals it reads, taken
in order of first occurrence, so the earliest violating projection leads
back to the earliest violating point. A point where evaluation raises (Int
division by zero) counts as falsified. A counterexample is the earliest
violated point and, at it, the first constraint violated; its valuation, and
only it, is built as a dict of Values. A single point (the scorer's
undecided examples, an SMT model) is a one-point block (_violated_index).
A sampled point zips one C-level stream of draws per universal, row-major,
so the rng is consumed exactly as drawing one point after another would.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
import random
import shlex
import subprocess
import sys
from dataclasses import dataclass, fields
from typing import Callable, Iterable, Iterator, Mapping, Sequence, Union

from .frontend import CandidateSolution, SynthProblem, Track, unknown_invocations
from .grammar import derives
from .sexpr import BV, SExpr, print_sexpr, read_sexprs
from .terms import (BOOL, ERR, INT, Apply, DivisionByZero, FunDef, Lit,
                    Pointwise, Sort, SygusError, Term, Value, Var, evaluate,
                    expand, free_vars, raw_value, value_sort)


class UnsupportedLogic(SygusError):
    pass


# ---------------------------------------------------------------------------
# Verdicts


class UnknownReason(enum.Enum):
    BUDGET = "budget"
    SOLVER_UNAVAILABLE = "external solver unavailable"
    SOLVER_UNKNOWN = "external solver answered unknown"


@dataclass(frozen=True)
class Valid:
    certified: bool = False  # True only for an external solver's unsat


@dataclass(frozen=True)
class CounterExample:
    valuation: dict
    constraint_index: int


@dataclass(frozen=True)
class Unknown:
    reason: UnknownReason


VerificationResult = Union[Valid, CounterExample, Unknown]


# ---------------------------------------------------------------------------
# Strategies


def _refuse_non_ints(strat) -> None:
    """A strategy's fields are ints: a bound or count of another type would
    fail deep in the check, and a seed of None would not replay."""
    for f in fields(strat):
        if not isinstance(getattr(strat, f.name), int):
            raise SygusError(f"{type(strat).__name__}.{f.name} must be an int")


@dataclass(frozen=True)
class ExhaustiveSmall:
    int_lo: int = -8
    int_hi: int = 8
    bv_width_cap: int = 10

    __post_init__ = _refuse_non_ints


@dataclass(frozen=True)
class RandomSample:
    count: int
    seed: int
    # narrow enough that equality-guarded premises get hit by collisions
    int_lo: int = -20
    int_hi: int = 20

    __post_init__ = _refuse_non_ints


@dataclass(frozen=True)
class ExternalSMT:
    command: str
    timeout_s: float = 60.0


@dataclass(frozen=True)
class Layered:
    stages: tuple["CheckStrategy", ...]


CheckStrategy = Union[ExhaustiveSmall, RandomSample, ExternalSMT, Layered]


def _grid_domains(universals: Mapping[str, Sort],
                  strat: ExhaustiveSmall) -> list[Sequence[Value]] | None:
    """Per universal, its raw values on the grid (a bit-vector as its int);
    None if some sort has no grid under the caps."""
    out: list[Sequence[Value]] = []
    for sort in universals.values():
        if sort == INT:
            out.append(range(strat.int_lo, strat.int_hi + 1))
        elif sort == BOOL:
            out.append((False, True))
        elif sort.is_bv and sort.width <= strat.bv_width_cap:
            out.append(range(1 << sort.width))
        else:
            return None
    return out


def grid_points(universals: Mapping[str, Sort], strat: ExhaustiveSmall) -> int | None:
    """Number of grid points, or None if some domain exceeds the caps."""
    domains = _grid_domains(universals, strat)
    return None if domains is None else math.prod(map(len, domains))


DEFAULT_MAX_GRID = 300_000
DEFAULT_SAMPLES = 20_000


def default_strategy(p: SynthProblem, smt_command: str | None = None,
                     seed: int = 0) -> CheckStrategy:
    """Exhaustive when the default grid is small, else seeded sampling; an
    external solver, when configured, is layered last.

    Sampling runs twice: over a tiny domain first (collisions refute the
    equality-guarded premises invariant problems are full of), then wide.
    """
    small = ExhaustiveSmall()
    stages: list[CheckStrategy] = []
    pts = grid_points(p.universals, small)
    if pts is not None and pts <= DEFAULT_MAX_GRID:
        stages.append(small)
    else:
        stages.append(RandomSample(DEFAULT_SAMPLES, seed, int_lo=-2, int_hi=2))
        stages.append(RandomSample(DEFAULT_SAMPLES, seed + 1))
    if smt_command:
        stages.append(ExternalSMT(smt_command))
    return stages[0] if len(stages) == 1 else Layered(tuple(stages))


# ---------------------------------------------------------------------------
# Post-processor 1: grammar adherence


def check_syntactic(p: SynthProblem, s: CandidateSolution) -> dict[str, bool]:
    out = {}
    for name, u in p.unknowns.items():
        body = s.funcs[name].body
        out[name] = derives(u.grammar, u.grammar.start, body)
    return out


# ---------------------------------------------------------------------------
# Post-processor 2: semantics


def falsified(constraint: Term, valuation: Mapping[str, Value],
              defs: Mapping[str, FunDef]) -> bool:
    """False result or an evaluation error both count against the candidate."""
    try:
        return evaluate(constraint, valuation, defs) is False
    except DivisionByZero:
        return True


def substituted_constraints(p: SynthProblem, s: CandidateSolution) -> list[Term]:
    return [expand(c, s.funcs) for c in p.constraints]


def sample_points(universals: Mapping[str, Sort], strat: RandomSample,
                  rng: random.Random) -> Iterator[tuple]:
    """strat's raw points, endlessly: one C-level stream per universal,
    zipped row-major, so rng is consumed as randint(int_lo, int_hi),
    random() < 0.5 and getrandbits(width) drawing each point in turn."""
    streams = [_ints(rng, strat.int_lo, strat.int_hi) if sort == INT
               else map((0.5).__gt__, itertools.starmap(
                   rng.random, itertools.repeat(()))) if sort == BOOL
               else map(rng.getrandbits, itertools.repeat(sort.width))
               for sort in universals.values()]
    return zip(*streams) if streams else itertools.repeat(())


def _ints(rng: random.Random, lo: int, hi: int) -> Iterator[int]:
    """rng.randint(lo, hi) again and again, at C level: CPython's
    Random._randbelow loop, so the draws and rng's state are randint's."""
    n = hi - lo + 1
    if n <= 0:  # raises as randint does
        return itertools.starmap(rng.randint, itertools.repeat((lo, hi)))
    return map(lo.__add__, filter(n.__gt__, map(
        rng.getrandbits, itertools.repeat(n.bit_length()))))


def int_drawer(rng: random.Random, lo: int, hi: int) -> Callable[[], int]:
    """rng.randint(lo, hi) without its per-call argument checks."""
    return functools.partial(next, _ints(rng, lo, hi))


FIRST_BLOCK = 16
MAX_BLOCK = 1024


def _check_points(p: SynthProblem, constraints: Sequence[Term],
                  points: Iterable[tuple] | None,
                  grid: bool = False) -> VerificationResult:
    """The first violated raw point, at it the first constraint that is
    false or raises there, else Valid on budget; Unknown when there is no
    point to examine (no grid for these sorts, an empty Int range). A
    problem without universals has one point.

    The points are taken in blocks that grow from FIRST_BLOCK to MAX_BLOCK
    rows, and each constraint is evaluated column-wise over a block
    (terms.Pointwise): only over the rows before the earliest violation
    found so far in it. On a grid (the product of the universals' domains)
    a constraint that reads fewer than all universals is evaluated once per
    distinct projection of those rows onto the universals it reads."""
    columns = Pointwise((), p.defined_funs)
    universals = list(p.universals.items())
    # per constraint, the positions of the universals it reads; None: all
    reads: list[tuple[int, ...] | None] = [None] * len(constraints)
    if grid:
        for i, c in enumerate(constraints):
            names = free_vars(c)
            at = tuple(k for k, (n, _) in enumerate(universals) if n in names)
            reads[i] = at if len(at) < len(universals) else None
    it, size, checked = iter(points or ()), FIRST_BLOCK, False
    while block := list(itertools.islice(it, size)):
        checked = True
        cols = list(zip(*block))
        first, idx = len(block), None
        for i, c in enumerate(constraints):
            at = reads[i]
            if at is None:
                env = {name: (col[:first], sort)
                       for (name, sort), col in zip(universals, cols)}
                col = columns.column(c, env, first)[0]
            else:
                # rows in order of first occurrence, so the earliest
                # violating one leads back to the earliest violating point
                proj = (list(zip(*[cols[k][:first] for k in at])) if at
                        else [()] * first)
                rows = list(dict.fromkeys(proj))
                env = {universals[k][0]: (col, universals[k][1])
                       for k, col in zip(at, zip(*rows))}
                col = columns.column(c, env, len(rows))[0]
            xs = (False,) if type(col) is tuple else (False, ERR)
            bad = [col.index(x) for x in xs if x in col]
            if bad:
                first, idx = min(bad), i
                if at is not None:
                    first = proj.index(rows[first])
                if not first:
                    break
        if idx is not None:
            return CounterExample({
                name: BV(sort.width, v) if sort.is_bv else v
                for (name, sort), v in zip(universals, block[first])}, idx)
        size = min(2 * size, MAX_BLOCK)
    return Valid(certified=False) if checked else Unknown(UnknownReason.BUDGET)


def _violated_index(p: SynthProblem, constraints: Sequence[Term],
                    point: tuple) -> int | None:
    """The first constraint that is false or raises at the raw point: the
    one meaning of a candidate there, which the solvers' scorer shares."""
    r = _check_points(p, constraints, [point])
    return r.constraint_index if isinstance(r, CounterExample) else None


def check_semantic(p: SynthProblem, s: CandidateSolution,
                   strat: CheckStrategy) -> VerificationResult:
    return _check_constraints(p, s, substituted_constraints(p, s), strat)


def _check_constraints(p: SynthProblem, s: CandidateSolution,
                       constraints: Sequence[Term],
                       strat: CheckStrategy) -> VerificationResult:
    if isinstance(strat, ExhaustiveSmall):
        domains = _grid_domains(p.universals, strat)
        return _check_points(p, constraints, None if domains is None
                             else itertools.product(*domains), grid=True)

    if isinstance(strat, RandomSample):
        if strat.count < 1 or (strat.int_lo > strat.int_hi
                               and INT in p.universals.values()):
            return Unknown(UnknownReason.BUDGET)
        points = sample_points(p.universals, strat, random.Random(strat.seed))
        # islice stops at most at sys.maxsize, a count no check reaches
        return _check_points(p, constraints, itertools.islice(
            points, min(strat.count, sys.maxsize)))

    if isinstance(strat, ExternalSMT):
        return _check_external(p, s, strat)

    provisional: Valid | None = None
    unknown = Unknown(UnknownReason.BUDGET)
    for stage in strat.stages:
        r = _check_constraints(p, s, constraints, stage)
        if isinstance(r, CounterExample):
            return r
        if isinstance(r, Valid):
            if r.certified:
                return r
            provisional = r
        else:
            unknown = r
    return provisional if provisional is not None else unknown


# ---------------------------------------------------------------------------
# SMT-LIB emission and the external solver


_SMT_LOGICS = {"LIA": "LIA", "BV": "QF_BV"}


def _smt_sort(s: Sort) -> SExpr:
    if s.is_bv:
        return ["_", "BitVec", s.width]
    return s.name


def _smt_term(t: Term) -> SExpr:
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Lit):
        v = t.value
        if isinstance(v, bool) or isinstance(v, BV):
            return v
        return ["-", -v] if v < 0 else v
    if isinstance(t, Apply):
        op, args = t.op, t.args
        if op in ("and", "or", "+", "*") and len(args) == 1:
            return _smt_term(args[0])
        if op == "bvshr":
            op = "bvlshr"
        elif op in ("iff", "xnor"):
            return ["=", *(_smt_term(a) for a in args)]
        elif op == "nand":
            return ["not", ["and", *(_smt_term(a) for a in args)]]
        elif op == "nor":
            return ["not", ["or", *(_smt_term(a) for a in args)]]
        if not args:
            return op
        return [op, *(_smt_term(a) for a in args)]
    return ["let", [[n, _smt_term(d)] for n, d in t.bindings], _smt_term(t.body)]


def emit_smtlib(p: SynthProblem, s: CandidateSolution) -> str:
    """A complete SMT-LIB 2 script asserting the negated conjunction of the
    substituted constraints; `unsat` certifies validity for all inputs."""
    logic = _SMT_LOGICS.get(p.logic)
    if logic is None:
        raise UnsupportedLogic(p.logic)
    inlined = [expand(c, p.defined_funs) for c in substituted_constraints(p, s)]
    lines = [f"(set-logic {logic})"]
    for name, sort in p.universals.items():
        lines.append(print_sexpr(["declare-fun", name, [], _smt_sort(sort)]))
    body: SExpr = (_smt_term(inlined[0]) if len(inlined) == 1
                   else ["and", *(_smt_term(c) for c in inlined)])
    lines.append(print_sexpr(["assert", ["not", body]]))
    lines.append("(check-sat)")
    lines.append("(get-model)")
    return "\n".join(lines) + "\n"


def _parse_model_value(sx: SExpr) -> Value | None:
    if isinstance(sx, (bool, BV)):
        return sx
    if isinstance(sx, int):
        return sx
    if isinstance(sx, list):
        if len(sx) == 2 and sx[0] == "-" and isinstance(sx[1], int):
            return -sx[1]
        if (len(sx) == 3 and sx[0] == "_" and isinstance(sx[1], str)
                and sx[1].startswith("bv") and sx[1][2:].isdigit()
                and isinstance(sx[2], int)):
            return BV(sx[2], int(sx[1][2:]))
    return None


def parse_model(text: str, universals: Mapping[str, Sort]) -> dict | None:
    """Extract a valuation from get-model output.

    Accepts define-fun entries and ((name value) ...) pair lists; unmentioned
    universals default to zero. Returns None if nothing usable was found.
    """
    try:
        top = read_sexprs(text)
    except SygusError:
        return None
    found: dict[str, Value] = {}

    def visit(sx: SExpr):
        if not isinstance(sx, list):
            return
        if (len(sx) == 5 and sx[0] == "define-fun" and isinstance(sx[1], str)
                and sx[1] in universals and sx[2] == []):
            v = _parse_model_value(sx[4])
            if v is not None:
                found[sx[1]] = v
            return
        if (len(sx) == 2 and isinstance(sx[0], str) and sx[0] in universals
                and not isinstance(sx[1], list)):
            v = _parse_model_value(sx[1])
            if v is not None:
                found[sx[0]] = v
            return
        for item in sx:
            visit(item)

    for sx in top:
        visit(sx)
    if not found:
        return None
    out: dict[str, Value] = {}
    for name, sort in universals.items():
        v = found.get(name)
        if v is None:
            v = BV(sort.width, 0) if sort.is_bv else (False if sort == BOOL else 0)
        elif sort.is_bv and isinstance(v, int) and not isinstance(v, bool):
            v = BV(sort.width, v)
        if value_sort(v) != sort:
            return None
        out[name] = v
    return out


def run_solver(command: str, script: str, timeout_s: float) -> tuple[str, str] | Unknown:
    """Run the solver over stdin/stdout; first output line is the verdict."""
    try:
        proc = subprocess.run(shlex.split(command), input=script.encode(),
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              timeout=timeout_s)
    except (FileNotFoundError, PermissionError, OSError):
        return Unknown(UnknownReason.SOLVER_UNAVAILABLE)
    except subprocess.TimeoutExpired:
        return Unknown(UnknownReason.BUDGET)
    text = proc.stdout.decode("utf-8", errors="replace")
    first = text.strip().splitlines()[0].strip() if text.strip() else ""
    return first, text


def _check_external(p: SynthProblem, s: CandidateSolution,
                    strat: ExternalSMT) -> VerificationResult:
    try:
        script = emit_smtlib(p, s)
    except UnsupportedLogic:  # no SMT-LIB logic states the problem
        return Unknown(UnknownReason.SOLVER_UNAVAILABLE)
    res = run_solver(strat.command, script, strat.timeout_s)
    if isinstance(res, Unknown):
        return res
    first, text = res
    if first == "unsat":
        return Valid(certified=True)
    if first != "sat":
        return Unknown(UnknownReason.SOLVER_UNKNOWN)
    model = parse_model(text.split("\n", 1)[1] if "\n" in text else "",
                        p.universals)
    if model is None:
        return Unknown(UnknownReason.SOLVER_UNKNOWN)
    idx = _violated_index(p, substituted_constraints(p, s),
                          tuple(map(raw_value, model.values())))
    if idx is None:
        # model does not actually falsify anything we can evaluate
        return Unknown(UnknownReason.SOLVER_UNKNOWN)
    return CounterExample(model, idx)


# ---------------------------------------------------------------------------
# Feature classification


class Invocation(enum.Enum):
    SINGLE = "single"
    MULTIPLE = "multiple"


@dataclass
class FeatureSet:
    invocation: Invocation
    unknown_count: int
    track: Track


def classify_features(p: SynthProblem) -> FeatureSet:
    apps = unknown_invocations(p)
    single = all(len(tuples) <= 1 for tuples in apps.values())
    return FeatureSet(
        invocation=Invocation.SINGLE if single else Invocation.MULTIPLE,
        unknown_count=len(p.unknowns),
        track=p.track,
    )
