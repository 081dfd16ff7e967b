"""The two solution post-processors: grammar adherence, then semantics.

The semantic check substitutes the candidate into every constraint and either
searches for a counterexample internally (exhaustive over a small grid, or
seeded random sampling) or asks an external SMT solver to refute the negated
conjunction. Internal Valid verdicts are only valid-on-budget and are never
silently upgraded: VerificationResult.Valid carries a `certified` flag that
only an external `unsat` sets.

The substituted constraints are compiled once per check (terms.compile_term)
over the universals, and every stage of a Layered strategy walks them over
raw points: tuples with a bit-vector as its int, drawn lazily from the grid
or the seeded sampler. A counterexample's valuation, and only it, is built
as a dict of Values. A point where evaluation raises (Int division by zero)
counts as falsified.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
import random
import shlex
import subprocess
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence, Union

from .frontend import (CandidateSolution, GrammarOrigin, SynthProblem, Track,
                       term_to_sexpr)
from .grammar import derives
from .sexpr import BV, SExpr, print_sexpr, read_sexprs
from .terms import (BOOL, INT, Apply, DivisionByZero, FunDef, Lit, Sort,
                    SygusError, Term, Value, Var, compile_term, evaluate,
                    expand, raw_value, value_sort)


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


@dataclass(frozen=True)
class ExhaustiveSmall:
    int_lo: int = -8
    int_hi: int = 8
    bv_width_cap: int = 10


@dataclass(frozen=True)
class RandomSample:
    count: int
    seed: int
    # narrow enough that equality-guarded premises get hit by collisions
    int_lo: int = -20
    int_hi: int = 20


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


def _violated_index(compiled: Sequence[Callable], point: tuple) -> int | None:
    """The first constraint, compiled over the universals, that is false or
    raises at the raw point."""
    for i, c in enumerate(compiled):
        try:
            if not c(point):
                return i
        except DivisionByZero:
            return i
    return None


def substituted_constraints(p: SynthProblem, s: CandidateSolution) -> list[Term]:
    return [expand(c, s.funcs) for c in p.constraints]


def _drawer(sort: Sort, rng: random.Random,
            strat: RandomSample) -> Callable[[], Value]:
    """Draws one raw value of sort."""
    if sort == INT:
        return int_drawer(rng, strat.int_lo, strat.int_hi)
    if sort == BOOL:
        return lambda: rng.random() < 0.5
    return functools.partial(rng.getrandbits, sort.width)


def int_drawer(rng: random.Random, lo: int, hi: int) -> Callable[[], int]:
    """rng.randint(lo, hi) without its per-call argument checks: the same
    getrandbits rejection loop as CPython's Random._randbelow, so the draws
    and the rng's state after them are those of randint."""
    n = hi - lo + 1
    if n <= 0:
        return functools.partial(rng.randint, lo, hi)  # raises as randint does
    k = n.bit_length()
    bits = rng.getrandbits

    def draw() -> int:
        r = bits(k)
        while r >= n:
            r = bits(k)
        return lo + r

    return draw


def _check_points(p: SynthProblem, compiled: Sequence[Callable],
                  points: Iterable[tuple] | None) -> VerificationResult:
    """The first violated raw point, else Valid on budget; Unknown when there
    is no point to examine (no grid for these sorts, an empty Int range, a
    sample count below one). A problem without universals has one point."""
    checked = False
    for point in points or ():
        checked = True
        idx = _violated_index(compiled, point)
        if idx is not None:
            return CounterExample({
                name: BV(sort.width, v) if sort.is_bv else v
                for (name, sort), v in zip(p.universals.items(), point)}, idx)
    return Valid(certified=False) if checked else Unknown(UnknownReason.BUDGET)


def compiled_constraints(p: SynthProblem,
                         s: CandidateSolution) -> list[Callable]:
    """The substituted constraints compiled over the universals: the one
    meaning of a candidate at a raw point, which the solvers' scorer shares."""
    params = list(p.universals.items())
    return [compile_term(c, params, p.defined_funs)
            for c in substituted_constraints(p, s)]


def check_semantic(p: SynthProblem, s: CandidateSolution,
                   strat: CheckStrategy) -> VerificationResult:
    return _check_constraints(p, s, compiled_constraints(p, s), strat)


def _check_constraints(p: SynthProblem, s: CandidateSolution,
                       compiled: Sequence[Callable],
                       strat: CheckStrategy) -> VerificationResult:
    if isinstance(strat, ExhaustiveSmall):
        domains = _grid_domains(p.universals, strat)
        return _check_points(p, compiled, None if domains is None
                             else itertools.product(*domains))

    if isinstance(strat, RandomSample):
        if strat.int_lo > strat.int_hi and INT in p.universals.values():
            return Unknown(UnknownReason.BUDGET)
        rng = random.Random(strat.seed)
        draws = [_drawer(sort, rng, strat) for sort in p.universals.values()]
        return _check_points(p, compiled, (tuple([d() for d in draws])
                                           for _ in range(strat.count)))

    if isinstance(strat, ExternalSMT):
        return _check_external(p, s, compiled, strat)

    provisional: Valid | None = None
    unknown = Unknown(UnknownReason.BUDGET)
    for stage in strat.stages:
        r = _check_constraints(p, s, compiled, stage)
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
                    compiled: Sequence[Callable],
                    strat: ExternalSMT) -> VerificationResult:
    res = run_solver(strat.command, emit_smtlib(p, s), strat.timeout_s)
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
    idx = _violated_index(compiled, tuple(map(raw_value, model.values())))
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
    grammar_origins: dict[str, GrammarOrigin]
    track: Track


def classify_features(p: SynthProblem) -> FeatureSet:
    from .cegis import unknown_invocations  # cegis imports this module
    apps = unknown_invocations(p)
    single = all(len(tuples) <= 1 for tuples in apps.values())
    return FeatureSet(
        invocation=Invocation.SINGLE if single else Invocation.MULTIPLE,
        unknown_count=len(p.unknowns),
        grammar_origins={n: u.origin for n, u in p.unknowns.items()},
        track=p.track,
    )
