"""Shared CEGIS machinery: outcomes, example sets, constant pools, signatures.

Counterexamples are valuations of the problem's universal variables. A
candidate subterm is scored against the examples through the parameter
bindings induced by the unknowns' invocation argument tuples: for every
example and every syntactically distinct invocation, the argument terms are
evaluated at the example to bind the unknown's parameters.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .checker import falsified
from .frontend import CandidateSolution, SynthProblem
from .sexpr import print_sexpr
from .terms import (BV, Apply, DivisionByZero, FunDef, Lit, Term, Value,
                    evaluate, subterms)


@dataclass
class Solved:
    solution: CandidateSolution
    elapsed_s: float
    sizes: dict[str, int]

    @property
    def total_size(self) -> int:
        return sum(self.sizes.values())


@dataclass
class Exhausted:
    max_size: int


@dataclass
class TimedOut:
    budget_s: float


SolveOutcome = Solved | Exhausted | TimedOut


class Deadline:
    def __init__(self, budget_s: float):
        self.budget_s = budget_s
        self.start = time.monotonic()

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def expired(self) -> bool:
        return self.elapsed() >= self.budget_s


class ExampleSet:
    """Ordered counterexamples, duplicates rejected."""

    def __init__(self, points: Iterable[Mapping[str, Value]] = ()):
        self.points: list[dict] = []
        for p in points:
            self.add(p)

    def add(self, point: Mapping[str, Value]) -> bool:
        point = dict(point)
        if point in self.points:
            return False
        self.points.append(point)
        return True

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)


class _Err:
    """Distinguished signature token for evaluation errors."""

    __slots__ = ()

    def __repr__(self):
        return "⊥"


ERR = _Err()


def make_solution(p: SynthProblem, bodies: Mapping[str, Term]) -> CandidateSolution:
    return CandidateSolution({n: FunDef(n, u.params, u.ret, bodies[n])
                              for n, u in p.unknowns.items()})


# ---------------------------------------------------------------------------
# Constant pool (the "(Constant Int)" gap)


def base_constant_pool(p: SynthProblem) -> tuple[Value, ...]:
    """Integer (and bit-vector) literals of the problem text plus {-1, 0, 1, 2}."""
    found: dict[Value, None] = {}
    for t in [*p.constraints, *(f.body for f in p.defined_funs.values())]:
        for s in subterms(t):
            if isinstance(s, Lit) and not isinstance(s.value, bool):
                found[s.value] = None
    ints = sorted({v for v in found if isinstance(v, int)} | {-1, 0, 1, 2})
    bvs = sorted((v for v in found if isinstance(v, BV)),
                 key=lambda b: (b.width, b.value))
    return tuple(ints) + tuple(bvs)


def pool_with_examples(base: Sequence[Value], E: ExampleSet) -> tuple[Value, ...]:
    extra_ints, extra_bvs = set(), set()
    for point in E:
        for v in point.values():
            if isinstance(v, bool):
                continue
            if isinstance(v, BV):
                extra_bvs.add(v)
            else:
                extra_ints.add(v)
    out = dict.fromkeys(base)
    for v in sorted(extra_ints):
        out.setdefault(v, None)
    for v in sorted(extra_bvs, key=lambda b: (b.width, b.value)):
        out.setdefault(v, None)
    return tuple(out)


# ---------------------------------------------------------------------------
# Examples, invocations, signatures


def unknown_invocations(p: SynthProblem) -> dict[str, list[tuple[Term, ...]]]:
    """Syntactically distinct argument tuples per unknown, in constraint order."""
    apps: dict[str, dict[tuple[Term, ...], None]] = {n: {} for n in p.unknowns}
    for c in p.constraints:
        for t in subterms(c):
            if isinstance(t, Apply) and t.op in apps:
                apps[t.op].setdefault(t.args, None)
    return {n: list(tuples) for n, tuples in apps.items()}


def has_nested_unknown_args(p: SynthProblem) -> bool:
    names = frozenset(p.unknowns)
    for tuples in unknown_invocations(p).values():
        for args in tuples:
            for a in args:
                if any(isinstance(s, Apply) and s.op in names
                       for s in subterms(a)):
                    return True
    return False


def induced_bindings(p: SynthProblem, unknown: str,
                     E: ExampleSet) -> tuple[list[dict], dict[tuple[int, int], int]]:
    """Parameter bindings induced by E, deduplicated in first-seen order.

    Also returns the map (example index, invocation index) -> binding index
    so constraint-level checks can look a term's value back up.
    """
    u = p.unknowns[unknown]
    tuples = unknown_invocations(p)[unknown]
    names = [n for n, _ in u.params]
    bindings: list[dict] = []
    seen: dict[tuple, int] = {}
    index: dict[tuple[int, int], int] = {}
    for ei, point in enumerate(E):
        for ti, args in enumerate(tuples):
            try:
                vals = tuple(evaluate(a, point, p.defined_funs) for a in args)
            except DivisionByZero:
                continue
            k = seen.get(vals)
            if k is None:
                k = seen[vals] = len(bindings)
                bindings.append(dict(zip(names, vals)))
            index[(ei, ti)] = k
    return bindings, index


def signature(t: Term, bindings: Sequence[Mapping[str, Value]],
              defs: Mapping[str, FunDef]) -> tuple:
    """Output vector over the bindings; errors map to the ERR token."""
    out = []
    for b in bindings:
        try:
            out.append(evaluate(t, b, defs))
        except DivisionByZero:
            out.append(ERR)
    return tuple(out)


def count_wrong(p: SynthProblem, funcs: Mapping[str, FunDef],
                E: ExampleSet) -> int:
    """Examples on which some constraint fails under the candidate bodies."""
    defs = dict(p.defined_funs)
    defs.update(funcs)
    wrong = 0
    for point in E:
        if any(falsified(c, point, defs) for c in p.constraints):
            wrong += 1
    return wrong


def describe_point(point: Mapping[str, Value]) -> str:
    return "(" + " ".join(f"{k}={print_sexpr(v)}" for k, v in point.items()) + ")"
