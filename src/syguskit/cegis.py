"""Shared CEGIS machinery: outcomes, example sets, constant pools, and the
one candidate scorer.

Counterexamples are valuations of the problem's universal variables. For
every example and every syntactically distinct invocation of an unknown, the
argument terms are evaluated at the example to bind the unknown's parameters;
a term's signature is its output vector over these induced bindings. Both
solvers ask Scorer which examples a candidate gets wrong: the enumerative
solver hands it the signatures from its banks, the stochastic one the bodies.
Scorer compiles its constraint skeletons once (terms.compile_term) and scores
an example on its raw point followed by the candidate's raw slot values.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from .checker import falsified
from .frontend import CandidateSolution, SynthProblem
from .sexpr import print_sexpr
from .terms import (BV, Apply, DivisionByZero, FunDef, Let, Lit, Term, Value,
                    Var, compile_term, evaluate, raw_value, subterms)


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
    """base, then the examples' Int and bit-vector values in sorted order;
    the Enumerator drops repeats."""
    ints = sorted({v for point in E for v in point.values()
                   if type(v) is int})
    bvs = sorted({v for point in E for v in point.values()
                  if isinstance(v, BV)}, key=lambda b: (b.width, b.value))
    return (*base, *ints, *bvs)


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


class Scorer:
    """The examples a candidate gets wrong, for one problem and example set.

    Each unknown invocation in a constraint becomes a slot variable, and an
    example is scored on these skeletons from the candidate's signatures over
    the induced bindings. Where a slot is ERR or an invocation's arguments
    raise, and everywhere when an invocation is nested in another's
    arguments, the example is scored on the whole constraints with the
    bodies, so an error counts only where evaluation reaches it.
    """

    def __init__(self, p: SynthProblem, E: ExampleSet):
        self.p = p
        tuples = unknown_invocations(p)
        self.naive = any(isinstance(s, Apply) and s.op in tuples
                         for ts in tuples.values() for args in ts
                         for a in args for s in subterms(a))
        self.bindings: dict[str, list[dict]] = {}
        index = {}
        for n in p.unknowns:
            self.bindings[n], index[n] = (([], {}) if self.naive
                                          else induced_bindings(p, n, E))

        def skeleton(t: Term) -> Term:
            if isinstance(t, Apply):
                if t.op in tuples:
                    return Var(f"·{t.op}@{tuples[t.op].index(t.args)}")
                return Apply(t.op, tuple(skeleton(a) for a in t.args))
            if isinstance(t, Let):
                return Let(tuple((n, skeleton(d)) for n, d in t.bindings),
                           skeleton(t.body))
            return t

        slots = [(n, ti) for n, ts in tuples.items() for ti in range(len(ts))]
        # the skeletons, compiled over the universals, then the slots
        params = [*p.universals.items(),
                  *((f"·{n}@{ti}", p.unknowns[n].ret) for n, ti in slots)]
        self.skeletons = [compile_term(skeleton(c), params, p.defined_funs)
                          for c in p.constraints]
        # per example: (point, raw point, [(unknown, binding index, is a
        # bit-vector)] per slot or None)
        self.rows: list[tuple[dict, tuple, list | None]] = []
        for ei, point in enumerate(E):
            ks = [index[n].get((ei, ti)) for n, ti in slots]
            self.rows.append((point, tuple(raw_value(point[n])
                                           for n in p.universals),
                              None if self.naive or None in ks else [
                (n, k, p.unknowns[n].ret.is_bv)
                for (n, _), k in zip(slots, ks)]))

    def wrong(self, bodies: Mapping[str, Term],
              sigs: Mapping[str, tuple] | None = None) -> Iterator[int]:
        """Indices of the examples at which some constraint fails under the
        bodies. sigs, when given, are the bodies' signatures over
        self.bindings; otherwise they are computed here."""
        defs = self.p.defined_funs
        if sigs is None:
            sigs = {n: signature(b, self.bindings[n], defs)
                    for n, b in bodies.items()}
        whole = None
        for ei, (point, raw, row) in enumerate(self.rows):
            if row is not None:
                env = list(raw)
                for n, k, is_bv in row:
                    v = sigs[n][k]
                    if v is ERR:
                        break
                    env.append(v.value if is_bv else v)
                else:
                    env = tuple(env)
                    try:
                        bad = any(not c(env) for c in self.skeletons)
                    except DivisionByZero:
                        bad = True
                    if bad:
                        yield ei
                    continue
            if whole is None:
                whole = dict(defs)
                whole.update(make_solution(self.p, bodies).funcs)
            if any(falsified(c, point, whole) for c in self.p.constraints):
                yield ei


def count_wrong(scorer: Scorer, bodies: Mapping[str, Term]) -> int:
    """How many examples the bodies get wrong."""
    return sum(1 for _ in scorer.wrong(bodies))


def describe_point(point: Mapping[str, Value]) -> str:
    return "(" + " ".join(f"{k}={print_sexpr(v)}" for k, v in point.items()) + ")"
