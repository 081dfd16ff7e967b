"""The one CEGIS loop (cegis) that verifies what a solver's proposer yields;
its outcomes, example sets and constant pools; and the one candidate scorer.

Counterexamples are valuations of the problem's universal variables. For
every example and every syntactically distinct invocation of an unknown, the
argument terms are evaluated at the example to bind the unknown's parameters;
a term's signature is its output vector over these induced bindings, in raw
values (a bit-vector as its masked int), composed from its arguments'
signatures (terms.Pointwise, whose column composition the checker also
uses); signature() is the reference tree walk, over BV values. Both solvers
ask Scorer which examples a candidate gets wrong: the enumerative solver
hands it the signatures from its banks, the stochastic one the bodies, whose
signatures Scorer composes per unknown, node by node (Pointwise). Scorer
compiles the conjunction of its constraint skeletons once (terms.compile_term)
and scores an example on its raw point and the candidate's slot values; an
example the skeletons cannot decide is scored as the verifier scores a point
(checker._violated_index on the substituted constraints), so a candidate's
meaning is the verifier's.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from typing import Callable, Generator, Iterable, Iterator, Mapping, Sequence

from . import checker
from .checker import (CounterExample, Valid, default_strategy,
                      substituted_constraints)
from .checker import falsified  # noqa: F401 (perfbench/tracing.py wraps it)
from .frontend import CandidateSolution, SynthProblem, unknown_invocations
from .sexpr import print_sexpr
from .terms import (BV, ERR, Apply, DivisionByZero, FunDef, Lit, Pointwise,
                    SygusError, Term, UndeclaredSymbol, Value, Var,
                    compile_term, evaluate, raw_value, subterms)


@dataclass
class Solved:
    solution: CandidateSolution
    elapsed_s: float

    @property
    def total_size(self) -> int:
        return self.solution.total_size()


@dataclass
class Exhausted:
    max_size: int


@dataclass
class TimedOut:
    budget_s: float


SolveOutcome = Solved | Exhausted | TimedOut


class BudgetExpired(Exception):
    """A proposer's deadline passed."""


def positive_finite(x) -> bool:
    """x is an int or a float, above 0 and at most the largest float: not a
    string or None, which math.isfinite would raise a TypeError on."""
    return isinstance(x, (int, float)) and 0 < x <= sys.float_info.max


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


def make_solution(p: SynthProblem, bodies: Mapping[str, Term]) -> CandidateSolution:
    return CandidateSolution({n: FunDef(n, u.params, u.ret, bodies[n])
                              for n, u in p.unknowns.items()})


Proposals = Generator[dict[str, Term], "tuple[Scorer, tuple] | None", None]


def cegis(p: SynthProblem, cfg, propose: Callable[..., Proposals],
          limit: int) -> SolveOutcome:
    """Verify the bodies (one per unknown) that propose(p, cfg, deadline,
    scorer, pool) yields, found wrong on no example by its scorer, until one
    is Valid; a yield returns the new (scorer, pool) once a counterexample
    joins the examples, else None. A body is verified once per example set,
    and not past cfg.budget_s, by cfg.verifier or default_strategy(p).
    Exhausted(limit) when propose returns, TimedOut on BudgetExpired."""
    if not positive_finite(cfg.budget_s):
        raise SygusError("budget_s must be positive and finite")
    deadline = Deadline(cfg.budget_s)
    verifier = cfg.verifier if cfg.verifier is not None else default_strategy(p)
    E, base = ExampleSet(), base_constant_pool(p)
    proposals = propose(p, cfg, deadline, Scorer(p, E), base)
    checked: set[tuple[Term, ...]] = set()
    reply = None
    while True:
        try:
            bodies = proposals.send(reply)
        except StopIteration:
            return Exhausted(limit)
        except BudgetExpired:
            return TimedOut(cfg.budget_s)
        reply, key = None, tuple(bodies.values())
        if key in checked:
            continue
        checked.add(key)
        if deadline.expired():
            return TimedOut(cfg.budget_s)
        sol = make_solution(p, bodies)
        verdict = checker.check_semantic(p, sol, verifier)
        if isinstance(verdict, Valid):
            return Solved(sol, deadline.elapsed())
        if isinstance(verdict, CounterExample) and E.add(verdict.valuation):
            checked.clear()
            reply = Scorer(p, E), pool_with_examples(base, E)


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
# Examples, induced bindings, signatures


def induced_bindings(p: SynthProblem, unknown: str,
                     E: ExampleSet) -> tuple[list[dict], dict[tuple[int, int], int]]:
    """Parameter bindings induced by E, deduplicated in first-seen order.

    Also returns the map (example index, invocation index) -> binding index
    so constraint-level checks can look a term's value back up. An
    invocation whose arguments raise at an example, or need an unknown's
    body, gets no entry for that example.
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
            except (DivisionByZero, UndeclaredSymbol):
                continue  # an argument that raises or calls an unknown
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
    the induced bindings, one per unknown in p.unknowns' order. Where a slot
    is ERR or an invocation has no binding, the example is scored on the
    constraints with the bodies substituted, as the verifier scores a
    point: an argument counts only where the body reads it, an error only
    where it is reached. naive: some example has an invocation without a
    binding, so signatures must not prune.

    stages() splits the skeletons by the last unknown each invokes, for a
    walk that binds the unknowns one at a time; what a stage rejects, wrong()
    rejects too.
    """

    def __init__(self, p: SynthProblem, E: ExampleSet):
        self.p = p
        tuples = unknown_invocations(p)
        self.bindings: dict[str, list[dict]] = {}
        self.sig: dict[str, Pointwise] = {}
        self.index: dict[str, dict[tuple[int, int], int]] = {}
        for n in p.unknowns:
            self.bindings[n], self.index[n] = induced_bindings(p, n, E)
            self.sig[n] = Pointwise(self.bindings[n], p.defined_funs)

        def skeleton(t: Term) -> Term:
            if isinstance(t, Apply):
                if t.op in tuples:
                    return Var(f"·{t.op}@{tuples[t.op].index(t.args)}")
                return Apply(t.op, tuple(skeleton(a) for a in t.args))
            return t

        # per slot: (its unknown's position in p.unknowns, unknown, index)
        self.slots = [(d, n, ti) for d, (n, ts) in enumerate(tuples.items())
                      for ti in range(len(ts))]
        self.skeletons = [skeleton(c) for c in p.constraints]
        self.points = [tuple(raw_value(e[n]) for n in p.universals) for e in E]
        self.holds, self.rows = self._table(self.skeletons)
        self.naive = any(row is None for _, row in self.rows)

    def _table(self, skeletons: Sequence[Term]) -> tuple[Callable, list]:
        """The skeletons' lazy conjunction over the universals, then the
        slots they read; and per example, its raw point and (position,
        binding index) per slot read, or None if one has no binding."""
        free = {t.name for sk in skeletons for t in subterms(sk)
                if isinstance(t, Var)}
        read = [(d, n, ti) for d, n, ti in self.slots if f"·{n}@{ti}" in free]
        params = [*self.p.universals.items(), *(
            (f"·{n}@{ti}", self.p.unknowns[n].ret) for _, n, ti in read)]
        holds = compile_term(Apply("and", tuple(skeletons)) if skeletons
                             else Lit(True), params, self.p.defined_funs)
        rows = []
        for ei, raw in enumerate(self.points):
            ks = [self.index[n].get((ei, ti)) for _, n, ti in read]
            rows.append((raw, None if None in ks else
                         [(d, k) for (d, _, _), k in zip(read, ks)]))
        return holds, rows

    def stages(self) -> list[Callable[[Sequence[tuple]], bool] | None]:
        """Checks for a walk that binds the unknowns in p.unknowns' order.
        Entry d takes the signatures of the first d+1 unknowns and is False
        when a constraint that invokes unknown d and no later one is false
        or raises at an example where every slot it reads is bound and not
        ERR: its skeleton's value there is the verifier's, so the example is
        wrong for every completion. None for a depth with nothing to
        decide."""
        groups: list[list[Term]] = [[] for _ in self.p.unknowns]
        for sk in self.skeletons:
            free = {t.name for t in subterms(sk) if isinstance(t, Var)}
            ds = [d for d, n, ti in self.slots if f"·{n}@{ti}" in free]
            if ds:
                groups[max(ds)].append(sk)
        return [self._stage(g) if g else None for g in groups]

    def _stage(self, skeletons: list[Term]
               ) -> Callable[[Sequence[tuple]], bool] | None:
        holds, rows = self._table(skeletons)
        rows = [(raw, row) for raw, row in rows if row is not None]

        def check(sigs: Sequence[tuple]) -> bool:
            for raw, row in rows:
                vals = tuple([sigs[d][k] for d, k in row])
                if ERR in vals:
                    continue
                try:
                    if not holds(raw + vals):
                        return False
                except DivisionByZero:
                    return False
            return True
        return check if rows else None

    def wrong(self, bodies: Mapping[str, Term],
              sigs: Sequence[tuple] | None = None) -> Iterator[int]:
        """Indices of the examples at which some constraint fails under the
        bodies. sigs, when given, are their raw signatures over self.bindings
        in p.unknowns' order; otherwise they are computed here."""
        if sigs is None:
            sigs = [self.sig[n](bodies[n]) for n in self.p.unknowns]
        whole = None
        for ei, (raw, row) in enumerate(self.rows):
            vals = None if row is None else tuple([sigs[d][k] for d, k in row])
            if vals is not None and ERR not in vals:
                try:
                    bad = not self.holds(raw + vals)
                except DivisionByZero:
                    bad = True
                if bad:
                    yield ei
                continue
            if whole is None:
                whole = substituted_constraints(self.p,
                                                make_solution(self.p, bodies))
            if checker._violated_index(self.p, whole, raw) is not None:
                yield ei


def count_wrong(scorer: Scorer, bodies: Mapping[str, Term],
                sigs: Sequence[tuple] | None = None) -> int:
    """How many examples the bodies get wrong. sigs, when given, are the
    bodies' signatures over scorer.bindings in p.unknowns' order, as
    Scorer.wrong takes them, so a caller that has composed them already
    does not have them composed again."""
    return sum(1 for _ in scorer.wrong(bodies, sigs))


def describe_point(point: Mapping[str, Value]) -> str:
    return "(" + " ".join(f"{k}={print_sexpr(v)}" for k, v in point.items()) + ")"
