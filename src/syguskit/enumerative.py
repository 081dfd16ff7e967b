"""Enumerative CEGIS: size-ordered search with observational-equivalence
pruning against the current counterexample set.

A Bank is the grammar's Enumerator walking one unknown's grammar by size,
keyed by signature: a term's output vector over the induced parameter
bindings, built from its arguments' kept signatures. A term is kept only if
its signature is unseen within its (nonterminal, size), and nonterminal slots
draw from the kept terms. Candidates are tried in nondecreasing total size
(joint size over the unknowns, compositions in lexicographic order); the
first candidate that cegis.Scorer finds wrong on no example, given its bank
signatures, goes to the verifier, a counterexample restarts enumeration from
size 1 with the refreshed pool and scorer, and Valid wins. Unpruned mode
keeps every term, which makes the returned solution minimal outright.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Mapping, Sequence

from .cegis import (ERR, Deadline, ExampleSet, Exhausted, Scorer, Solved,
                    SolveOutcome, TimedOut, base_constant_pool, make_solution,
                    pool_with_examples, signature)
from .cegis import induced_bindings  # noqa: F401 (perfbench/tracing.py wraps it)
from .checker import (CheckStrategy, CounterExample, Valid, check_semantic,
                      default_strategy)
from .checker import falsified  # noqa: F401 (perfbench/tracing.py wraps it)
from .frontend import SynthProblem
from .grammar import Enumerator, compositions
from .terms import (OPS, Apply, DivisionByZero, FunDef, Lit, Term,
                    UndeclaredSymbol, Value, Var, evaluate)


@dataclass
class EnumConfig:
    max_size: int = 12
    budget_s: float = 60.0
    verifier: CheckStrategy | None = None
    prune: bool = True


def _apply_pointwise(op: str, sigs: Sequence[tuple], n: int,
                     defs: Mapping[str, FunDef]) -> tuple:
    """Compose output vectors over n points through one operator, with the
    evaluator's laziness for ite/and/or/=> so untaken branches swallow
    errors."""
    points = zip(*sigs) if sigs else [()] * n
    if op == "ite":
        return tuple(ERR if c is ERR else (a if c else b) for c, a, b in points)
    if op in ("and", "or", "=>"):
        return tuple(_connective(op, xs) for xs in points)
    spec = OPS.get(op)
    if spec is not None:
        value = spec.lift if spec.operand == "bv" else spec.value
    else:
        f = defs.get(op)

        def value(*xs):  # a defined function such as qm
            if f is None:
                raise UndeclaredSymbol(op)
            return evaluate(f.body, {name: x for (name, _), x
                                     in zip(f.params, xs)}, defs)
    out = []
    for xs in points:
        if any(x is ERR for x in xs):
            out.append(ERR)
            continue
        try:
            out.append(value(*xs))
        except DivisionByZero:
            out.append(ERR)
    return tuple(out)


def _connective(op: str, xs: tuple):
    """and/or/=> at one point: the first operand that settles the result
    decides it, so an error there wins and an error after it is swallowed."""
    if op == "and":
        return next((x for x in xs if x is ERR or x is False), True)
    if op == "or":
        return next((x for x in xs if x is ERR or x is True), False)
    x = next((x for x in xs[:-1] if x is ERR or x is False), None)
    return xs[-1] if x is None else ERR if x is ERR else True


class BudgetExpired(Exception):
    pass


class Bank(Enumerator):
    """Per-unknown banks: the grammar's sized walk, keeping one term per
    signature in each (nonterminal, size) when pruning and one per term
    otherwise, so nonterminal slots draw from the kept terms."""

    def __init__(self, grammar, bindings: Sequence[Mapping[str, Value]],
                 pool: Sequence[Value], prune: bool,
                 defs: Mapping[str, FunDef] | None = None):
        super().__init__(grammar, pool)
        self.bindings = list(bindings)
        self.prune = prune
        self.defs = dict(defs or {})
        self.sigs: dict[Term, tuple] = {}  # of every kept term
        self.terms: dict[str, dict[int, list[tuple[Term, tuple]]]] = {
            nt: {} for nt in grammar.rules}
        self._deadline: Deadline | None = None
        self._seen = 0

    def build_to(self, size: int, deadline: Deadline | None = None):
        """Fill self.terms to size; BudgetExpired past the deadline."""
        self._deadline = deadline
        for s in range(1, size + 1):
            for nt in self.g.rules:
                self.enumerate(nt, s)

    def _distinct(self, key: tuple, walk: Iterable[Term]) -> tuple[Term, ...]:
        kept: dict = {}
        for t in walk:
            self._seen += 1
            if self._seen % 4096 == 0 and self._deadline is not None \
                    and self._deadline.expired():
                raise BudgetExpired
            sig = self._sig(t)
            kept.setdefault(sig if self.prune else t, (t, sig))
        pairs = list(kept.values())
        self.sigs.update(pairs)
        nt, size, no_zero = key
        if not no_zero:
            self.terms[nt][size] = pairs
        return tuple(t for t, _ in pairs)

    def _sig(self, t: Term) -> tuple:
        """t's output vector over the bindings: an application's from its
        arguments' (memoised when kept), a let's through the evaluator."""
        if isinstance(t, Apply):
            sigs = self.sigs
            return _apply_pointwise(
                t.op, [s if (s := sigs.get(a)) is not None else self._sig(a)
                       for a in t.args], len(self.bindings), self.defs)
        if isinstance(t, Var):
            return tuple(b[t.name] for b in self.bindings)
        if isinstance(t, Lit):
            return (t.value,) * len(self.bindings)
        return signature(t, self.bindings, self.defs)


def solve_enumerative(p: SynthProblem, cfg: EnumConfig) -> SolveOutcome:
    deadline = Deadline(cfg.budget_s)
    verifier = cfg.verifier if cfg.verifier is not None else default_strategy(p)
    names = list(p.unknowns)
    mins = []
    for n in names:
        g = p.unknowns[n].grammar
        m = g.min_sizes()[g.start]
        if m == math.inf:
            return Exhausted(cfg.max_size)
        mins.append(int(m))

    E = ExampleSet()

    while True:
        pool = pool_with_examples(base_constant_pool(p), E)
        scorer = Scorer(p, E)
        # the naive path has no bindings, so it must not prune on signatures
        banks = {n: Bank(p.unknowns[n].grammar, scorer.bindings[n], pool,
                         cfg.prune and not scorer.naive, p.defined_funs)
                 for n in names}

        restart = False
        poll = 0
        for total in range(sum(mins), cfg.max_size + 1):
            try:
                for n, m in zip(names, mins):
                    banks[n].build_to(total - (sum(mins) - m), deadline)
            except BudgetExpired:
                return TimedOut(cfg.budget_s)
            if deadline.expired():
                return TimedOut(cfg.budget_s)
            for split in compositions(total, mins):
                pieces = [banks[n].terms[banks[n].g.start].get(s, [])
                          for n, s in zip(names, split)]
                if any(not piece for piece in pieces):
                    continue
                for combo in product(*pieces):
                    poll += 1
                    if poll % 256 == 0 and deadline.expired():
                        return TimedOut(cfg.budget_s)
                    bodies = {n: t for n, (t, _) in zip(names, combo)}
                    sigs = {n: s for n, (_, s) in zip(names, combo)}
                    if next(scorer.wrong(bodies, sigs), None) is not None:
                        continue
                    if deadline.expired():
                        return TimedOut(cfg.budget_s)
                    sol = make_solution(p, bodies)
                    verdict = check_semantic(p, sol, verifier)
                    if isinstance(verdict, Valid):
                        sizes = dict(zip(names, split))
                        return Solved(sol, deadline.elapsed(), sizes)
                    if isinstance(verdict, CounterExample):
                        if E.add(verdict.valuation):
                            restart = True
                            break
                        continue  # stale point; keep enumerating
                if restart:
                    break
            if restart:
                break
        if not restart:
            return Exhausted(cfg.max_size)
        if deadline.expired():
            return TimedOut(cfg.budget_s)
