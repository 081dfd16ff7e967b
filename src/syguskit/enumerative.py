"""Enumerative CEGIS: size-ordered search with observational-equivalence
pruning against the current counterexample set.

Banks of representative subterms are grown bottom-up per (nonterminal, size);
a new term is kept only if its output vector over the induced parameter
bindings is unseen within that (nonterminal, size). Candidates are tried in
nondecreasing total size (joint size over the unknowns, compositions in
lexicographic order); the first candidate that cegis.Scorer finds wrong on no
example, given its bank signatures, goes to the verifier, a counterexample
restarts enumeration from size 1 with the refreshed pool and scorer, and
Valid wins. Unpruned mode keeps every term, which makes the returned
solution minimal outright.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Iterator, Mapping, Sequence

from .cegis import (ERR, Deadline, ExampleSet, Exhausted, Scorer, Solved,
                    SolveOutcome, TimedOut, base_constant_pool, make_solution,
                    pool_with_examples)
from .cegis import induced_bindings  # noqa: F401 (perfbench/tracing.py wraps it)
from .checker import (CheckStrategy, CounterExample, Valid, check_semantic,
                      default_strategy)
from .checker import falsified  # noqa: F401 (perfbench/tracing.py wraps it)
from .frontend import SynthProblem
from .grammar import Enumerator, assemble, compositions, walk_splits
from .terms import (OPS, DivisionByZero, FunDef, Let, Lit, Template,
                    Term, THole, TNT, UndeclaredSymbol, Value, Var, evaluate)


@dataclass
class EnumConfig:
    max_size: int = 12
    budget_s: float = 60.0
    verifier: CheckStrategy | None = None
    prune: bool = True
    extra_pool: tuple[Value, ...] = ()


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
        value = spec.value
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


class Bank:
    """Per-unknown banks of (term, signature) per (nonterminal, size)."""

    def __init__(self, grammar, bindings: Sequence[Mapping[str, Value]],
                 pool: Sequence[Value], prune: bool,
                 defs: Mapping[str, FunDef] | None = None):
        self.g = grammar
        self.bindings = list(bindings)
        self.enumr = Enumerator(grammar, pool)
        self.prune = prune
        self.defs = dict(defs or {})
        self.terms: dict[str, dict[int, list[tuple[Term, tuple]]]] = {
            nt: {} for nt in grammar.rules}
        # size-1 banks as a divisor slot sees them: holes there skip zero
        self.nonzero: dict[str, list[tuple[Term, tuple]]] = {}
        self.built_to = 0

    def build_to(self, size: int, deadline: Deadline | None = None):
        for s in range(self.built_to + 1, size + 1):
            for nt in self.g.rules:
                self.terms[nt][s] = self._grow(nt, s, False, deadline)
                if s == 1:
                    self.nonzero[nt] = self._grow(nt, 1, True, deadline)
            self.built_to = s

    def _grow(self, nt: str, size: int, no_zero: bool,
              deadline: Deadline | None) -> list[tuple[Term, tuple]]:
        kept: list[tuple[Term, tuple]] = []
        seen_terms: set[Term] = set()
        seen_sigs: set[tuple] = set()
        n = 0
        for p in self.g.closed_productions(nt):
            for term, sig in self._inst(p, size, no_zero, {}):
                n += 1
                if n % 4096 == 0 and deadline is not None \
                        and deadline.expired():
                    raise BudgetExpired
                if term in seen_terms:
                    continue
                seen_terms.add(term)
                if self.prune:
                    if sig in seen_sigs:
                        continue
                    seen_sigs.add(sig)
                kept.append((term, sig))
        return kept

    def _leaf_sig(self, value_fn) -> tuple:
        return tuple(value_fn(b) for b in self.bindings)

    def _inst(self, tpl: Template, size: int, no_zero: bool,
              let_env: Mapping[str, tuple]) -> Iterator[tuple[Term, tuple]]:
        if isinstance(tpl, Var):
            if size == 1:
                sig = (let_env[tpl.name] if tpl.name in let_env
                       else self._leaf_sig(lambda b: b[tpl.name]))
                yield tpl, sig
        elif isinstance(tpl, Lit):
            if size == 1:
                yield tpl, self._leaf_sig(lambda b: tpl.value)
        elif isinstance(tpl, THole):
            if size == 1:
                for v in self.enumr._hole_pool(tpl.sort, no_zero):
                    yield Lit(v), self._leaf_sig(lambda b, v=v: v)
        elif isinstance(tpl, TNT):
            # holes occur only at size 1, so larger divisors need no filter
            yield from (self.nonzero[tpl.nt] if no_zero and size == 1
                        else self.terms[tpl.nt].get(size, []))
        else:
            slots, splits = self.g.split_plan(tpl, size)
            is_let = isinstance(tpl, Let)

            def inst(i, s, chosen):
                env = let_env
                if is_let and i == len(tpl.bindings):
                    # the body sees each bound name's signature
                    env = dict(let_env)
                    env.update((n, sig) for (n, _), (_, sig)
                               in zip(tpl.bindings, chosen))
                return self._inst(slots[i][0], s, slots[i][1], env)

            for combo in walk_splits(splits, inst):
                term = assemble(tpl, [t for t, _ in combo])
                if is_let:
                    yield term, combo[-1][1]
                else:
                    yield term, _apply_pointwise(
                        tpl.op, [sig for _, sig in combo], len(self.bindings),
                        self.defs)


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

    base_pool = tuple(base_constant_pool(p)) + tuple(cfg.extra_pool)
    E = ExampleSet()

    while True:
        pool = pool_with_examples(base_pool, E)
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
