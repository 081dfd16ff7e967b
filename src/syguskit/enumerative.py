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

from .cegis import (Deadline, ExampleSet, Exhausted, Pointwise, Scorer,
                    Solved, SolveOutcome, TimedOut, base_constant_pool,
                    make_solution, pool_with_examples)
from .cegis import induced_bindings  # noqa: F401 (perfbench/tracing.py wraps it)
from .checker import (CheckStrategy, CounterExample, Valid, check_semantic,
                      default_strategy)
from .checker import falsified  # noqa: F401 (perfbench/tracing.py wraps it)
from .frontend import SynthProblem
from .grammar import Enumerator, compositions
from .terms import FunDef, Term, Value
from .terms import evaluate  # noqa: F401 (perfbench/tracing.py wraps it)


@dataclass
class EnumConfig:
    max_size: int = 12
    budget_s: float = 60.0
    verifier: CheckStrategy | None = None
    prune: bool = True


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
        self.pointwise = Pointwise(bindings, dict(defs or {}))
        self.prune = prune
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
        """t's output vector over the bindings, an application's from its
        arguments' (memoised when kept)."""
        return self.pointwise.of(t, self._arg_sig)

    def _arg_sig(self, t: Term) -> tuple:
        sig = self.sigs.get(t)
        return self._sig(t) if sig is None else sig


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
        # signatures do not decide an example with an unbound invocation
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
