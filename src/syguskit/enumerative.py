"""Enumerative CEGIS, a proposer for cegis.cegis: size-ordered search with
observational-equivalence pruning against the current counterexample set.

A Bank is the grammar's sized walk over one unknown's grammar, down each
template's size tree (Grammar.split_plan), carrying (term, signature)
pairs: a signature is a term's raw output vector over the induced
parameter bindings (terms.Pointwise), and an application's is
composed from its slots' kept signatures before its term is built. A pruned
bank keeps the first term of each signature in its (nonterminal, size) and
builds no other, and of a commutative operator (terms.OPS) over two slots of
one nonterminal it composes (op a b) but not the twin (op b a) that comes
after it; nonterminal slots draw from the kept pairs. Candidates are
proposed in nondecreasing total size (joint size over the unknowns,
compositions in lexicographic order). A bank builds each piece where the
walk first reads it, and the first bank's pieces are proposed from as they
grow, each candidate as soon as its pair is kept. A composition is walked
one unknown at a time, in product's order: once a prefix's unknowns are
bound, the constraints that invoke only them are checked on their slots
(Scorer.stages), and a prefix that fails one is skipped with every
combination below it. Every combination that cegis.Scorer finds wrong on
no example, given its bank signatures, is yielded to the loop; a new
counterexample restarts enumeration from size 1 with the refreshed pool and
scorer. Unpruned mode keeps every term, which makes the returned solution
minimal outright.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import count
from typing import Callable, Container, Iterator, Mapping, Sequence

from .cegis import (BudgetExpired, Deadline, Proposals, Scorer, SolveOutcome,
                    cegis)
from .cegis import induced_bindings  # noqa: F401 (perfbench/tracing.py wraps it)
from .checker import CheckStrategy
from .checker import check_semantic  # noqa: F401 (perfbench/tracing.py wraps it)
from .checker import falsified  # noqa: F401 (perfbench/tracing.py wraps it)
from .frontend import SynthProblem
from .grammar import Enumerator, compositions, walk_splits
from .terms import (OPS, TNT, Apply, FunDef, Let, Lit, Pointwise, SygusError,
                    Template, Term, THole, Value)
from .terms import evaluate  # noqa: F401 (perfbench/tracing.py wraps it)


@dataclass
class EnumConfig:
    max_size: int = 12
    budget_s: float = 60.0
    verifier: CheckStrategy | None = None
    prune: bool = True


class Bank(Enumerator):
    """Per-unknown banks: the grammar's sized walk over (term, signature)
    pairs, keeping one pair per signature in each (nonterminal, size) when
    pruning and one per term otherwise, so nonterminal slots draw from the
    kept pairs and enumerate() gives the kept terms. An application's
    signature is composed from its slots' before its term is built, which a
    pruned bank does only for a signature it keeps. A piece is built where
    it is first read, by pairs, stream or build_to, and each of them raises
    BudgetExpired once the bank's deadline has passed."""

    def __init__(self, grammar, bindings: Sequence[Mapping[str, Value]],
                 pool: Sequence[Value], prune: bool,
                 defs: Mapping[str, FunDef] | None = None,
                 deadline: Deadline | None = None):
        super().__init__(grammar, pool)
        self.pointwise = Pointwise(bindings, dict(defs or {}))
        self.prune = prune
        self.terms: dict[str, dict[int, list[tuple[Term, tuple]]]] = {
            nt: {} for nt in grammar.rules}
        self._kept: dict[tuple, list[tuple[Term, tuple]]] = {}
        self._deadline = deadline
        self._polls = count(1)

    def build_to(self, size: int):
        """Fill self.terms to size."""
        for s in range(1, size + 1):
            for nt in self.g.rules:
                self.pairs(nt, s)

    def enumerate(self, nt: str, size: int,
                  no_zero: bool = False) -> tuple[Term, ...]:
        # Enumerator's walk of a let template draws its slots from here
        return tuple([t for t, _ in self.pairs(nt, size, no_zero)])

    def pairs(self, nt: str, size: int,
              no_zero: bool = False) -> list[tuple[Term, tuple]]:
        """The kept (term, signature) pairs of nt at size, in walk order."""
        key = (nt, size, no_zero and size == 1)  # holes occur only at size 1
        if key not in self._kept:
            for _ in self.stream(nt, size, no_zero):
                pass
        return self._kept[key]

    def stream(self, nt: str, size: int, no_zero: bool = False
               ) -> Iterator[tuple[Term, tuple]]:
        """pairs(nt, size, no_zero): the stored list once built, else each
        pair yielded as the walk keeps it and the list stored once the walk
        ends."""
        key = (nt, size, no_zero and size == 1)
        if key in self._kept:
            yield from self._kept[key]
            return
        kept: dict = {}
        for p in self.g.closed_productions(nt):
            for t, sig in self._walk(p, size, no_zero,
                                     kept if self.prune else ()):
                if (k := sig if self.prune else t) not in kept:
                    kept[k] = t, sig
                    yield t, sig
        self._kept[key] = list(kept.values())
        if not key[2]:
            self.terms[nt][size] = self._kept[key]

    def _walk(self, tpl: Template, size: int, no_zero: bool,
              skip: Container = ()) -> Iterator[tuple[Term, tuple]]:
        """The (term, signature) pairs of a production, or of a slot of one,
        at size, but for applications whose signature is in skip: their
        terms are never built."""
        if isinstance(tpl, Apply):
            slots, tree = self.g.split_plan(tpl, size)

            def inst(i: int, s: int) -> list[tuple[Term, tuple]]:
                c, nz = slots[i]
                return (self.pairs(c.nt, s, nz) if isinstance(c, TNT)
                        else list(self._walk(c, s, nz)))

            op, width = tpl.op, self.pointwise.width(
                tpl, {nt: r.sort for nt, r in self.g.rules.items()})
            apply = self.pointwise.apply
            spec = OPS.get(op)

            def untwinned() -> Iterator[tuple]:
                """walk_splits but for (op b a) where (op a b) came first:
                down the tree's two levels, sizes s1 <= s2, and at s1 = s2
                item i with items j >= i."""
                for s1, later in tree.items():
                    for s2 in later:
                        if s1 <= s2:
                            left, right = inst(0, s1), inst(1, s2)
                            for i, a in enumerate(left):
                                for b in (right[i:] if s1 == s2 else right):
                                    yield a, b

            # a commuted twin has the signature of the pair before it, so a
            # pruning bank would drop it
            twins = (self.prune and spec is not None and spec.commutative
                     and len(slots) == 2 and slots[0] == slots[1]
                     and isinstance(slots[0][0], TNT))
            for chosen in untwinned() if twins else walk_splits(tree, inst):
                self._poll()
                sig = apply(op, [s for _, s in chosen], width)
                if sig not in skip:
                    yield Apply(op, tuple([t for t, _ in chosen])), sig
        elif isinstance(tpl, Let):
            # the body reads bound names: only the whole let has a signature
            for t in self._enum_tpl(tpl, size, no_zero):
                self._poll()
                yield t, self.pointwise(t)
        elif size == 1:
            for t in ([Lit(v) for v in self._hole_pool(tpl.sort, no_zero)]
                      if isinstance(tpl, THole) else [tpl]):
                yield t, self.pointwise(t)

    def _poll(self):
        if next(self._polls) % 4096 == 0 and self._deadline is not None \
                and self._deadline.expired():
            raise BudgetExpired


def solve_enumerative(p: SynthProblem, cfg: EnumConfig) -> SolveOutcome:
    if not isinstance(cfg.max_size, int):
        raise SygusError("max_size must be an int")
    return cegis(p, cfg, _propose, cfg.max_size)


def _propose(p: SynthProblem, cfg: EnumConfig, deadline: Deadline,
             scorer: Scorer, pool: tuple) -> Proposals:
    """_candidates' bodies that the scorer finds wrong on no example."""
    names = list(p.unknowns)
    mins = [g.min_sizes()[g.start]
            for g in (p.unknowns[n].grammar for n in names)]
    if math.inf in mins:
        return
    while True:
        # signatures do not decide an example with an unbound invocation
        banks = [Bank(p.unknowns[n].grammar, scorer.bindings[n], pool,
                      cfg.prune and not scorer.naive, p.defined_funs,
                      deadline) for n in names]
        for terms, sigs in _candidates(banks, mins, scorer.stages(),
                                       cfg.max_size, deadline):
            bodies = dict(zip(names, terms))
            if next(scorer.wrong(bodies, sigs), None) is None:
                if (reply := (yield bodies)) is not None:
                    scorer, pool = reply
                    break  # restart with the new example
        else:
            return


def _candidates(banks: Sequence[Bank], mins: Sequence[int],
                stages: Sequence[Callable[[Sequence[tuple]], bool] | None],
                max_size: int, deadline: Deadline
                ) -> Iterator[tuple[list, list]]:
    """A kept (term, signature) pair per bank, in nondecreasing total size,
    a total's compositions in order and a composition's pairs in product's
    order, but for what lies below a prefix whose last pair its depth's stage
    (Scorer.stages) rejects. The pairs come as two lists, of the terms and
    of the signatures, refilled. A bank builds a piece where the walk first
    reads it, and the first bank's pieces are walked as they are kept.
    BudgetExpired past the deadline, polled every 256 pairs."""
    terms: list = [None] * len(banks)
    sigs: list = [None] * len(banks)
    visits = count(1)

    def walk(pieces: list, d: int) -> Iterator[tuple[list, list]]:
        if d == len(pieces):
            yield terms, sigs
            return
        stage = stages[d]
        for t, sigs[d] in pieces[d]:
            if next(visits) % 256 == 0 and deadline.expired():
                raise BudgetExpired
            if stage is not None and not stage(sigs):
                continue
            terms[d] = t
            yield from walk(pieces, d + 1)

    for total in range(sum(mins), max_size + 1):
        for split in compositions(total, mins):
            # depth 0 is walked once, so it can be a stream, which is
            # truthy however many pairs it will give
            pieces = [b.stream(b.g.start, s) if d == 0
                      else b.pairs(b.g.start, s)
                      for d, (b, s) in enumerate(zip(banks, split))]
            if all(pieces):
                yield from walk(pieces, 0)
