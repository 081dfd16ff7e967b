"""Stochastic CEGIS: Metropolis-Hastings over fixed-size parse trees.

The walk lives on grammar-derivable terms of the currently scheduled size;
one move resamples the subtree under a uniformly chosen parse-tree node with
a uniformly drawn derivable replacement of the same nonterminal and size, so
the proposal is symmetric and acceptance is min(1, score'/score) with
score = exp(-beta * wrong), where wrong counts the examples cegis.Scorer
finds the body wrong on. Candidates that agree with every example are sent
to the verifier; a counterexample rebuilds the scorer and re-scores the walk
in place.

Reproducible: one Random(seed) drives sampling, mutation, and acceptance.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import cycle

from .cegis import (Deadline, ExampleSet, Exhausted, Scorer, Solved,
                    SolveOutcome, TimedOut, base_constant_pool, count_wrong,
                    make_solution, pool_with_examples)
from .checker import (CheckStrategy, CounterExample, Valid, check_semantic,
                      default_strategy)
from .frontend import SynthProblem
from .grammar import Enumerator, SlotNode, term_replace
from .terms import SygusError, Term, term_size


@dataclass
class StochConfig:
    beta: float = 0.5
    size_schedule: tuple[int, ...] = (3, 5, 7, 9, 11)
    moves_per_size: int = 5000
    seed: int = 0
    budget_s: float = 60.0
    verifier: CheckStrategy | None = None
    trace: list | None = None  # test mode: (wrong, wrong_new, prob, u, accepted)


def _collect_slots(node: SlotNode, prefix: tuple = ()):
    out = [(prefix, node)]
    for i, (_, child) in enumerate(node.children):
        out.extend(_collect_slots(child, prefix + (i,)))
    return out


def _rebuild(node: SlotNode, tree_path: tuple, new_sub: SlotNode) -> SlotNode:
    if not tree_path:
        return new_sub
    i = tree_path[0]
    term_path, child = node.children[i]
    child2 = _rebuild(child, tree_path[1:], new_sub)
    children = list(node.children)
    children[i] = (term_path, child2)
    return SlotNode(node.nt, term_replace(node.term, term_path, child2.term),
                    node.size, node.no_zero, node.own_nodes, children)


def mutate(node: SlotNode, enumr: Enumerator, rng: random.Random) -> SlotNode:
    """One size-preserving edit: resample the subtree under a node chosen
    uniformly over the parse tree (weights = nodes each instance contributed)."""
    slots = _collect_slots(node)
    weights = [n.own_nodes for _, n in slots]
    pick = rng.choices(range(len(slots)), weights)[0]
    path, chosen = slots[pick]
    new_sub = enumr.sample(chosen.nt, chosen.size, rng, chosen.no_zero)
    return _rebuild(node, path, new_sub)


def solve_stochastic(p: SynthProblem, cfg: StochConfig) -> SolveOutcome:
    if len(p.unknowns) != 1:
        raise SygusError("the stochastic solver handles a single unknown")
    if cfg.beta <= 0:
        raise SygusError("beta must be positive")
    if not cfg.size_schedule or \
            list(cfg.size_schedule) != sorted(cfg.size_schedule):
        raise SygusError("size schedule must be a nonempty nondecreasing sweep")
    (name, u), = p.unknowns.items()
    g = u.grammar
    deadline = Deadline(cfg.budget_s)
    verifier = cfg.verifier if cfg.verifier is not None else default_strategy(p)
    rng = random.Random(cfg.seed)
    E = ExampleSet()
    base_pool = base_constant_pool(p)
    enumr = Enumerator(g, pool_with_examples(base_pool, E))
    # the pool grows only by examples, and examples come only from samples
    if not any(enumr.count(g.start, s) for s in cfg.size_schedule):
        return Exhausted(cfg.size_schedule[-1])
    scorer = Scorer(p, E)
    checked: set[tuple[Term, int]] = set()

    def wrong_of(body: Term) -> int:
        return count_wrong(scorer, {name: body})

    def verify(body: Term):
        nonlocal enumr, scorer
        key = (body, len(E))
        if key in checked:
            return None
        checked.add(key)
        sol = make_solution(p, {name: body})
        verdict = check_semantic(p, sol, verifier)
        if isinstance(verdict, Valid):
            return Solved(sol, deadline.elapsed(), {name: term_size(body)})
        if isinstance(verdict, CounterExample) and E.add(verdict.valuation):
            enumr = Enumerator(g, pool_with_examples(base_pool, E))
            scorer = Scorer(p, E)
        return None

    for size in cycle(cfg.size_schedule):
        if deadline.expired():
            return TimedOut(cfg.budget_s)
        if enumr.count(g.start, size) == 0:
            continue
        current = enumr.sample(g.start, size, rng)
        wrong = wrong_of(current.term)
        if wrong == 0:
            out = verify(current.term)
            if out is not None:
                return out
            wrong = wrong_of(current.term)
        for move in range(cfg.moves_per_size):
            if move % 32 == 0 and deadline.expired():
                return TimedOut(cfg.budget_s)
            proposal = mutate(current, enumr, rng)
            wrong_new = wrong_of(proposal.term)
            prob = min(1.0, math.exp(-cfg.beta * (wrong_new - wrong)))
            unif = rng.random()
            accepted = unif < prob  # rng.random() < 1.0 always, so prob=1 accepts
            if cfg.trace is not None:
                cfg.trace.append((wrong, wrong_new, prob, unif, accepted))
            if accepted:
                current, wrong = proposal, wrong_new
            if wrong == 0:
                out = verify(current.term)
                if out is not None:
                    return out
                wrong = wrong_of(current.term)
