"""Stochastic CEGIS, a proposer for cegis.cegis: Metropolis-Hastings over
fixed-size parse trees.

The walk lives on grammar-derivable terms of the currently scheduled size;
one move resamples the subtree under a uniformly chosen parse-tree node with
a uniformly drawn derivable replacement of the same nonterminal and size, so
the proposal is symmetric and acceptance is min(1, score'/score) with
score = exp(-beta * wrong), where wrong counts the examples cegis.Scorer
finds the body wrong on. Each current body that agrees with every example
is yielded to the loop; a new counterexample rebuilds the enumerator over
the new pool and re-scores the walk in place, keeping its rng and sample.

The walk holds a grammar.Derivation: a move splices the replacement's
instances over the chosen one and its descendants and rebuilds only the
terms on the replaced path.

Proposals often repeat, and distinct bodies often share an output vector,
so until the next counterexample the walk keeps the wrong counts of the
WRONG_MEMO bodies and of the WRONG_MEMO signatures it used last. A body
missing from the first memo has its signature composed once, node by node
(cegis.Scorer's Pointwise). A plain-tuple signature holds no ERR, so
unless the scorer is naive the wrong count depends on the signature alone
and goes through the second memo. A signature that may hold ERR, or any
under a naive scorer, is scored with its body, which the scorer then
reads too.

Reproducible: one Random(seed), seed an int, drives sampling, mutation and
acceptance, with randrange's and choices' draws (grammar.randbelow, weighted).
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from itertools import accumulate, cycle

from .cegis import (BudgetExpired, Deadline, Proposals, Scorer, SolveOutcome,
                    cegis, count_wrong, positive_finite)
from .checker import CheckStrategy
from .checker import check_semantic  # noqa: F401 (perfbench/tracing.py wraps it)
from .frontend import SynthProblem
from .grammar import Derivation, Enumerator, term_replace, weighted
from .terms import SygusError, Term


# bodies, and signatures, whose wrong counts the walk keeps until the next
# counterexample, least recently used dropped first; a proposal often
# repeats a recent one, and shares its output vector with one more often
WRONG_MEMO = 512


@dataclass
class StochConfig:
    beta: float = 0.5
    size_schedule: tuple[int, ...] = (3, 5, 7, 9, 11)
    moves_per_size: int = 5000
    seed: int = 0
    budget_s: float = 60.0
    verifier: CheckStrategy | None = None
    trace: list | None = None  # test mode: (wrong, wrong_new, prob, u, accepted)


def mutate(d: Derivation, enumr: Enumerator, rng: random.Random) -> Derivation:
    """One size-preserving edit: resample the subtree under an instance chosen
    uniformly over the parse tree (cumulative weights of the nodes each
    instance contributed, drawn by grammar.weighted) and splice the
    replacement's entries over the instance and its descendants."""
    entries = d.entries
    pick = weighted(rng, list(accumulate(e[4] for e in entries)))
    path, nt, size, no_zero, _ = entries[pick]
    new = enumr.sample(nt, size, rng, no_zero, path)
    end, depth = pick + 1, len(path)
    while end < len(entries) and entries[end][0][:depth] == path:
        end += 1
    return Derivation(term_replace(d.term, path, new.term),
                      entries[:pick] + new.entries + entries[end:])


def solve_stochastic(p: SynthProblem, cfg: StochConfig) -> SolveOutcome:
    if len(p.unknowns) != 1:
        raise SygusError("the stochastic solver handles a single unknown")
    if not positive_finite(cfg.beta):
        raise SygusError("beta must be positive and finite")
    if not isinstance(cfg.seed, int):
        raise SygusError("seed must be an int, so the walk can be replayed")
    if not isinstance(cfg.moves_per_size, int) or cfg.moves_per_size < 0:
        raise SygusError("moves_per_size must be a nonnegative int")
    sizes = cfg.size_schedule
    if not sizes or not all(isinstance(s, int) for s in sizes) or \
            list(sizes) != sorted(sizes):
        raise SygusError("size schedule must be nonempty, nondecreasing ints")
    return cegis(p, cfg, _walk, sizes[-1])


def _walk(p: SynthProblem, cfg: StochConfig, deadline: Deadline,
          scorer: Scorer, pool: tuple) -> Proposals:
    """The walk; the sample that starts each size is its move -1."""
    (name, u), = p.unknowns.items()
    g = u.grammar
    rng = random.Random(cfg.seed)
    enumr = Enumerator(g, pool)
    # the pool grows only by examples, and examples come only from samples
    if not any(enumr.count(g.start, s) for s in cfg.size_schedule):
        return

    @functools.lru_cache(maxsize=WRONG_MEMO)
    def wrong_of_sig(sig: tuple) -> int:
        # a plain signature holds no ERR, so wrong() reads no body from a
        # scorer that is not naive
        return count_wrong(scorer, {}, [sig])

    @functools.lru_cache(maxsize=WRONG_MEMO)
    def wrong_of(body: Term) -> int:
        sig = scorer.sig[name](body)
        if type(sig) is tuple and not scorer.naive:
            return wrong_of_sig(sig)
        return count_wrong(scorer, {name: body}, [sig])

    for size in cycle(cfg.size_schedule):
        if enumr.count(g.start, size) == 0:
            continue
        for move in range(-1, cfg.moves_per_size):
            if move % 32 == 31 and deadline.expired():  # from move -1 on
                raise BudgetExpired
            if move < 0:
                current = enumr.sample(g.start, size, rng)
                wrong = wrong_of(current.term)
            else:
                proposal = mutate(current, enumr, rng)
                wrong_new = wrong_of(proposal.term)
                # a proposal no worse is accepted without exp, which
                # overflows once beta * (wrong - wrong_new) passes about 709
                prob = (1.0 if wrong_new <= wrong
                        else math.exp(-cfg.beta * (wrong_new - wrong)))
                unif = rng.random()
                accepted = unif < prob  # rng.random() < 1.0, so prob=1 accepts
                if cfg.trace is not None:
                    cfg.trace.append((wrong, wrong_new, prob, unif, accepted))
                if accepted:
                    current, wrong = proposal, wrong_new
            if wrong == 0:
                if (reply := (yield {name: current.term})) is not None:
                    scorer, pool = reply
                    enumr = Enumerator(g, pool)
                    wrong_of.cache_clear()
                    wrong_of_sig.cache_clear()
                wrong = wrong_of(current.term)
